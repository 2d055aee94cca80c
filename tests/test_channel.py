"""Channel corruption: worked examples, invariants, seeded determinism."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcodes import oracle
from compcodes.channel import (MODELS, ErrorSpec, SplitMix64, apply,
                               random_error, resolve)
from compcodes.codebooks import CodebookSpec, enumerate_codebook
from compcodes.core import full_readout
from compcodes.errors import InvalidErrorSpecError, InvalidSkewError
from compcodes.formats import emit_error_spec
from conftest import EXAMPLE_MULTISET, EXAMPLE_S, readout_from_table


def test_asym_delete_matches_reference_listing(example_readout):
    corrupted = apply(example_readout, ErrorSpec("asym_delete", targets=(3,)))
    table = {k: v for k, v in EXAMPLE_MULTISET.items() if k != 3}
    assert corrupted == readout_from_table(table, 9)
    assert corrupted.total_entries() == 38


def test_sym_pair_delete_matches_reference_listing(example_readout):
    corrupted = apply(example_readout, ErrorSpec("sym_pair_delete", targets=((3, 7),)))
    table = {k: v for k, v in EXAMPLE_MULTISET.items() if k not in (3, 7)}
    assert corrupted == readout_from_table(table, 9)
    assert corrupted.total_entries() == 35


def test_insert_matches_worked_example(example_readout):
    corrupted = apply(example_readout,
                      ErrorSpec("insert", targets=((7, (1, 6)),)))
    # class 7 held weights 3, 4, 5 once each; the inserted 0 1^6 adds weight 6
    assert corrupted.classes[7] == (0, 0, 0, 1, 1, 1, 1, 0)
    assert [k for k in corrupted.classes
            if corrupted.class_size(k) > corrupted.n - k + 1] == [7]


def test_skew_semantics():
    # corrupting 0^2 1^4 may read as 0^3 1^3 or 0^4 1^2, never 0^1 1^5
    old = (2, 4)
    for new in ((3, 3), (4, 2)):
        ErrorSpec("skew", targets=((6, old, new),))
    with pytest.raises(InvalidSkewError):
        ErrorSpec("skew", targets=((6, old, (1, 5)),))
    with pytest.raises(InvalidSkewError):
        ErrorSpec("skew", targets=((6, old, (1, 4)),))


def test_skew_preserves_size_and_lowers_weight(example_readout):
    err = ErrorSpec("skew", targets=((7, (2, 5), (3, 4)),))
    corrupted = apply(example_readout, err)
    assert corrupted.class_size(7) == example_readout.class_size(7)
    assert corrupted.weight(7) == example_readout.weight(7) - 1


def test_apply_never_touches_untargeted_classes(example_readout):
    corrupted = apply(example_readout, ErrorSpec("asym_delete", targets=(3,)))
    for k in corrupted.classes:
        assert corrupted.classes[k] == example_readout.classes[k]


def test_entry_count_after_deletion(example_readout):
    n = 9
    for targets in ((2,), (2, 5), (9,)):
        corrupted = apply(example_readout, ErrorSpec("asym_delete", targets=targets))
        expected = n * (n + 1) // 2 - sum(n - k + 1 for k in targets)
        assert corrupted.total_entries() == expected


def test_invalid_error_specs(example_readout):
    with pytest.raises(InvalidErrorSpecError):
        # mutually symmetric classes are not an asymmetric pattern
        apply(example_readout, ErrorSpec("asym_delete", targets=(3, 7)))
    with pytest.raises(InvalidErrorSpecError):
        apply(example_readout, ErrorSpec("sym_pair_delete", targets=((3, 6),)))
    with pytest.raises(InvalidErrorSpecError):
        ErrorSpec("bogus", targets=(1,))
    with pytest.raises(InvalidErrorSpecError):
        ErrorSpec("asym_delete")  # neither targets nor seed
    with pytest.raises(InvalidErrorSpecError):
        ErrorSpec("asym_delete", targets=(3,), count=1, seed=1)
    with pytest.raises(InvalidErrorSpecError):
        ErrorSpec("insert", targets=((7, (1, 5)),))  # length mismatch
    with pytest.raises(InvalidErrorSpecError):
        ErrorSpec("asym_delete", targets=(3, 3))  # duplicates
    with pytest.raises(InvalidErrorSpecError):
        ErrorSpec("skew", targets=((7, (2, 5), (3, 4)), (7, (3, 4), (4, 3))))


def test_targets_need_exact_ints(example_readout):
    # int() would read 2.9 as class 2, True as 1 and "3" as 3
    for bad in (2.9, True, "3"):
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("asym_delete", targets=(bad,))
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("sym_pair_delete", targets=((bad, 7),))
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("insert", targets=((bad, (1, 2)),))
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("skew", targets=((bad, (1, 2), (2, 1)),))
    # a float composition used to reach apply() and fail there with TypeError
    for comp in ((1.5, 1.5), (1, 2.0), (True, 2)):
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("insert", targets=((3, comp),))
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("skew", targets=((3, comp, (2, 1)),))
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("skew", targets=((3, (0, 3), comp),))
    # exact ints still pass and apply
    corrupted = apply(example_readout, ErrorSpec(
        "insert", targets=((3, (1, 2)),)))
    assert corrupted.classes[3][2] == example_readout.classes[3][2] + 1


def test_targets_need_their_exact_shape():
    # an extra field used to be ignored: this deleted classes 1 and 9
    with pytest.raises(InvalidErrorSpecError, match="2 items"):
        ErrorSpec("sym_pair_delete", targets=((1, 9, 99),))
    with pytest.raises(InvalidErrorSpecError, match="3 items"):
        ErrorSpec("skew", targets=((7, (2, 5), (3, 4), 1),))
    # a bare TypeError and an IndexError before
    with pytest.raises(InvalidErrorSpecError, match="targets must be a list"):
        ErrorSpec("asym_delete", targets=5)
    with pytest.raises(InvalidErrorSpecError, match="2 items"):
        ErrorSpec("insert", targets=((7,),))
    # a ValueError before
    with pytest.raises(InvalidErrorSpecError, match="invalid entry"):
        ErrorSpec("insert", targets=((1, (-1, 2)),))


def test_seeded_fields_need_exact_ints():
    # each of these used to construct, then fail inside apply()
    for count, seed in ((True, 1.9), (2.0, 1), (1, 1.0), (1, "1")):
        with pytest.raises(InvalidErrorSpecError, match="must be an int"):
            ErrorSpec("skew", count=count, seed=seed)
    with pytest.raises(InvalidErrorSpecError, match="count must be an int"):
        random_error("skew", 1.5, 3, 9)


def test_list_targets_make_a_hashable_spec(example_readout):
    listed = ErrorSpec("asym_delete", targets=[3])
    assert listed == ErrorSpec("asym_delete", targets=(3,))
    skew = ErrorSpec("skew", targets=[[7, [2, 5], [3, 4]]])
    assert skew.targets == ((7, (2, 5), (3, 4)),)
    assert len({listed, skew, ErrorSpec("asym_delete", targets=(3,))}) == 2
    # pairs keep the order they were given in
    assert ErrorSpec("sym_pair_delete", targets=[[7, 3]]).targets == ((7, 3),)
    assert apply(example_readout, skew) == apply(
        example_readout, ErrorSpec("skew", targets=((7, (2, 5), (3, 4)),)))


def test_random_error_capacity():
    with pytest.raises(InvalidErrorSpecError):
        random_error("asym_delete", 7, seed=1, n=12)
    random_error("asym_delete", 6, seed=1, n=12)


def test_seeded_specs_over_capacity_are_refused_wherever_they_come_from():
    # a spec built directly (as parse_error_spec builds it) skips
    # random_error, and resolve refuses it with the same message
    r = full_readout("001010111")
    for model, count in (("asym_delete", 5), ("sym_pair_delete", 5),
                         ("insert", 10), ("skew", 6)):
        with pytest.raises(InvalidErrorSpecError) as expected:
            random_error(model, count, 1, r.n)
        with pytest.raises(InvalidErrorSpecError) as got:
            apply(r, ErrorSpec(model, count=count, seed=1))
        assert str(got.value) == str(expected.value)
        assert str(got.value) == \
            f"{model} supports at most {count - 1} errors at n=9"
        resolve(r, ErrorSpec(model, count=count - 1, seed=1))


def test_capacities_at_even_and_odd_n():
    # a skew takes one class per symmetric pair, the centre of odd n
    # included, so its capacity differs from the deletions' at odd n only
    capacities = {8: {"asym_delete": 4, "sym_pair_delete": 4, "skew": 4,
                      "insert": 8},
                  9: {"asym_delete": 4, "sym_pair_delete": 4, "skew": 5,
                      "insert": 9}}
    for s in ("00101011", "001010111"):
        r = full_readout(s)
        for model, capacity in capacities[r.n].items():
            resolve(r, random_error(model, capacity, 3, r.n))
            resolve(r, ErrorSpec(model, count=capacity, seed=3))
            message = f"{model} supports at most {capacity} errors at n={r.n}"
            with pytest.raises(InvalidErrorSpecError) as refused:
                random_error(model, capacity + 1, 3, r.n)
            assert str(refused.value) == message
            with pytest.raises(InvalidErrorSpecError) as refused:
                resolve(r, ErrorSpec(model, count=capacity + 1, seed=3))
            assert str(refused.value) == message


def test_seeded_draws_land_in_their_models_universe():
    # the oracle vouches for a codebook under a model by scanning that
    # model's universe, so every class set a seeded draw corrupts must
    # be one of its patterns: the skews of odd n reach the centre
    # together with another class
    models = [m for m in MODELS if m in oracle.PROPERTY_MODELS]
    assert models == ["asym_delete", "sym_pair_delete", "skew"]
    for n in range(8, 13):
        for s in enumerate_codebook(CodebookSpec("SR", n))[:20]:
            r = full_readout(s)
            for model, count in itertools.product(models, (1, 2)):
                universe = set(oracle.deletion_patterns(model, count, n))
                for seed in range(40):
                    corrupted = apply(r, random_error(model, count, seed, n))
                    hit = frozenset(k for k in r.classes
                                    if corrupted.classes.get(k) != r.classes[k])
                    assert hit in universe, (s, model, count, seed, hit)


def test_seeded_draws_are_deterministic(example_readout):
    for model, count in (("asym_delete", 2), ("sym_pair_delete", 2),
                         ("insert", 3), ("skew", 2)):
        err = random_error(model, count, seed=7, n=9)
        first = resolve(example_readout, err)
        second = resolve(example_readout, err)
        assert first == second
        assert apply(example_readout, err) == apply(example_readout, first)


# sha256 of the resolved targets of seeds 0..39 on the worked example, one
# emitted error spec per line.  Recorded once; any change to the draw order
# of a model (e.g. which skew entry a seed picks) changes its digest.
GOLDEN_DRAWS = {
    ("asym_delete", 2):
        "b9e80aead8bc41dfd86c2c2fe8adef65bafdd0f5964f1f22afdd4483ce90903f",
    ("sym_pair_delete", 2):
        "80c60a4eca36aa6a5b8a206423c5fd64c2dcc6855c1166b3dcb960f8e183428d",
    ("insert", 3):
        "c4f633965831be2dd8b5230f068fdb3b05224fba61d62fe50eda626f30f6a2ba",
    ("skew", 2):
        "fe58841ce9f4a49b4a88b0734f063ef30ece6ebb71026fbe7c4b4d67d7c0b45d",
}


def test_seeded_draws_match_golden_digests(example_readout):
    for (model, count), digest in GOLDEN_DRAWS.items():
        lines = [emit_error_spec(resolve(example_readout,
                                         random_error(model, count, seed, 9)))
                 for seed in range(40)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, model
    first = resolve(example_readout, random_error("skew", 2, 0, 9))
    assert emit_error_spec(first) == \
        '{"model":"skew","targets":[[8,[3,5],[4,4]],[6,[4,2],[6,0]]]}'


def test_seeded_asym_draws_avoid_symmetric_collisions(example_readout):
    n = 9
    for seed in range(40):
        err = resolve(example_readout, random_error("asym_delete", 2, seed, n))
        ks = set(err.targets)
        assert len(ks) == 2
        assert not any(n - k + 1 in ks and n - k + 1 != k for k in ks)
        assert 5 not in ks  # the self-symmetric center is never asymmetric


def test_seeded_skew_draws_are_valid(example_readout):
    n = 9
    for seed in range(40):
        err = resolve(example_readout, random_error("skew", 2, seed, n))
        ks = [k for k, _, _ in err.targets]
        assert len(set(ks)) == 2
        assert not any(n - k + 1 in ks and n - k + 1 != k for k in ks)
        for k, old, new in err.targets:
            assert sum(old) == sum(new) == k
            assert new[1] < old[1]
            assert example_readout.classes[k][old[1]] >= 1


def test_skew_resamples_weightless_classes():
    # a class whose entries carry no ones cannot shed weight; the draw
    # must settle on a skewable class instead
    r = full_readout("0001")
    for seed in range(20):
        err = resolve(r, random_error("skew", 1, seed, 4))
        (k, old, new), = err.targets
        assert old[1] >= 1


def test_splitmix_reference_values():
    # first outputs for seed 0; fixed by the algorithm constants
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=97))
def test_splitmix_below_is_in_range(seed, bound):
    rng = SplitMix64(seed)
    assert 0 <= rng.below(bound) < bound


def test_splitmix_below_seeded_draws():
    # the draw for 2**63 + 1 rejects the first output, 0xE220A8397B1DCDAF,
    # and takes the second; 2**64 takes the fifth output as it is
    rng = SplitMix64(0)
    assert [rng.below(b) for b in (2 ** 63 + 1, 10, 97, 2 ** 64, 1)] == [
        0x6E789E6AA1B965F4, 9, 35, 0x1B39896A51A8749B, 0]


@pytest.mark.parametrize("bound", [0, -1, 2 ** 64 + 1, 2 ** 65])
def test_splitmix_below_refuses_bounds_out_of_range(bound):
    # above 2**64 no 64-bit draw could be accepted, so the draw never ended
    with pytest.raises(ValueError, match=r"\[1, 2\*\*64\]"):
        SplitMix64(0).below(bound)
