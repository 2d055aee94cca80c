"""Brute-force oracle: class counts, property verification, witnesses."""

import functools
import itertools
from collections import Counter

import pytest

from compcodes import kernel, oracle
from compcodes.codebooks import CodebookSpec, enumerate_codebook
from compcodes.core import bits_to_bytes, full_readout, signature_of
from compcodes.errors import ResourceCapError
from compcodes.oracle import (
    ConfusabilityWitness,
    count_classes,
    deletion_patterns,
    find_confusable_pair,
    insertion_witness_readouts,
    max_code_bound,
    verify_code_property,
)
from conftest import EXAMPLE_S, sigma_of_string


def test_equicomposable_examples():
    # equicomposable strings are those with equal full signatures
    assert signature_of(EXAMPLE_S) == signature_of(EXAMPLE_S[::-1])
    assert signature_of("0011") != signature_of("0101")


def test_reversal_always_equicomposable():
    for n in (5, 8):
        for x in range(2 ** n):
            s = format(x, f"0{n}b")
            assert signature_of(s) == signature_of(s[::-1])


def test_same_sigma_strings_differ_in_adjacent_classes():
    # two strings with equal pairwise weights and shared length-3
    # prefix/suffix must differ in the fourth and fifth classes
    s, v = "001011101", "001110101"
    assert sigma_of_string(s) == sigma_of_string(v) == (1, 0, 2, 1, 1)
    assert s[:3] == v[:3] and s[-3:] == v[-3:]
    rs, rv = full_readout(s), full_readout(v)
    for k in (4, 5):
        diff = sum(abs(a - b) for a, b in zip(rs.classes[k], rv.classes[k]))
        assert diff >= 2, k


def test_count_classes_small_values():
    assert count_classes(2)[0] == 3
    assert count_classes(6)[0] == 36
    assert count_classes(7)[0] == 72


def test_count_classes_equals_bound_up_to_seven():
    for n in range(2, 8):
        assert count_classes(n)[0] == max_code_bound(n)


def test_count_classes_below_bound_at_eight():
    # length 8 is not uniquely reconstructable: one merged class
    count, reps = count_classes(8)
    assert count == 135 == max_code_bound(8) - 1
    assert len(reps) == count


def test_count_classes_representatives_cover_everything():
    count, reps = count_classes(5)
    assert count == len(reps) == 20
    seen = set()
    for rep in reps:
        assert rep == min(rep, rep[::-1])  # lexicographically minimal
        seen.add(rep)
        seen.add(rep[::-1])
    assert len(seen ^ {format(x, "05b") for x in range(32)}) == 0


def test_count_classes_matches_plain_loop():
    # reference: every string in lexicographic order, first one seen per
    # readout kept as the class representative
    for n in range(1, 15):
        reps = {}
        for x in range(2 ** n):
            s = format(x, f"0{n}b")
            reps.setdefault(signature_of(s), s)
        assert count_classes(n) == (len(reps), sorted(reps.values())), n


def test_count_classes_matches_one_stage_reference():
    # reference: every candidate signed whole in one batch, one dict of
    # whole signatures; listed downward, the dict keeps the smallest
    for n in range(1, 17):
        strings = oracle._class_candidates(n)
        sigs = kernel.signatures(bits_to_bytes("".join(strings)), n)
        reps = dict(zip(sigs, strings))
        assert count_classes(n, cap=16) == (len(reps), sorted(reps.values())), n


def test_class_candidates_match_the_reversal_filter():
    # the strings built from halves are those no larger than their
    # reversal, downward, for odd and even n
    for n in range(1, 17):
        strings = [format(x, f"0{n}b") for x in range(2 ** n)]
        assert oracle._class_candidates(n) == [s for s in reversed(strings)
                                               if s <= s[::-1]], n


def test_count_classes_cap():
    with pytest.raises(ResourceCapError):
        count_classes(17)


def test_count_classes_rejects_lengths_below_one():
    # True is no length 1, nor 6.0 a length 6
    for n, message in ([(n, f"n={n}") for n in (0, -3)]
                       + [(n, f"^n must be an int, got {n!r}$")
                          for n in (True, 6.0, "6")]):
        with pytest.raises(ValueError, match=message):
            count_classes(n)


def test_max_code_bound_values():
    assert max_code_bound(6) == 36
    assert max_code_bound(9) == 272
    assert max_code_bound(2) == 3


def test_deletion_patterns_are_deterministic_and_valid():
    pats = list(deletion_patterns("asym_delete", 2, 9))
    assert pats == list(deletion_patterns("asym_delete", 2, 9))
    assert frozenset() in pats
    for p in pats:
        assert not any(10 - k in p and 10 - k != k for k in p)
        if 5 in p:  # odd center may only be deleted alone
            assert len(p) == 1
    sym = list(deletion_patterns("sym_pair_delete", 2, 10))
    assert frozenset({1, 10}) in sym and frozenset({2, 9, 3, 8}) in sym
    consec = list(deletion_patterns("consecutive_sym_pair_delete", 2, 10))
    assert frozenset({2, 9, 3, 8}) in consec
    assert frozenset({2, 9, 4, 7}) not in consec


def test_deletion_patterns_reject_t_below_one():
    # True is no t = 1, and 2.5 no TypeError out of range()
    refusals = ([(t, f"t={t}") for t in (0, -1)]
                + [(t, f"^t must be an int, got {t!r}$") for t in (True, 2.5, 2.0)])
    for model in oracle.PROPERTY_MODELS:
        for t, message in refusals:
            with pytest.raises(ValueError, match=message):
                list(deletion_patterns(model, t, 8))
            with pytest.raises(ValueError, match=message):
                verify_code_property(CodebookSpec("SR", 8), model, t)


def test_verify_refuses_model_and_t_before_enumerating(monkeypatch):
    def no_enumeration(spec):
        raise AssertionError("enumerated before checking model and t")

    monkeypatch.setattr(oracle, "enumerate_codebook", no_enumeration)
    spec = CodebookSpec("SR", 22)
    with pytest.raises(ValueError, match="t=0"):
        verify_code_property(spec, "asym_delete", 0, cap=22)
    with pytest.raises(ValueError, match="unknown model 'erase'"):
        verify_code_property(spec, "erase", 1, cap=22)


def test_single_error_guarantees_midrange():
    for n in (7, 8, 9, 10):
        assert verify_code_property(CodebookSpec("SR", n), "asym_delete", 1) is None
        assert verify_code_property(CodebookSpec("SR", n), "sym_pair_delete", 1) is None


def test_known_counterexample_at_six():
    # the adjacent central pair breaks the single-pair guarantee at n=6
    w = verify_code_property(CodebookSpec("SR", 6), "sym_pair_delete", 1)
    assert w is not None
    assert w.deleted_classes == frozenset({3, 4})
    assert {w.s, w.v} == {"001101", "010011"}
    assert w.verify()


def test_sda_guarantee():
    w = verify_code_property(CodebookSpec("SDA", 10, t=2), "asym_delete", 2)
    assert w is None


def test_sr_corrects_two_asymmetric_deletions_up_to_sixteen():
    # SR itself corrects two asymmetric class deletions for n = 6..16, so
    # SDA's constraint buys nothing there at t = 2.  At t = 3 every even
    # n = 8..16 has a witness deleting the three classes ending at n/2,
    # and odd n = 9..15 has none
    for n in range(6, 17):
        assert verify_code_property(CodebookSpec("SR", n), "asym_delete", 2) is None
    witnesses = {n: verify_code_property(CodebookSpec("SR", n), "asym_delete", 3)
                 for n in range(8, 17)}
    for n, w in witnesses.items():
        if n % 2:
            assert w is None, n
        else:
            assert w.deleted_classes == {n // 2 - 2, n // 2 - 1, n // 2}, n
            assert w.verify(), n
    assert (witnesses[8].s, witnesses[8].v) == ("00001111", "00010111")
    assert (witnesses[10].s, witnesses[10].v) == ("0000010111", "0000100111")


def test_sds2_guarantee():
    for a in range(7):
        assert verify_code_property(
            CodebookSpec("SDS2", 10, a=a), "sym_pair_delete", 2) is None


def test_skew_property_uses_asymmetric_patterns():
    assert verify_code_property(CodebookSpec("SR", 10), "skew", 1) is None
    assert verify_code_property(CodebookSpec("SDA", 10, t=2), "skew", 2) is None


def test_skew_universe_is_what_the_channel_draws():
    # a seeded skew may hit the centre m of odd n together with another
    # class, so the skew universe holds {m - 1, m}, which the asymmetric
    # one lacks; SR's first witness deletes exactly those two classes
    witnesses = {7: ("0000101", "0001001"), 9: ("000001001", "000010001"),
                 11: ("00000010001", "00000100001"),
                 13: ("0000000100001", "0000001000001")}
    for n, pair in witnesses.items():
        m = (n + 1) // 2
        assert frozenset({m - 1, m}) in set(deletion_patterns("skew", 2, n))
        assert frozenset({m - 1, m}) not in set(
            deletion_patterns("asym_delete", 2, n))
        w = verify_code_property(CodebookSpec("SR", n), "skew", 2)
        assert (w.s, w.v, w.deleted_classes) == (*pair, {m - 1, m}), n
        assert w.verify(), n
        assert verify_code_property(CodebookSpec("SR", n), "skew", 1) is None
        # SDA's t skewed substitutions hold against the centre-plus-other
        # skews too
        assert verify_code_property(
            CodebookSpec("SDA", n, t=2), "skew", 2) is None, n
    # at even n there is no centre, and skew scans the asymmetric universe
    for n in range(6, 13, 2):
        assert list(deletion_patterns("skew", 3, n)) == list(
            deletion_patterns("asym_delete", 3, n))


def test_find_confusable_pair_negative_results():
    for n in range(4, 13):
        assert find_confusable_pair(n, "asym_delete", 1) is None
    assert find_confusable_pair(9, "sym_pair_delete", 1) is None


def test_find_confusable_pair_two_pairs():
    w = find_confusable_pair(12, "sym_pair_delete", 2)
    assert w is not None and w.verify()
    # deterministic: repeated searches yield the identical witness
    assert find_confusable_pair(12, "sym_pair_delete", 2) == w


def test_witness_reverification_catches_fakes():
    # 0011 and 0101 differ exactly in their length-2 class, so deleting
    # class 3 does not make them collide
    fake = ConfusabilityWitness("0011", "0101", frozenset({3}))
    assert not fake.verify()
    assert not ConfusabilityWitness("0011", "0011", frozenset({2})).verify()
    # deleting the class they differ in is a genuine collision
    assert ConfusabilityWitness("0011", "0101", frozenset({2})).verify()


def test_insertion_deletion_equivalence_on_witness():
    w = find_confusable_pair(12, "sym_pair_delete", 2)
    left, right = insertion_witness_readouts(w)
    assert left == right
    for k in w.deleted_classes:
        assert left.class_size(k) > left.n - k + 1
    for k in range(1, 13):
        if k not in w.deleted_classes:
            assert left.classes[k] == full_readout(w.s).classes[k]


def test_verify_empty_codebook():
    # SCA1 has no member at n = 3: an empty batch signs to no signature
    spec = CodebookSpec("SCA1", 3)
    assert enumerate_codebook(spec) == ()
    for model in oracle.PROPERTY_MODELS:
        assert verify_code_property(spec, model, 1) is None


def test_collision_scan_rechecks_its_witness(monkeypatch):
    # a batch kernel that signs every member alike, in both stages, makes
    # a pair that verify(), signing one string at a time, rejects
    def alike(rows, n, top=None, bottom=1):
        top = n if top is None else top
        size = top * (top + 3) // 2 - (bottom - 1) * (bottom + 2) // 2
        return [bytes(size)] * (len(rows) // n)

    monkeypatch.setattr(kernel, "signatures", alike)
    with pytest.raises(RuntimeError, match="disagree"):
        verify_code_property(CodebookSpec("SR", 8), "asym_delete", 1)


def _counting_signatures(monkeypatch):
    """Record each batch call as (rows as strings, classes signed)."""
    calls = []
    real_signatures = kernel.signatures

    def counting(rows, n, top=None, bottom=None):
        strings = ["".join(map(str, rows[i:i + n])) for i in range(0, len(rows), n)]
        classes = range(bottom or 1, (n if top is None else top) + 1)
        calls.append((strings, classes))
        return real_signatures(rows, n, top, bottom)

    monkeypatch.setattr(kernel, "signatures", counting)
    return calls


def _lower_group_sharers(members, n, groups):
    """The members that share the classes 1..ceil(n/2) of one group of
    pair indices (modulo ``groups``) with another, in order."""
    m = (n + 1) // 2
    sigs = [signature_of(s) for s in members]
    kept = set()
    for g in range(groups):
        keys = [tuple(kernel.class_counts(sig, n, k)
                      for k in range(1, m + 1) if k % groups == g)
                for sig in sigs]
        counts = Counter(keys)
        kept |= {s for s, key in zip(members, keys) if counts[key] > 1}
    return [s for s in members if s in kept]


def test_oracle_signs_each_class_once(monkeypatch):
    # the first call signs the lower classes of every member, the second
    # the upper classes of the members the first stage kept, and no
    # member has a class signed twice
    calls = _counting_signatures(monkeypatch)
    cases = [(CodebookSpec("SR", 16), "sym_pair_delete", 2, 3),
             (CodebookSpec("SDSprime", 16, t=2, a=0), "consecutive_sym_pair_delete", 2, 3),
             (CodebookSpec("SR", 11), "asym_delete", 3, 4),
             (CodebookSpec("SR", 7), "asym_delete", 1, 2)]
    for spec, model, t, groups in cases:
        calls.clear()
        verify_code_property(spec, model, t)
        members, n, m = list(enumerate_codebook(spec)), spec.n, (spec.n + 1) // 2
        survivors = _lower_group_sharers(members, n, groups)
        assert calls[0] == (members, range(1, m + 1)), spec
        if len(survivors) < 2:
            assert len(calls) == 1, spec
            continue
        assert calls[1:] == [(survivors, range(m + 1, n + 1))], spec
        assert 2 < len(survivors) < len(members), spec
    # count_classes signs the upper classes of the strings whose lower
    # classes another string shares, each once
    for n in (8, 13, 14):
        calls.clear()
        count_classes(n)
        strings = oracle._class_candidates(n)
        m = (n + 1) // 2
        lower = {s: signature_of(s)[:m * (m + 3) // 2] for s in strings}
        counts = Counter(lower.values())
        assert calls[0] == (strings, range(1, m + 1)), n
        (shared, upper), = calls[1:]
        assert upper == range(m + 1, n + 1), n
        assert sorted(shared) == sorted(s for s in strings
                                        if counts[lower[s]] > 1), n


def test_verification_cap():
    with pytest.raises(ResourceCapError):
        verify_code_property(CodebookSpec("SR", 18), "asym_delete", 1)


def _pairwise_first_witness(spec, model, t):
    """Slow reference: patterns in scan order, then every pair of members
    in lexicographic order, each rechecked class by class."""
    members = sorted(enumerate_codebook(spec))
    for pattern in deletion_patterns(model, t, spec.n):
        for s, v in itertools.combinations(members, 2):
            w = ConfusabilityWitness(s, v, frozenset(pattern))
            if w.verify():
                return w
    return None


def test_collision_scan_matches_pairwise_reference(monkeypatch):
    # memoise signatures so the pairwise reference stays affordable;
    # verify() itself still compares the two strings class by class
    monkeypatch.setattr(oracle, "signature_of",
                        functools.lru_cache(maxsize=None)(oracle.signature_of))
    specs = ([CodebookSpec("SR", n) for n in range(4, 11)]
             + [CodebookSpec("SDS2", n, a=a) for n in (8, 9, 10) for a in (0, 3)]
             + [CodebookSpec("SDSprime", n, t=2, a=a)
                for n in (8, 9, 10) for a in (0, 2)])
    cases = [(spec, model, t) for spec in specs
             for model in oracle.PROPERTY_MODELS for t in (1, 2)]
    # here the first colliding member in scan order is not in the
    # lexicographically smallest colliding pair
    cases.append((CodebookSpec("SDSprime", 10, t=2), "sym_pair_delete", 3))
    # the first witness {3, 4} lies under one pair, inside two of the
    # two-pair patterns that follow it in scan order
    cases.append((CodebookSpec("SR", 6), "sym_pair_delete", 2))
    # t = 3: most patterns sit inside a larger one; the lone odd centre
    # of asym_delete sits inside none
    cases += [(CodebookSpec("SDSprime", n, t=t), "consecutive_sym_pair_delete", 3)
              for n in (10, 12) for t in (2, 3)]
    cases += [(CodebookSpec("SR", n), "asym_delete", 3) for n in range(4, 10)]
    # four groups of classes over three to five pair indices: at n = 6
    # one group is empty and every member is kept
    cases += [(CodebookSpec("SR", n), "sym_pair_delete", 3) for n in (6, 8, 9)]
    outcomes = set()
    for spec, model, t in cases:
        got = verify_code_property(spec, model, t)
        assert got == _pairwise_first_witness(spec, model, t), (spec, model, t)
        outcomes.add(got is None)
    assert outcomes == {True, False}  # both witnesses and clean sweeps


def _counting_kept_mask(monkeypatch):
    calls = []
    real_mask = kernel.kept_mask

    def counting_mask(n, drop):
        calls.append(frozenset(drop))
        return real_mask(n, drop)

    monkeypatch.setattr(kernel, "kept_mask", counting_mask)
    return calls


def _drawn_patterns(monkeypatch):
    """Record each deletion pattern as the scan draws it."""
    drawn = []
    real_patterns = oracle.deletion_patterns

    def drawing(model, t, n):
        for pattern in real_patterns(model, t, n):
            drawn.append(pattern)
            yield pattern

    monkeypatch.setattr(oracle, "deletion_patterns", drawing)
    return drawn


# the classes each group mask keeps at n = 16 under two pairs: pair
# index i = min(k, 17 - k) is 0, 1 and 2 modulo 3
_GROUPS_16 = [{3, 6, 11, 14}, {1, 4, 7, 10, 13, 16}, {2, 5, 8, 9, 12, 15}]


def test_collision_scan_draws_patterns_in_scan_order(monkeypatch):
    # the three group masks are made once, for both stages of the
    # filter and the buckets, and no deletion pattern is masked.  With no
    # candidate pair, as in this clean sweep, no pattern is drawn
    calls = _counting_kept_mask(monkeypatch)
    drawn = _drawn_patterns(monkeypatch)
    spec = CodebookSpec("SDSprime", 16, t=2, a=0)
    assert verify_code_property(spec, "consecutive_sym_pair_delete", 2) is None
    assert [set(range(1, 17)) - p for p in calls] == _GROUPS_16
    assert drawn == []
    # with a witness, the patterns are drawn in scan order up to the first
    # that contains a candidate pair's differing classes
    calls.clear()
    w = find_confusable_pair(16, "sym_pair_delete", 2)
    assert w.deleted_classes == frozenset({7, 8, 9, 10})
    assert [set(range(1, 17)) - p for p in calls] == _GROUPS_16
    patterns = list(deletion_patterns("sym_pair_delete", 2, 16))
    assert drawn == patterns[:patterns.index(w.deleted_classes) + 1]
    assert len(drawn) == 37


def test_collision_scan_stops_at_the_first_colliding_pattern(monkeypatch):
    # the two group masks (pair index even, odd), then the patterns drawn
    # in order up to the witness, the last of the universe
    calls = _counting_kept_mask(monkeypatch)
    drawn = _drawn_patterns(monkeypatch)
    w = verify_code_property(CodebookSpec("SR", 6), "sym_pair_delete", 1)
    assert w.deleted_classes == frozenset({3, 4})
    assert calls == [frozenset({1, 3, 4, 6}), frozenset({2, 5})]
    assert drawn == [frozenset(), frozenset({1, 6}), frozenset({2, 5}),
                     frozenset({3, 4})]
    # under two pairs, two patterns that contain {3, 4} follow it, and
    # the scan draws neither: three group masks, one pair index each
    calls.clear()
    drawn.clear()
    w = verify_code_property(CodebookSpec("SR", 6), "sym_pair_delete", 2)
    assert w.deleted_classes == frozenset({3, 4})
    assert calls == [frozenset({1, 2, 5, 6}), frozenset({2, 3, 4, 5}),
                     frozenset({1, 3, 4, 6})]
    assert drawn == [frozenset(), frozenset({1, 6}), frozenset({2, 5}),
                     frozenset({3, 4})]


def test_collision_scan_checks_patterns_no_largest_one_contains():
    # the two strings differ only in the centre class of n = 5, which
    # asym_delete deletes only alone: no two-class pattern contains it
    w = oracle._collision_scan(["00010", "00100"], 5, 2,
                               deletion_patterns("asym_delete", 2, 5))
    assert w == ConfusabilityWitness("00010", "00100", frozenset({3}))


def test_no_pattern_touches_more_pair_indices_than_t():
    # the filter makes its t + 1 groups from t alone, so every pattern
    # must miss one of them; only short universes touch fewer than t
    fewer = []
    for model in oracle.PROPERTY_MODELS:
        for t in range(1, 5):
            for n in range(3, 19):
                touched = max(len({min(k, n + 1 - k) for k in p})
                              for p in deletion_patterns(model, t, n))
                assert touched <= t, (model, t, n)
                if touched < t:
                    fewer.append(n)
    assert len(fewer) == 33 and max(fewer) == 7


def _joined_key_first_witness(spec, model, t):
    """Reference scan: bucket members by the joined bytes of their kept
    classes, keeping the smallest colliding pair of the first pattern."""
    members = enumerate_codebook(spec)
    sigs = [signature_of(s) for s in members]
    for pattern in deletion_patterns(model, t, spec.n):
        ranges = kernel.kept_ranges(spec.n, pattern)
        buckets = {}
        pairs = []
        for s, sig in zip(members, sigs):
            key = b"".join(sig[lo:hi] for lo, hi in ranges)
            if key in buckets:
                pairs.append(tuple(sorted((buckets[key], s))))
            else:
                buckets[key] = s
        if pairs:
            return ConfusabilityWitness(*min(pairs), frozenset(pattern))
    return None


def test_collision_scan_matches_joined_key_scan():
    cases = [(CodebookSpec("SR", n), model, t)
             for n in (11, 12, 13) for model, t in (("sym_pair_delete", 2),
                                                    ("asym_delete", 1))]
    cases += [(CodebookSpec("SDSprime", 12, t=2, a=a), model, 2)
              for a in (0, 1, 2) for model in ("consecutive_sym_pair_delete",
                                                "asym_delete")]
    # t = 3: the first witness {7, 8, 9, 10} lies under a two-pair pattern
    # that three-pair ones contain, and {5, 6, 7} under three classes
    cases += [(CodebookSpec("SR", 16), "sym_pair_delete", 3),
              (CodebookSpec("SR", 14), "asym_delete", 3)]
    outcomes = set()
    for spec, model, t in cases:
        got = verify_code_property(spec, model, t)
        assert got == _joined_key_first_witness(spec, model, t), (spec, model, t)
        outcomes.add(got is None)
    assert outcomes == {True, False}  # first witnesses and clean sweeps


def _pattern_scan_first_witness(members, n, t, patterns):
    """The scan before pairs: whole signatures, the pigeonhole filter on
    each group, then every pattern masked in the order given until two
    kept members' masked signatures repeat."""
    sigs = list(map(int.from_bytes, kernel.signatures(
        bits_to_bytes("".join(members)), n), itertools.repeat("big")))
    kept = set()
    for mask in oracle._group_masks(n, t):
        counts = Counter(mask & sig for sig in sigs)
        kept |= {i for i, sig in enumerate(sigs) if counts[mask & sig] > 1}
    kept = sorted(kept)
    for pattern in patterns:
        mask = kernel.kept_mask(n, pattern)
        keys = [mask & sigs[i] for i in kept]
        counts = Counter(keys)
        if len(counts) < len(keys):
            first = next(r for r, key in enumerate(keys) if counts[key] > 1)
            second = keys.index(keys[first], first + 1)
            return ConfusabilityWitness(members[kept[first]],
                                        members[kept[second]],
                                        frozenset(pattern))
    return None


def test_pair_scan_matches_pattern_scan():
    cases = [(CodebookSpec("SR", n), model, t)
             for n in (12, 13) for model in oracle.PROPERTY_MODELS
             for t in (2, 3)]
    cases += [(CodebookSpec("SR", 16), "sym_pair_delete", t) for t in (2, 3)]
    cases += [(CodebookSpec("SR", n), "asym_delete", 3) for n in (14, 15)]
    cases += [(CodebookSpec("SDSprime", 14, t=2, a=a),
               "consecutive_sym_pair_delete", t) for a in (0, 3) for t in (2, 3)]
    cases += [(CodebookSpec("SDS2", 14, a=3), "sym_pair_delete", 2),
              (CodebookSpec("SDA", 14, t=2), "skew", 3)]
    # four groups over three pair indices: one group is empty, so every
    # member shares its bucket there and every pair is a candidate
    cases.append((CodebookSpec("SR", 6), "sym_pair_delete", 3))
    outcomes = set()
    for spec, model, t in cases:
        got = verify_code_property(spec, model, t)
        want = _pattern_scan_first_witness(
            enumerate_codebook(spec), spec.n, t,
            deletion_patterns(model, t, spec.n))
        assert got == want, (spec, model, t)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_pair_scan_takes_the_smallest_pair_a_pattern_confuses():
    # largest patterns first: the first that confuses any pair contains
    # several sets of differing classes, and the witness is the
    # lexicographically smallest pair among all of them
    several = 0
    for spec, model, t in [(CodebookSpec("SR", n), model, t)
                           for n in (9, 10, 12) for t in (2, 3)
                           for model in ("asym_delete", "sym_pair_delete")]:
        members, n = enumerate_codebook(spec), spec.n
        patterns = list(deletion_patterns(model, t, n))[::-1]
        got = oracle._collision_scan(members, n, t, iter(patterns))
        assert got == _pattern_scan_first_witness(members, n, t, patterns), (
            spec, model, t)
        several += 1 < len({d for s, v, d in oracle.colliding_pairs(
            spec, model, t) if d <= got.deleted_classes})
    assert several > 0


def _pairwise_differing_classes(members, n):
    """Reference: every pair of members with its differing classes, read
    class by class off ``signature_of``."""
    classes = {s: [kernel.class_counts(signature_of(s), n, k)
                   for k in range(1, n + 1)] for s in members}
    return [(s, v, frozenset(k for k, a, b in zip(range(1, n + 1),
                                                  classes[s], classes[v])
                             if a != b))
            for s, v in itertools.combinations(members, 2)]


def test_colliding_pairs_match_pairwise_reference():
    specs = ([CodebookSpec("SR", n) for n in range(4, 13)]
             + [CodebookSpec("SDS2", n) for n in (8, 11, 12)]
             + [CodebookSpec("SDSprime", n, t=2) for n in (8, 11, 12)]
             + [CodebookSpec("SDA", n, t=2) for n in (7, 11, 12)])
    seen = 0
    for spec in specs:
        pairs = _pairwise_differing_classes(enumerate_codebook(spec), spec.n)
        for model in oracle.PROPERTY_MODELS:
            for t in (1, 2, 3):
                patterns = list(deletion_patterns(model, t, spec.n))
                inside = functools.cache(
                    lambda d: any(d <= p for p in patterns))
                got = list(oracle.colliding_pairs(spec, model, t))
                assert len(got) == len(set(got)), (spec, model, t)
                assert set(got) == {p for p in pairs if inside(p[2])}, (
                    spec, model, t)
                assert all(s < v for s, v, _ in got)
                seen += len(got)
    assert seen > 0


def test_colliding_pairs_check_their_arguments_at_the_call():
    spec = CodebookSpec("SR", 18)
    with pytest.raises(ResourceCapError):
        oracle.colliding_pairs(spec, "asym_delete", 1)
    with pytest.raises(ValueError, match="t=0"):
        oracle.colliding_pairs(CodebookSpec("SR", 8), "asym_delete", 0)
    with pytest.raises(ValueError, match="unknown model"):
        oracle.colliding_pairs(CodebookSpec("SR", 8), "erase", 1)
    assert list(oracle.colliding_pairs(CodebookSpec("SCA1", 3), "skew", 2)) == []
