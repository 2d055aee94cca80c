"""Readouts and pairwise weights: worked-example values and structural
invariants."""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcodes.channel import ErrorSpec, SplitMix64, apply, random_error
from compcodes.core import Readout, bits_to_bytes, full_readout
from compcodes.errors import (
    CompCodesError,
    InconsistentReadoutError,
    MissingClassError,
)
from compcodes.formats import emit_readout, parse_readout
from compcodes.reconstructor import _sigma_candidates, reconstruct
from conftest import EXAMPLE_S, EXAMPLE_SIGMA, EXAMPLE_WEIGHTS, sigma_of_string

bitstrings = st.text(alphabet="01", min_size=1, max_size=14)


def test_bits_to_bytes_matches_generator_form():
    # reference: one byte per character, 1 for '1' and 0 for anything else
    def reference(s):
        return bytes(c == "1" for c in s)

    strings = [format(x, f"0{n}b") for n in range(1, 11) for x in range(2 ** n)]
    strings += ["", "2", "01a1", " 1\t0\n", "1\x00\xff1", "\xb91",
                "1\u20ac0", "\U0001f6001", "1\ud8000", "".join(map(chr, range(256)))]
    for s in strings:
        assert bits_to_bytes(s) == reference(s), repr(s)


def test_length_class_worked_example():
    # class 7: 0^4 1^3, 0^3 1^4, 0^2 1^5 once each; class 3: 0^2 1 and
    # 0 1^2 three times each, 1^3 once
    r = full_readout(EXAMPLE_S)
    assert r.classes[7] == (0, 0, 0, 1, 1, 1, 0, 0)
    assert r.classes[3] == (0, 3, 3, 1)
    assert full_readout("01").classes[2] == (0, 1, 0)


def test_full_readout_matches_reference_listing(example_readout):
    assert full_readout(EXAMPLE_S) == example_readout
    assert example_readout.total_entries() == 45


def test_full_readout_trivial_cases():
    r = full_readout("01")
    assert r.classes == {1: (1, 1), 2: (0, 1, 0)}
    assert full_readout("110011010").total_entries() == 45


def test_readout_rejects_malformed_classes():
    Readout(2, {1: (1, 1), 2: (0, 1, 0)})
    for classes in ({3: (0, 1, 0, 0)},  # class beyond n
                    {0: (1,)},  # class below 1
                    {2: (0, 1)},  # vector of the wrong length
                    {1: (2, -1)},  # negative count
                    {1: [1, 1]},  # not a tuple
                    {1: (1.0, 1)},  # not an int
                    {1.0: (1, 1)},  # a float key
                    {True: (1, 1)},  # a bool key
                    {"1": (1, 1)}):  # a string key
        with pytest.raises(ValueError):
            Readout(2, classes)
    for key in (1.0, True, "1"):
        with pytest.raises(ValueError, match=f"class key {key!r} "):
            Readout(2, {key: (1, 1)})
    for n in (2.0, True, "2", None):  # n too must be an exact int
        with pytest.raises(ValueError, match="n must be an int"):
            Readout(n, {1: (1, 1)})


def test_readout_refuses_classes_that_are_not_a_dict():
    for classes in ([(1, 0)], None, ((1, (1, 1)),), "1", 3):
        with pytest.raises(ValueError, match="classes must be a dict"):
            Readout(3, classes)


def test_replace_on_a_library_readout_is_checked():
    # library builders skip the check, but a readout edited through the
    # dataclass API goes through Readout(...) like any other
    full = full_readout("001010111")
    for r in (full, full.restrict({2, 8}),
              apply(full, random_error("insert", 2, 3, 9))):
        assert replace(r, classes=dict(r.classes)) == r
        with pytest.raises(ValueError, match="non-negative ints"):
            replace(r, classes={1: (2, -1)})
        with pytest.raises(ValueError, match="n must be an int"):
            replace(r, n=True)


def _reference_readout_check(n, classes):
    # the per-class loop that validated every readout before the bulk
    # check, with the exact-int key rule
    if type(n) is not int or not 1 <= n <= 255:
        raise ValueError(f"n must be an int in [1, 255], got {n!r}")
    for k, counts in classes.items():
        if type(k) is not int:
            raise ValueError(f"class key {k!r} is not an int")
        if not 1 <= k <= n:
            raise ValueError(f"class {k} outside [1, {n}]")
        if (type(counts) is not tuple or len(counts) != k + 1
                or not set(map(type, counts)) <= {int} or min(counts) < 0):
            raise ValueError(f"class {k} needs a tuple of {k + 1} "
                             f"non-negative ints, got {counts!r}")


def _check_outcome(check, n, classes):
    try:
        check(n, classes)
    except Exception as exc:  # the type is part of the outcome
        return type(exc), str(exc)
    return None


def test_readout_bulk_check_matches_per_class_loop():
    rng = SplitMix64(61)
    bad_keys = (0, -1, 1.0, True, False, "1", None, (1,))
    bad_values = (-1, 1.5, True, "1", None, 2 ** 70)
    rejected = 0
    for trial in range(600):
        n = rng.below(12) + 1
        s = format(rng.below(2 ** n), f"0{n}b")
        full = full_readout(s).classes
        classes = dict(full)
        for _ in range(rng.below(3)):
            classes.pop(rng.below(n) + 1, None)
        for _ in range(rng.below(3)):
            k = rng.below(n) + 1
            what = rng.below(6)
            counts = classes.pop(k, full[k])
            counts = list(counts if type(counts) is tuple else full[k])
            if what == 0:
                classes[rng.choice(bad_keys + (n + 1, n + 5))] = tuple(counts)
            elif what == 1:
                counts[rng.below(len(counts))] = rng.choice(bad_values)
                classes[k] = tuple(counts)
            elif what == 2:
                classes[k] = tuple(counts[:-1]) if rng.below(2) else \
                    tuple(counts + [0])
            elif what == 3:
                classes[k] = rng.choice((counts, None, 3, b"\x00" * (k + 1)))
            else:  # a valid change: skewed counts or an oversized class
                counts[rng.below(len(counts))] += rng.below(3)
                classes[k] = tuple(counts)
        m = rng.choice((n, n, n, n, 0, 256, float(n), True, str(n)))
        expected = _check_outcome(_reference_readout_check, m, classes)
        assert _check_outcome(Readout, m, classes) == expected, (m, classes)
        rejected += expected is not None
    assert 200 < rejected < 550


def _losers_brute_force_loop(r):
    # the symmetry check brute_force_decode made before outweighed_classes
    n = r.n
    dropped = {k for k in range(1, n + 1) if r.class_size(k) != n - k + 1}
    losers = set()
    for k in range(1, n + 1):
        partner = n - k + 1
        if k in dropped or partner in dropped or partner == k:
            continue
        if k in r.classes and partner in r.classes \
                and r.weight(k) < r.weight(partner):
            dropped.add(k)
            losers.add(k)
    return losers


def _losers_full_readout_loop(r):
    # decode_skewed's flags and cli auto mode's test, on full readouts
    n = r.n
    weights = [r.weight(k) for k in range(1, n + 1)]
    flagged = {k for k in range(1, n + 1) if weights[k - 1] < weights[n - k]}
    skewed = any(weights[k - 1] != weights[n - k] for k in range(1, n + 1))
    return flagged, skewed


def test_outweighed_classes_matches_the_loops_it_replaces():
    models = (("asym_delete", 2), ("sym_pair_delete", 2), ("insert", 3),
              ("skew", 2), ("skew", 3))
    for n in (8, 9):
        for x in range(1, 2 ** n, 7):  # 0 (no ones) admits no skew
            r = full_readout(format(x, f"0{n}b"))
            for model, count in models:
                for seed in range(3):
                    bad = apply(r, random_error(model, count, seed, n))
                    losers = set(bad.outweighed_classes())
                    assert losers == _losers_brute_force_loop(bad)
                    if bad.is_full():
                        flagged, skewed = _losers_full_readout_loop(bad)
                        assert losers == flagged
                        assert bool(losers) == skewed
                    # a second error on top, as brute_force_decode may see
                    worse = apply(bad, random_error("insert", 1, seed, n))
                    assert set(worse.outweighed_classes()) == \
                        _losers_brute_force_loop(worse)


def _size_anomalies(r):
    """Missing, undersized and oversized classes, from class_size alone."""
    n = r.n
    return (tuple(k for k in range(1, n + 1) if k not in r.classes),
            tuple(k for k in sorted(r.classes) if r.class_size(k) < n - k + 1),
            tuple(k for k in sorted(r.classes) if r.class_size(k) > n - k + 1))


def test_untrusted_classes_worked_example(example_readout):
    classes = dict(example_readout.restrict({2}).classes)  # 2 missing
    classes[4] = (0, 1, 3, 1, 0)     # undersized: one (1,3) entry lost
    classes[5] = (0, 0, 2, 2, 2, 0)  # oversized: an extra (1,4) entry
    classes[7] = (0, 0, 0, 1, 2, 0, 0, 0)  # skewed: w_7 = 11 < w_3 = 12
    r = Readout(9, classes)
    assert _size_anomalies(r) == ((2,), (4,), (5,))
    assert r.outweighed_classes() == (7,)
    assert r.untrusted_classes() == (2, 4, 5, 7)
    assert example_readout.untrusted_classes() == ()


def _untrusted_reference(r):
    n = r.n
    sizes = {k: sum(v) for k, v in r.classes.items()}
    weights = {k: sum(w * c for w, c in enumerate(v))
               for k, v in r.classes.items()}
    trusted = {k for k in r.classes if sizes[k] == n - k + 1}
    outweighed = {k for k in trusted if n - k + 1 != k and n - k + 1 in trusted
                  and weights[k] < weights[n - k + 1]}
    return tuple(sorted(set(range(1, n + 1)) - trusted | outweighed))


def _undersize_one(r, rng):
    # no channel model loses a single entry; drop one by hand
    classes = dict(r.classes)
    k = rng.choice(sorted(classes))
    counts = list(classes[k])
    counts[rng.choice([w for w, c in enumerate(counts) if c])] -= 1
    classes[k] = tuple(counts)
    return Readout(r.n, classes)


def _check_against_inline_sums(r):
    for _ in range(2):  # the second round reads the cached answers
        for k in range(1, r.n + 1):
            assert r.class_size(k) == sum(r.classes.get(k, ()))
            if k in r.classes:
                assert r.weight(k) == sum(w * c for w, c in
                                          enumerate(r.classes[k]))
        assert r.untrusted_classes() == _untrusted_reference(r)


def test_readout_caches_agree_with_inline_sums():
    rng = SplitMix64(6)
    seen = set()
    for n in (9, 12):
        for x in range(1, 2 ** n, 37):
            r = full_readout(format(x, f"0{n}b"))
            for model in ("asym_delete", "insert", "skew"):
                bad = apply(r, random_error(model, 2, rng.next_u64(), n))
                if rng.below(2):
                    bad = _undersize_one(bad, rng)
                _check_against_inline_sums(bad)
                seen.update(name for name, ks in zip(
                    ("missing", "undersized", "oversized", "outweighed"),
                    (*_size_anomalies(bad), bad.outweighed_classes())) if ks)
                # a restricted copy carries its own answers, not its parent's
                kept = sorted(set(bad.classes) - set(bad.untrusted_classes()))
                if kept:
                    k = rng.choice(kept)
                    child = bad.restrict({k})
                    _check_against_inline_sums(child)
                    assert child.class_size(k) == 0
                    assert k in child.untrusted_classes()
                    with pytest.raises(MissingClassError):
                        child.weight(k)
                    assert bad.class_size(k) == n - k + 1
                    assert k not in bad.untrusted_classes()
    assert seen == {"missing", "undersized", "oversized", "outweighed"}


def test_cumulative_weight_worked_example(example_readout):
    assert example_readout.weight(7) == 12
    assert example_readout.weight(2) == 9
    assert example_readout.weight(3) == 12
    assert tuple(map(example_readout.weight, range(1, 10))) == (
        5, 9, 12, 13, 14, 13, 12, 9, 5)


def test_weight_is_the_weighted_count_sum_on_any_class_size():
    # the suffix-sum form must hold whatever a class holds: counts above
    # 255 (class 1 at n = 255 after insertions), oversized, undersized and
    # empty classes, built by the channel, directly and from the wire
    n = 255
    rng = SplitMix64(31)
    inserted = apply(full_readout("0" * n), ErrorSpec(
        "insert", targets=[[1, [1, 0]], [1, [0, 1]], [1, [0, 1]]]))
    assert inserted.classes[1] == (256, 2)
    classes = dict(inserted.classes)
    classes[2] = (0, 0, 0)                               # empty
    classes[3] = (150, 0, 2, 0)                          # undersized
    classes[4] = (70_000, 1, 0, 0, 3)                    # oversized
    for k in (17, 128, 254):
        classes[k] = tuple(rng.below(400) * rng.below(2) for _ in range(k + 1))
    built = Readout(n, classes)
    wire = parse_readout(emit_readout(built))
    assert wire.classes == built.classes
    for r in (inserted, built, wire):
        for k, counts in r.classes.items():
            assert r.weight(k) == sum(w * c for w, c in enumerate(counts)), k
    assert [built.weight(k) for k in (1, 2, 3, 4)] == [2, 0, 4, 13]
    r = parse_readout('{"n":3,"counts":{"1":{"0":300,"1":256},"2":{},'
                      '"3":{"3":1}}}')
    assert [r.weight(k) for k in (1, 2, 3)] == [256, 0, 3]


def test_cumulative_weight_missing_class(example_readout):
    with pytest.raises(MissingClassError):
        example_readout.restrict({4}).weight(4)


def test_sigma_of_string_examples():
    assert sigma_of_string(EXAMPLE_S) == EXAMPLE_SIGMA
    assert sigma_of_string("01") == (1,)
    assert sigma_of_string("0011") == (1, 1)


def _first_half(weights):
    # the known-weight map of every class k <= ceil(n/2)
    return dict(enumerate(weights[:(len(weights) + 1) // 2], 1))


def test_sigma_candidates_examples():
    # every first-half weight known pins exactly one sigma
    assert _sigma_candidates(9, _first_half(EXAMPLE_WEIGHTS)) == [EXAMPLE_SIGMA]
    assert _sigma_candidates(2, {1: 1}) == [(1,)]


def test_reconstruct_detects_tampering(example_readout):
    # a skew on class 7 moves one window from weight 5 to weight 4, which
    # lowers w_7 by one unit and breaks w_3 = w_7
    assert example_readout.classes[7] == (0, 0, 0, 1, 1, 1, 0, 0)
    skewed = replace(example_readout, classes={
        **example_readout.classes, 7: (0, 0, 0, 1, 2, 0, 0, 0)})
    assert skewed.is_full()
    with pytest.raises(InconsistentReadoutError,
                       match=r"^w_7=11 != w_3=12 violates symmetry$"):
        reconstruct(skewed)


def test_sigma_candidates_detect_out_of_range():
    # impossible first-half weights: sigma_1 = 2*w_1 - w_2 escapes {0,1,2}
    assert _sigma_candidates(9, _first_half((5, 2, 12, 13, 14))) == []


def _sigma_from_weights_reference(w, n):
    # the quadratic form: each sigma_{k-1} from the full sum over j < k-1
    m = (n + 1) // 2
    for k in range(m, len(w)):
        if w[k] != w[n - (k + 1)]:
            raise InconsistentReadoutError(
                f"w_{k + 1}={w[k]} != w_{n - k}={w[n - (k + 1)]} "
                "violates symmetry")
    sigma = []
    for k in range(2, m + 1):
        val = k * w[0] - w[k - 1] - sum((k - j) * sigma[j - 1]
                                        for j in range(1, k - 1))
        if val not in (0, 1, 2):
            raise InconsistentReadoutError(
                f"sigma_{k - 1} = {val} outside its range; "
                "weights are inconsistent")
        sigma.append(val)
    last = w[0] - sum(sigma)
    if not 0 <= last <= (1 if n % 2 else 2):
        raise InconsistentReadoutError(
            f"sigma_{m} = {last} outside its range; weights are inconsistent")
    return tuple(sigma + [last])


def _inconsistency(f, *args):
    # the text of the InconsistentReadoutError f raises, else None
    try:
        f(*args)
    except InconsistentReadoutError as exc:
        return str(exc)
    except CompCodesError:  # a consistent readout no string matches
        pass
    return None


def test_reconstruct_refuses_where_quadratic_reference_does():
    # clean and tampered full readouts: a tampered one has a window of
    # class k, and half the time one of its partner n-k+1 too, moved by
    # the same step.  reconstruct finds the readout inconsistent exactly
    # when the reference finds its weights so, and names an unequal
    # partner pair in the reference's words
    rng = SplitMix64(33)
    kinds = Counter()
    for _ in range(400):
        n = rng.below(40) + 1
        s = format(rng.below(2 ** n), f"0{n}b")
        classes = dict(full_readout(s).classes)
        if rng.below(2):
            k, step = rng.below(n) + 1, rng.choice((-2, -1, 1, 2))
            for c in {k, n - k + 1} if rng.below(2) else {k}:
                counts = list(classes[c])
                w = rng.choice([w for w, count in enumerate(counts) if count])
                counts[w] -= 1
                counts[min(c, max(0, w + step))] += 1
                classes[c] = tuple(counts)
        r = Readout(n, classes)
        w = [r.weight(k) for k in range(1, n + 1)]
        expected = _inconsistency(_sigma_from_weights_reference, w, n)
        got = _inconsistency(reconstruct, r)
        if expected is None or "symmetry" in expected:
            assert got == expected, (n, classes)
        else:
            assert got is not None and "symmetry" not in got, (n, classes)
        kinds[None if expected is None else "symmetry" in expected] += 1
    # consistent weights, an unequal pair and a sigma out of range each
    # come up often
    assert len(kinds) == 3 and min(kinds.values()) > 50, kinds


def exhaustive_strings(lengths):
    for n in lengths:
        for x in range(2 ** n):
            yield format(x, f"0{n}b")


def test_weight_symmetry_exhaustive():
    # w_k = w_{n-k+1} for every string up to length 10
    for s in exhaustive_strings(range(1, 11)):
        r = full_readout(s)
        for k in range(1, len(s) + 1):
            assert r.weight(k) == r.weight(len(s) - k + 1)


def test_weight_sigma_relation_exhaustive():
    # w_k = sum_{i<=k} i*sigma_i + k * sum_{i>k} sigma_i for k <= ceil(n/2)
    for s in exhaustive_strings(range(1, 11)):
        n = len(s)
        sigma = sigma_of_string(s)
        r = full_readout(s)
        m = (n + 1) // 2
        for k in range(1, m + 1):
            expect = (sum(i * sigma[i - 1] for i in range(1, k + 1))
                      + k * sum(sigma[i - 1] for i in range(k + 1, m + 1)))
            assert r.weight(k) == expect


@settings(max_examples=200)
@given(bitstrings)
def test_sigma_roundtrip(s):
    r = full_readout(s)
    weights = [r.weight(k) for k in range(1, len(s) + 1)]
    assert _sigma_candidates(len(s), _first_half(weights)) == \
        [sigma_of_string(s)]


@settings(max_examples=200)
@given(bitstrings)
def test_total_entry_count(s):
    n = len(s)
    assert full_readout(s).total_entries() == n * (n + 1) // 2


@settings(max_examples=200)
@given(bitstrings)
def test_readout_invariants(s):
    r = full_readout(s)
    assert r.is_full()
    missing, _, oversized = _size_anomalies(r)
    assert not missing
    assert not oversized
