"""Composition algebra: worked-example values and structural invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compcodes.channel import apply, random_error
from compcodes.core import (
    Composition,
    PolyTerm,
    Readout,
    bivariate_poly,
    complement,
    composition_of,
    full_readout,
    sigma_from_weights,
    sigma_of_string,
)
from compcodes.errors import (
    InconsistentReadoutError,
    InvalidComplementError,
    MissingClassError,
)
from conftest import EXAMPLE_S, EXAMPLE_SIGMA, EXAMPLE_WEIGHTS

bitstrings = st.text(alphabet="01", min_size=1, max_size=14)


def test_composition_of_worked_example():
    assert composition_of(EXAMPLE_S, 1, 7) == Composition(4, 3)
    assert composition_of(EXAMPLE_S, 5, 5) == Composition(0, 1)
    assert composition_of(EXAMPLE_S, 1, 9) == Composition(4, 5)


def test_composition_of_rejects_bad_range():
    for i, j in ((0, 3), (3, 2), (1, 10)):
        with pytest.raises(ValueError):
            composition_of(EXAMPLE_S, i, j)


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
                    {1: (1.0, 1)}):  # not an int
        with pytest.raises(ValueError):
            Readout(2, classes)


def _losers_brute_force_loop(r):
    # the symmetry check brute_force_decode made before outweighed_classes
    n = r.n
    dropped = (set(r.missing_classes()) | set(r.undersized_classes())
               | set(r.oversized_classes()))
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


def test_untrusted_classes_worked_example(example_readout):
    classes = dict(example_readout.restrict({2}).classes)  # 2 missing
    classes[4] = (0, 1, 3, 1, 0)     # undersized: one (1,3) entry lost
    classes[5] = (0, 0, 2, 2, 2, 0)  # oversized: an extra (1,4) entry
    classes[7] = (0, 0, 0, 1, 2, 0, 0, 0)  # skewed: w_7 = 11 < w_3 = 12
    r = Readout(9, classes)
    assert r.missing_classes() == (2,)
    assert r.undersized_classes() == (4,)
    assert r.oversized_classes() == (5,)
    assert r.outweighed_classes() == (7,)
    assert r.untrusted_classes() == (2, 4, 5, 7)
    assert example_readout.untrusted_classes() == ()


def test_cumulative_weight_worked_example(example_readout):
    assert example_readout.weight(7) == 12
    assert example_readout.weight(2) == 9
    assert example_readout.weight(3) == 12


def test_cumulative_weight_missing_class(example_readout):
    with pytest.raises(MissingClassError):
        example_readout.restrict({4}).weight(4)


def test_sigma_of_string_examples():
    assert sigma_of_string(EXAMPLE_S) == EXAMPLE_SIGMA
    assert sigma_of_string("01") == (1,)
    assert sigma_of_string("0011") == (1, 1)


def test_sigma_from_weights_examples():
    assert sigma_from_weights(EXAMPLE_WEIGHTS, 9) == EXAMPLE_SIGMA
    assert sigma_from_weights((1, 1), 2) == (1,)


def test_sigma_from_weights_detects_tampering():
    # lowering w_7 by one unit (a skew on class 7) breaks w_3 = w_7
    tampered = list(EXAMPLE_WEIGHTS)
    tampered[6] = 11
    with pytest.raises(InconsistentReadoutError):
        sigma_from_weights(tampered, 9)


def test_sigma_from_weights_detects_out_of_range():
    # impossible first-half weights: sigma_1 = 2*w_1 - w_2 escapes {0,1,2}
    with pytest.raises(InconsistentReadoutError):
        sigma_from_weights((5, 2, 12, 13, 14), 9)


def test_complement_worked_example():
    whole = Composition(4, 5)
    assert complement(whole, Composition(4, 3)) == Composition(0, 2)
    assert complement(whole, Composition(2, 5)) == Composition(2, 0)
    with pytest.raises(InvalidComplementError):
        complement(whole, whole)
    with pytest.raises(InvalidComplementError):
        complement(Composition(1, 1), Composition(0, 2))


def test_bivariate_poly_worked_example():
    # 1 + y + y^2 + xy^2 + xy^3 + x^2y^3 + x^2y^4 + x^3y^4 + x^4y^4 + x^5y^4
    expected = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3),
                (2, 3), (2, 4), (3, 4), (4, 4), (5, 4)]
    assert bivariate_poly(EXAMPLE_S) == tuple(PolyTerm(*t) for t in expected)
    assert bivariate_poly("1") == (PolyTerm(0, 0), PolyTerm(1, 0))
    assert bivariate_poly("0") == (PolyTerm(0, 0), PolyTerm(0, 1))


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
    assert sigma_from_weights(weights, len(s)) == sigma_of_string(s)


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
    assert not r.missing_classes()
    assert not r.oversized_classes()
