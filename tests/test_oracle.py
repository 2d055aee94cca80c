"""Brute-force oracle: class counts, property verification, witnesses."""

import functools
import itertools

import pytest

from compcodes import oracle
from compcodes.codebooks import CodebookSpec, enumerate_codebook
from compcodes.core import full_readout, sigma_of_string
from compcodes.errors import ResourceCapError
from compcodes.oracle import (
    ConfusabilityWitness,
    count_classes,
    deletion_patterns,
    equicomposable,
    find_confusable_pair,
    insertion_witness_readouts,
    max_code_bound,
    verify_code_property,
)
from conftest import EXAMPLE_S


def test_equicomposable_examples():
    assert equicomposable(EXAMPLE_S, EXAMPLE_S[::-1])
    assert equicomposable(EXAMPLE_S, EXAMPLE_S)
    assert not equicomposable("0011", "0101")
    with pytest.raises(ValueError):
        equicomposable("01", "011")


def test_reversal_always_equicomposable():
    for n in (5, 8):
        for x in range(2 ** n):
            s = format(x, f"0{n}b")
            assert equicomposable(s, s[::-1])


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


def test_count_classes_cap():
    with pytest.raises(ResourceCapError):
        count_classes(17)


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


def test_sds2_guarantee():
    for a in range(7):
        assert verify_code_property(
            CodebookSpec("SDS2", 10, a=a), "sym_pair_delete", 2) is None


def test_skew_property_uses_asymmetric_patterns():
    assert verify_code_property(CodebookSpec("SR", 10), "skew", 1) is None
    assert verify_code_property(CodebookSpec("SDA", 10, t=2), "skew", 2) is None


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
        assert left.class_size(k) > left.expected_size(k)
    for k in range(1, 13):
        if k not in w.deleted_classes:
            assert left.classes[k] == full_readout(w.s).classes[k]


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
    outcomes = set()
    for spec, model, t in cases:
        got = verify_code_property(spec, model, t)
        assert got == _pairwise_first_witness(spec, model, t), (spec, model, t)
        outcomes.add(got is None)
    assert outcomes == {True, False}  # both witnesses and clean sweeps
