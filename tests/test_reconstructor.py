"""Decoders: worked example, exhaustive small-size round trips, agreement
with the brute-force reference, and honest ambiguity."""

import itertools

import pytest

from compcodes.channel import ErrorSpec, SplitMix64, apply, random_error, resolve
from compcodes.codebooks import CodebookSpec, enumerate_codebook
from compcodes.core import Composition, full_readout
from compcodes.errors import CapabilityError, CompCodesError, UndecodableError
from compcodes.oracle import find_confusable_pair
from compcodes.reconstructor import (
    brute_force_decode,
    decode_deletions,
    decode_insertions,
    decode_skewed,
    reconstruct,
)
from conftest import EXAMPLE_S

SR9 = CodebookSpec("SR", 9)


def test_reconstruct_worked_example(example_readout):
    assert reconstruct(example_readout, SR9).result == EXAMPLE_S


def test_reconstruct_trivial():
    assert reconstruct(full_readout("01")).result == "01"


def test_reconstruct_returns_member_orientation_for_reversals():
    rng = SplitMix64(2024)
    members = enumerate_codebook(CodebookSpec("SR", 10))
    for _ in range(50):
        s = members[rng.below(len(members))]
        rev = s[::-1]
        assert full_readout(rev) == full_readout(s)  # independent check
        assert reconstruct(full_readout(rev), CodebookSpec("SR", 10)).result == s


def test_reconstruct_prefers_leading_zero():
    for n in (2, 3, 4, 5, 6, 7):
        for x in range(2 ** n):
            s = format(x, f"0{n}b")
            got = reconstruct(full_readout(s)).result
            assert got in (s, s[::-1])
            if s[0] != s[-1]:
                assert got[0] == "0"


def test_reconstruct_rejects_corrupted_input(example_readout):
    with pytest.raises(CapabilityError):
        reconstruct(example_readout.restrict({3}), SR9)


def test_decode_single_deletion_worked_example(example_readout):
    rep = decode_deletions(example_readout.restrict({3}), SR9)
    assert rep.result == EXAMPLE_S
    assert rep.dropped_classes == (3,)


def test_decode_symmetric_pair_worked_example(example_readout):
    rep = decode_deletions(example_readout.restrict({3, 7}), SR9)
    assert rep.result == EXAMPLE_S
    assert rep.dropped_classes == (3, 7)


def test_decode_center_deletion(example_readout):
    assert decode_deletions(example_readout.restrict({5}), SR9).result == EXAMPLE_S


def test_decode_center_plus_one_deletion_sda():
    # a center skew cannot be flagged by weight comparison, so the skew
    # decoder sheds the center next to a detected class; the induced
    # two-class drop must decode (verified unique by the oracle)
    spec = CodebookSpec("SDA", 11, t=2)
    for s in enumerate_codebook(spec)[:12]:
        r = full_readout(s)
        for k in (1, 4, 9, 11):
            rep = decode_deletions(r.restrict({k, 6}), spec)
            assert rep.result == s


def test_double_skew_with_center_hit():
    spec = CodebookSpec("SDA", 11, t=2)
    members = enumerate_codebook(spec)
    rng = SplitMix64(31337)
    hits = 0
    for _ in range(300):
        s = members[rng.below(len(members))]
        r = full_readout(s)
        err = resolve(r, random_error("skew", 2, rng.next_u64(), 11))
        if any(k == 6 for k, _, _ in err.targets):
            hits += 1
        assert decode_skewed(apply(r, err), spec).result == s
    assert hits > 0  # the draw does exercise the center class


def test_single_deletion_roundtrip_exhaustive():
    # every member, every single deleted class, including the odd center
    for n in (8, 9, 10):
        spec = CodebookSpec("SR", n)
        for s in enumerate_codebook(spec):
            r = full_readout(s)
            for k in range(1, n + 1):
                rep = decode_deletions(r.restrict({k}), spec)
                assert rep.result == s, (s, k)


def test_symmetric_pair_roundtrip_exhaustive():
    # guaranteed for n >= 7; length 6 admits a genuine counterexample
    # (001101 vs 010011 under the central pair), so it is excluded here
    for n in (7, 8, 9, 10):
        spec = CodebookSpec("SR", n)
        for s in enumerate_codebook(spec):
            r = full_readout(s)
            for i in range(1, n // 2 + 1):
                drop = {i, n - i + 1}
                rep = decode_deletions(r.restrict(drop), spec)
                assert rep.result == s, (s, drop)


def test_sda_two_deletions_roundtrip_and_agreement():
    spec = CodebookSpec("SDA", 12, t=2)
    members = enumerate_codebook(spec)
    patterns = [set(c) for c in itertools.combinations(range(1, 13), 2)
                if c[0] + c[1] != 13]
    rng = SplitMix64(5)
    for s in (members[rng.below(len(members))] for _ in range(25)):
        r = full_readout(s)
        for drop in patterns:
            rep = decode_deletions(r.restrict(drop), spec)
            assert rep.result == s
            assert rep.max_backtrack_span <= 3  # detected within t+1 steps
            bf = brute_force_decode(r.restrict(drop), spec)
            assert bf.consistent_set == (s,)


def test_sds2_two_pair_roundtrip_sampled():
    rng = SplitMix64(11)
    for a in range(7):
        spec = CodebookSpec("SDS2", 12, a=a)
        members = enumerate_codebook(spec)
        for _ in range(4):
            s = members[rng.below(len(members))]
            r = full_readout(s)
            for pair in itertools.combinations(range(1, 7), 2):
                drop = {k for i in pair for k in (i, 13 - i)}
                assert decode_deletions(r.restrict(drop), spec).result == s


def test_sdsprime_consecutive_pairs_roundtrip():
    for a in range(5):
        spec = CodebookSpec("SDSprime", 12, t=2, a=a)
        for s in enumerate_codebook(spec)[:6]:
            r = full_readout(s)
            for i in range(1, 6):
                drop = {i, 13 - i, i + 1, 12 - i}
                assert decode_deletions(r.restrict(drop), spec).result == s


def test_sdsprime_nonconsecutive_needs_experimental_flag():
    spec = CodebookSpec("SDSprime", 12, t=2, a=0)
    s = enumerate_codebook(spec)[0]
    r = full_readout(s).restrict({1, 12, 4, 9})  # pairs 1 and 4
    with pytest.raises(CapabilityError):
        decode_deletions(r, spec)
    rep = decode_deletions(r, spec, experimental_nonconsecutive=True)
    assert rep.result == s


def test_insertion_worked_example(example_readout):
    corrupted = apply(example_readout,
                      ErrorSpec("insert", targets=((7, Composition(1, 6)),)))
    rep = decode_insertions(corrupted, SR9)
    assert rep.result == EXAMPLE_S
    assert rep.dropped_classes == (7,)


def test_insertion_without_corruption_reduces_to_reconstruct(example_readout):
    assert decode_insertions(example_readout, SR9).result == EXAMPLE_S


def test_insertion_equals_deletion_on_induced_pattern():
    spec = CodebookSpec("SR", 10)
    members = enumerate_codebook(spec)
    rng = SplitMix64(99)
    for _ in range(100):
        s = members[rng.below(len(members))]
        r = full_readout(s)
        k = rng.below(10) + 1
        extra = rng.below(3) + 1
        targets = []
        for _ in range(extra):
            w = rng.below(k + 1)
            targets.append((k, Composition(k - w, w)))
        corrupted = apply(r, ErrorSpec("insert", targets=tuple(targets)))
        rep_ins = decode_insertions(corrupted, spec)
        rep_del = decode_deletions(r.restrict({k}), spec)
        assert rep_ins.result == rep_del.result == s


def test_multi_insertion_two_classes_sda():
    spec = CodebookSpec("SDA", 12, t=2)
    members = enumerate_codebook(spec)
    rng = SplitMix64(123)
    for _ in range(40):
        s = members[rng.below(len(members))]
        r = full_readout(s)
        k1 = rng.below(12) + 1
        k2 = ((k1 + rng.below(10)) % 12) + 1
        while k2 == k1 or k2 == 13 - k1:
            k2 = (k2 % 12) + 1
        targets = []
        for k in (k1, k2):
            for _ in range(3):
                w = rng.below(k + 1)
                targets.append((k, Composition(k - w, w)))
        corrupted = apply(r, ErrorSpec("insert", targets=tuple(targets)))
        rep = decode_insertions(corrupted, spec)
        assert rep.result == s
        assert set(rep.dropped_classes) == {k1, k2}


def test_skew_detection_and_decode(example_readout):
    err = ErrorSpec("skew", targets=((7, Composition(2, 5), Composition(3, 4)),))
    corrupted = apply(example_readout, err)
    assert corrupted.weight(7) == 11 < corrupted.weight(3)
    rep = decode_skewed(corrupted, SR9)
    assert rep.result == EXAMPLE_S
    assert rep.dropped_classes == (7,)


def test_skew_exhaustive_small():
    for n in (8, 9):
        spec = CodebookSpec("SR", n)
        for s in enumerate_codebook(spec):
            r = full_readout(s)
            for k in range(1, n + 1):
                for w1 in [w for w, m in enumerate(r.classes[k]) if m]:
                    for w2 in range(w1):
                        bad = apply(r, ErrorSpec("skew", targets=(
                            (k, Composition(k - w1, w1), Composition(k - w2, w2)),)))
                        assert decode_skewed(bad, spec).result == s


def test_double_skew_sda_seeded():
    spec = CodebookSpec("SDA", 12, t=2)
    members = enumerate_codebook(spec)
    rng = SplitMix64(77)
    for _ in range(100):
        s = members[rng.below(len(members))]
        r = full_readout(s)
        err = resolve(r, random_error("skew", 2, rng.next_u64(), 12))
        assert decode_skewed(apply(r, err), spec).result == s


def test_skew_beyond_capability():
    spec = CodebookSpec("SR", 10)
    s = enumerate_codebook(spec)[0]
    r = full_readout(s)
    err = resolve(r, random_error("skew", 2, 3, 10))
    with pytest.raises(CapabilityError):
        decode_skewed(apply(r, err), spec)


def test_mixed_pattern_is_rejected(example_readout):
    with pytest.raises(CapabilityError):
        decode_deletions(example_readout.restrict({3, 7, 5}), SR9)


def test_oversized_class_routes_to_insertions(example_readout):
    corrupted = apply(example_readout,
                      ErrorSpec("insert", targets=((7, Composition(1, 6)),)))
    with pytest.raises(CapabilityError):
        decode_deletions(corrupted, SR9)


def test_appendix_pattern_is_ambiguous():
    witness = find_confusable_pair(12, "sym_pair_delete", 2)
    assert witness is not None
    r = full_readout(witness.s).restrict(witness.deleted_classes)
    with pytest.raises(CapabilityError):
        decode_deletions(r, CodebookSpec("SR", 12))
    bf = brute_force_decode(r, CodebookSpec("SR", 12))
    assert bf.result is None
    assert set(bf.consistent_set) == {witness.s, witness.v}


def test_brute_force_on_clean_readout(example_readout):
    rep = brute_force_decode(example_readout, SR9)
    assert rep.result == EXAMPLE_S
    assert rep.consistent_set == (EXAMPLE_S,)


def test_brute_force_on_single_deletion(example_readout):
    rep = brute_force_decode(example_readout.restrict({3}), SR9)
    assert rep.consistent_set == (EXAMPLE_S,)
    assert rep.result == EXAMPLE_S


def test_brute_force_agrees_with_decoders_on_skew(example_readout):
    err = ErrorSpec("skew", targets=((7, Composition(2, 5), Composition(3, 4)),))
    corrupted = apply(example_readout, err)
    bf = brute_force_decode(corrupted, SR9)
    assert bf.result == EXAMPLE_S


def test_undecodable_reports_candidates():
    spec = CodebookSpec("SR", 6)
    # genuine n=6 counterexample: both members have mirror-symmetric
    # interiors and collide once classes 3 and 4 are deleted
    r = full_readout("001101").restrict({3, 4})
    with pytest.raises(UndecodableError) as exc:
        decode_deletions(r, spec)
    assert set(exc.value.candidates) == {"001101", "010011"}


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("model, decoder", [
    ("asym_delete", decode_deletions),
    ("insert", decode_insertions),
])
def test_decoders_match_brute_force_on_mixed_corruptions(n, model, decoder):
    # a seeded skew, then one deletion or insertion on top: every decoder
    # drops the classes brute force distrusts, so it must return brute
    # force's codeword whenever there is one and fail when there is none
    spec = CodebookSpec("SDA", n, t=2)
    members = enumerate_codebook(spec)
    rng = SplitMix64(n)
    recovered = 0
    for s in members:
        for _ in range(4):
            r = apply(full_readout(s), ErrorSpec("skew", count=1,
                                                 seed=rng.next_u64()))
            r = apply(r, ErrorSpec(model, count=1, seed=rng.next_u64()))
            bf = brute_force_decode(r, spec).result
            if bf is None:
                with pytest.raises(CompCodesError):
                    decoder(r, spec)
                continue
            assert decoder(r, spec).result == bf, (s, r.classes)
            recovered += bf == s
    assert recovered > 3 * len(members)
