"""Decoders: worked example, exhaustive small-size round trips, agreement
with the brute-force reference, and honest ambiguity."""

import hashlib
import itertools
import json
import sys
from functools import lru_cache

import pytest

from compcodes import kernel, reconstructor
from compcodes.channel import (MODELS, ErrorSpec, SplitMix64, apply,
                               random_error, resolve)
from compcodes.codebooks import (CodebookSpec, enumerate_codebook, is_member,
                                 weight_sum_mod)
from compcodes.core import bits_to_bytes, full_readout
from compcodes.errors import (
    CapabilityError,
    ResourceCapError,
    UndecodableError,
)
from compcodes.formats import parse_spec
from compcodes.oracle import find_confusable_pair
from compcodes.reconstructor import (
    _PAIR_OPTIONS,
    SEARCH_BUDGET,
    DecodeReport,
    _consistent_strings,
    _drop_sets,
    _first_half_weights,
    _SearchStats,
    _sigma_candidates,
    _walked_members,
    brute_force_decode,
    decode_deletions,
    decode_insertions,
    decode_skewed,
    reconstruct,
)
from conftest import EXAMPLE_S, sigma_of_string

SR9 = CodebookSpec("SR", 9)


def _outcome(decode, r, spec):
    """decode's report, or the message, candidates and dropped classes of
    the UndecodableError it raises, so that two outcomes compare by ==."""
    try:
        return decode(r, spec)
    except UndecodableError as exc:
        return str(exc), exc.candidates, exc.dropped_classes


def _assert_matches_brute_force(r, spec, decode=decode_deletions):
    """The decoder returns the reference's codeword and drop set, or fails
    as the reference does: an UndecodableError with the same message,
    candidates and dropped classes.  Returns the reference's codeword,
    None when it fails."""
    bf = _outcome(brute_force_decode, r, spec)
    got = _outcome(decode, r, spec)
    if isinstance(bf, DecodeReport):
        assert isinstance(got, DecodeReport), (spec, r.classes, got)
        assert (got.result, got.dropped_classes) == \
            (bf.result, bf.dropped_classes), (spec, r.classes)
        return bf.result
    assert got == bf, (spec, r.classes)
    return None


def test_reconstruct_worked_example(example_readout):
    assert reconstruct(example_readout).result == EXAMPLE_S


def test_reconstruct_trivial():
    assert reconstruct(full_readout("01")).result == "01"


def test_reconstruct_returns_member_orientation_for_reversals():
    # an SR codeword starts with 0 and ends with 1, so it is the string of
    # its readout whose first free mirror bit is 0
    rng = SplitMix64(2024)
    members = enumerate_codebook(CodebookSpec("SR", 10))
    for _ in range(50):
        s = members[rng.below(len(members))]
        rev = s[::-1]
        assert full_readout(rev) == full_readout(s)  # independent check
        assert reconstruct(full_readout(rev)).result == s


def test_reconstruct_prefers_leading_zero():
    for n in (2, 3, 4, 5, 6, 7):
        for x in range(2 ** n):
            s = format(x, f"0{n}b")
            got = reconstruct(full_readout(s)).result
            assert got in (s, s[::-1])
            if s[0] != s[-1]:
                assert got[0] == "0"


def test_reconstruct_rejects_corrupted_input(example_readout):
    # the message names the one decoder that takes a corrupted readout
    with pytest.raises(CapabilityError, match="decode_deletions"):
        reconstruct(example_readout.restrict({3}))


def test_reconstruct_with_spec_refuses_a_non_member():
    # 0110 is consistent with its own readout but is no SR codeword: the
    # decoder, which checks the codebook, refuses it, and reconstruct,
    # which checks none, returns it
    r = full_readout("0110")
    with pytest.raises(UndecodableError):
        decode_deletions(r, CodebookSpec("SR", 4))
    assert reconstruct(r).result == "0110"


@pytest.mark.parametrize("spec", [
    *(f"SR:{n}" for n in range(4, 15)), "SDA:12,t=2", "SDS2:12,a=3",
    "SDSprime:12,t=2,a=1", "SCA1:11", "SCA1:13"])
def test_reconstruct_with_spec_is_the_decoder_on_a_clean_readout(spec):
    # on a member's clean readout, in either orientation, spec-free
    # reconstruct gives the decoder's report, backtracks included
    spec = parse_spec(spec)
    for s in enumerate_codebook(spec):
        for x in {s, s[::-1]}:
            r = full_readout(x)
            assert reconstruct(r) == decode_deletions(r, spec), x


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


def test_explicit_asym_targets_may_name_the_centre_with_another_class():
    # the asymmetric universe deletes the centre of odd n only alone,
    # which is where SR corrects two asymmetric class deletions; the
    # validator takes the centre with another class, and SR:9 then has
    # two codewords that agree outside {4, 5}
    r = apply(full_readout("000010001"), ErrorSpec("asym_delete", targets=(4, 5)))
    with pytest.raises(UndecodableError) as failed:
        decode_deletions(r, CodebookSpec("SR", 9))
    assert failed.value.candidates == ("000001001", "000010001")


def test_centre_skew_beside_another_can_decode_to_another_member():
    # a finding beyond the guarantee: skews at SR:9's centre class 5 and
    # at class 4 leave only class 4 untrusted, and the readout without
    # class 4 already fits 000001001 alone, so both the decoder and the
    # brute-force reference return that other member
    r = full_readout("000010001")
    err = ErrorSpec("skew", count=2, seed=7)
    assert [k for k, _, _ in resolve(r, err).targets] == [4, 5]
    corrupted = apply(r, err)
    for decode in (decode_deletions, brute_force_decode):
        rep = decode(corrupted, SR9)
        assert (rep.result, rep.dropped_classes) == ("000001001", (4,))


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
            assert brute_force_decode(r.restrict(drop), spec).result == s


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


def test_sdsprime_nonconsecutive_pairs_agree_with_brute_force():
    # the capability table counts pairs and does not ask that they be
    # consecutive; the search over the trusted classes is exhaustive, so
    # any pattern yields the codeword or the reference's ambiguity
    spec = CodebookSpec("SDSprime", 12, t=2, a=0)
    s = enumerate_codebook(spec)[0]
    r = full_readout(s).restrict({1, 12, 4, 9})  # pairs 1 and 4
    assert decode_deletions(r, spec).result == s
    for a in range(5):
        spec = CodebookSpec("SDSprime", 12, t=2, a=a)
        for s in enumerate_codebook(spec)[:2]:
            for i, j in itertools.combinations(range(1, 7), 2):
                if j - i == 1:
                    continue
                r = full_readout(s).restrict({i, 13 - i, j, 13 - j})
                assert decode_deletions(r, spec).result == s
                assert brute_force_decode(r, spec).result == s
    # a t = 3 pattern the residue cannot separate: the decoder's
    # candidates are the reference's consistent set
    spec = CodebookSpec("SDSprime", 12, t=3)
    r = full_readout("000011010111").restrict({4, 5, 6, 7, 8, 9})
    with pytest.raises(UndecodableError) as exc:
        decode_deletions(r, spec)
    with pytest.raises(UndecodableError) as bf:
        brute_force_decode(r, spec)
    assert len(bf.value.candidates) > 1
    assert exc.value.candidates == bf.value.candidates
    assert exc.value.dropped_classes == bf.value.dropped_classes


def test_drop_sets_over_the_guarantee_counts_match_brute_force():
    # one more drop than each family's guarantee, per kind, and a mix of
    # pairs and singles: the decoder answers as the reference does
    over_guarantee = [
        ("SR:12", {2, 3}),
        ("SR:12", {1, 12, 2, 11}),
        ("SDA:12,t=2", {2, 3, 5}),
        ("SDA:12,t=2", {1, 12, 2, 11}),
        ("SDS2:12", {2, 3}),
        ("SDS2:12", {1, 12, 2, 11, 3, 10}),
        ("SDSprime:12,t=2", {2, 3}),
        ("SDSprime:12,t=2", {1, 12, 2, 11, 3, 10}),
        ("SCA1:11", {3}),
        ("SCA1:11", {6}),
        ("SCA1:11", {1, 11}),
        ("SDS2:12", {1, 12, 3}),
    ]
    decoded = 0
    for text, drop in over_guarantee:
        spec = parse_spec(text)
        s = enumerate_codebook(spec)[0]
        r = full_readout(s).restrict(drop)
        for decode in (decode_deletions, decode_insertions):
            decoded += _assert_matches_brute_force(r, spec, decode) == s
    assert decoded > len(over_guarantee)
    spec = parse_spec("SCA1:11")
    s = enumerate_codebook(spec)[0]
    for decode in (decode_deletions, decode_insertions, decode_skewed):
        assert decode(full_readout(s), spec).result == s


def test_decoder_matches_brute_force_on_every_small_drop_set():
    # every drop set of up to three classes, pairs and singles mixed, on
    # three seeded members of each family at n = 8..11; on every failure
    # both decoders raise an UndecodableError with the same message,
    # candidates and dropped classes
    rng = SplitMix64(8)
    undecodable = 0
    for n in range(8, 12):
        drops = [set(c) for size in range(4)
                 for c in itertools.combinations(range(1, n + 1), size)]
        for text in ("SR:{}", "SCA1:{}", "SDA:{},t=2", "SDS2:{}",
                     "SDSprime:{},t=2"):
            spec = parse_spec(text.format(n))
            members = enumerate_codebook(spec)
            for s in {members[rng.below(len(members))] for _ in range(3)}:
                r = full_readout(s)
                for drop in drops:
                    bf = _assert_matches_brute_force(r.restrict(drop), spec)
                    undecodable += bf is None
    assert undecodable > 0


def test_insertion_worked_example(example_readout):
    corrupted = apply(example_readout,
                      ErrorSpec("insert", targets=((7, (1, 6)),)))
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
            targets.append((k, (k - w, w)))
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
                targets.append((k, (k - w, w)))
        corrupted = apply(r, ErrorSpec("insert", targets=tuple(targets)))
        rep = decode_insertions(corrupted, spec)
        assert rep.result == s
        assert set(rep.dropped_classes) == {k1, k2}


def test_skew_detection_and_decode(example_readout):
    err = ErrorSpec("skew", targets=((7, (2, 5), (3, 4)),))
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
                            (k, (k - w1, w1), (k - w2, w2)),)))
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
    # two skews, where SR's guarantee is one: the decoder answers as the
    # reference does
    spec = CodebookSpec("SR", 10)
    members = enumerate_codebook(spec)
    decoded = 0
    for seed in range(20):
        s = members[seed]
        r = full_readout(s)
        bad = apply(r, resolve(r, random_error("skew", 2, seed, 10)))
        decoded += _assert_matches_brute_force(bad, spec, decode_skewed) == s
    assert decoded > 10


def test_partner_skews_match_brute_force():
    # a one-unit skew of both partners of one pair leaves their weights
    # equal, so nothing is dropped for it: no seeded draw makes one, as
    # the pool loses a skewed class's partner.  Over every such readout
    # of every member the decoder answers as the reference does, and
    # only two decode, both at n = 9
    counts, decoded = {}, {}
    for n in (8, 9, 10):
        spec = CodebookSpec("SR", n)
        counts[n] = 0
        for s in enumerate_codebook(spec):
            r = full_readout(s)
            for k in range(1, n // 2 + 1):
                skews = [[(c, (c - w, w), (c - w + 1, w - 1))
                          for w in range(1, c + 1) if r.classes[c][w]]
                         for c in (k, n - k + 1)]
                for pair in itertools.product(*skews):
                    bad = apply(r, ErrorSpec("skew", targets=pair))
                    counts[n] += 1
                    got = _assert_matches_brute_force(bad, spec)
                    if got is not None:
                        decoded[s, pair] = got
    assert counts == {8: 499, 9: 1026, 10: 2697}
    assert len(decoded) == 2
    assert all(len(s) == 9 for s, _ in decoded)
    # one centre error explains the readout in fewer errors than the two
    # skews did, so the answer is another codeword
    pair = ((4, (2, 2), (3, 1)), (6, (2, 4), (3, 3)))
    assert decoded["000100111", pair] == "001000111"
    bad = apply(full_readout("000100111"), ErrorSpec("skew", targets=pair))
    assert decode_deletions(bad, SR9).dropped_classes == (5,)


def test_mixed_pattern_matches_brute_force(example_readout):
    # a symmetric pair and the centre: no family guarantees the mix
    r = example_readout.restrict({3, 7, 5})
    assert _assert_matches_brute_force(r, SR9) == EXAMPLE_S


def test_decoder_names_share_one_decoder(example_readout):
    # one decoder under three names: an oversized class is dropped by
    # decode_deletions too, and decode_skewed takes a readout that is not
    # full, here a skew of class 8 with class 2 deleted on top
    assert decode_deletions is decode_insertions is decode_skewed
    corrupted = apply(example_readout,
                      ErrorSpec("insert", targets=((7, (1, 6)),)))
    rep = decode_deletions(corrupted, SR9)
    assert rep.result == EXAMPLE_S
    assert rep.dropped_classes == (7,)
    spec = CodebookSpec("SDA", 11, t=2)
    s = "00000010011"
    r = apply(full_readout(s), ErrorSpec("skew", targets=((8, (6, 2), (7, 1)),)))
    r = r.restrict({2})
    rep = decode_skewed(r, spec)
    assert rep.result == s == brute_force_decode(r, spec).result
    assert rep.dropped_classes == (2, 8)


def test_appendix_pattern_is_ambiguous():
    witness = find_confusable_pair(12, "sym_pair_delete", 2)
    assert witness is not None
    r = full_readout(witness.s).restrict(witness.deleted_classes)
    with pytest.raises(UndecodableError) as exc:
        decode_deletions(r, CodebookSpec("SR", 12))
    assert {witness.s, witness.v} <= set(exc.value.candidates)
    assert _assert_matches_brute_force(r, CodebookSpec("SR", 12)) is None
    with pytest.raises(UndecodableError) as bf:
        brute_force_decode(r, CodebookSpec("SR", 12))
    assert set(bf.value.candidates) == {witness.s, witness.v}


def test_search_budget_refuses_an_unpruned_walk():
    # with the upper half deleted the walk checks only class 128 of an SR
    # codeword whose 127 mirror pairs all have weight 1, so it would visit
    # on the order of 2^127 nodes
    n = 255
    s = "0" * 128 + "1" * 127
    r = full_readout(s).restrict(set(range(129, n + 1)))
    with pytest.raises(ResourceCapError, match=str(SEARCH_BUDGET)):
        decode_deletions(r, CodebookSpec("SR", n))


def test_search_budget_is_two_hundred_thousand_nodes():
    # README states the figure; the refusal names it and comes at the
    # node after it
    stats = _SearchStats()
    stats.visit(200_000)
    with pytest.raises(ResourceCapError, match="budget of 200000 nodes"):
        stats.visit()


def _frame_depth() -> int:
    """Python frames on the stack of the caller, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_walks_need_no_stack_headroom():
    # each walk is a loop over its own stack, so a decode, a reconstruct
    # and the budget refusal all run within a few frames of the limit
    n, s = 255, "0" * 128 + "1" * 127
    spec, full = CodebookSpec("SR", n), full_readout(s)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 40)
    try:
        assert decode_deletions(full.restrict({7, 249}), spec).result == s
        assert reconstruct(full).result == s
        with pytest.raises(ResourceCapError):
            decode_deletions(full.restrict(set(range(129, n + 1))), spec)
    finally:
        sys.setrecursionlimit(limit)


def _seeded_member(spec, rng):
    # endpoints fixed 0...1, the bits between drawn until a member turns up
    while True:
        bits = "".join(format(rng.next_u64(), "064b")
                       for _ in range((spec.n - 2) // 64 + 1))
        s = "0" + bits[:spec.n - 2] + "1"
        if is_member(spec, s):
            return s


# sha256 of the canonical JSON of [drop, members, backtracks, max_span,
# nodes] for every drop set of every readout below, members None where
# the walk refused.  The nodes drawn are not compared by _SearchStats's
# equality, so this pins the budget each decode draws.
GOLDEN_WALK_BUDGET = \
    "b49ddbd8ec44ee95bdc08c97a09aa7c617e00e83507ad4c4d082edc3ad286132"


def test_walks_draw_a_pinned_budget():
    rng = SplitMix64(39)
    readouts = []
    for text in ("SR:20", "SR:33", "SR:64", "SR:255", "SDS2:20",
                 "SDA:18,t=2", "SDSprime:64,t=2"):
        spec = parse_spec(text)
        for _ in range(2):
            full = full_readout(_seeded_member(spec, rng))
            for model in MODELS:
                for count in (1, 2):
                    readouts.append((spec, apply(full, ErrorSpec(
                        model, count=count, seed=rng.next_u64()))))
    upper_half = set(range(129, 256))
    readouts.append((CodebookSpec("SR", 255),
                     full_readout("0" * 128 + "1" * 127).restrict(upper_half)))
    records = []
    for spec, r in readouts:
        for drop in _drop_sets(r):
            stats = _SearchStats()
            try:
                members = _walked_members(r, spec, drop, stats)
            except ResourceCapError:
                members = None
            records.append([sorted(drop), members, stats.backtracks,
                            stats.max_span, stats.nodes])
    # only the two drop sets of the last readout are refused, each past
    # the budget
    refused = [rec[4] for rec in records if rec[1] is None]
    assert len(refused) == 2 and min(refused) > SEARCH_BUDGET
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WALK_BUDGET


def test_brute_force_on_clean_readout(example_readout):
    rep = brute_force_decode(example_readout, SR9)
    assert rep == DecodeReport(EXAMPLE_S)


def test_brute_force_on_single_deletion(example_readout):
    rep = brute_force_decode(example_readout.restrict({3}), SR9)
    assert rep == DecodeReport(EXAMPLE_S, dropped_classes=(3,))


def test_brute_force_agrees_with_decoders_on_skew(example_readout):
    err = ErrorSpec("skew", targets=((7, (2, 5), (3, 4)),))
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
], ids=["asym_delete-decode_deletions", "insert-decode_insertions"])
def test_decoders_match_brute_force_on_mixed_corruptions(n, model, decoder):
    # a seeded skew, then one deletion or insertion on top: every decoder
    # drops the classes brute force distrusts, so it must return brute
    # force's codeword whenever there is one and fail as it does otherwise
    spec = CodebookSpec("SDA", n, t=2)
    members = enumerate_codebook(spec)
    rng = SplitMix64(n)
    recovered = 0
    for s in members:
        for _ in range(4):
            r = apply(full_readout(s), ErrorSpec("skew", count=1,
                                                 seed=rng.next_u64()))
            r = apply(r, ErrorSpec(model, count=1, seed=rng.next_u64()))
            recovered += _assert_matches_brute_force(r, spec, decoder) == s
    assert recovered > 3 * len(members)


@lru_cache(maxsize=None)
def _member_readouts(spec):
    return [(s, full_readout(s).classes) for s in enumerate_codebook(spec)]


def _brute_force_by_class(r, spec):
    # slow reference for brute_force_decode, with its own center retry:
    # every member's readout is compared with the observation one kept
    # class at a time
    n = r.n
    dropped = set(r.untrusted_classes())
    obs = {k: v for k, v in sorted(r.classes.items()) if k not in dropped}

    def consistent(keep):
        return tuple(s for s, classes in _member_readouts(spec)
                     if all(classes[k] == obs[k] for k in keep))

    found = consistent(obs)
    center = (n + 1) // 2
    if not found and n % 2 and center in obs:
        # the retry's drop set is the one tried last, found or not
        found = consistent([k for k in obs if k != center])
        dropped.add(center)
    if len(found) == 1:
        return DecodeReport(found[0], dropped_classes=tuple(sorted(dropped)))
    what = (f"{len(found)} codewords are" if found
            else "no codeword is")
    raise UndecodableError(f"{what} consistent with the surviving classes",
                           candidates=found, dropped_classes=dropped)


_SCAN_SPECS = [CodebookSpec("SR", 11), CodebookSpec("SR", 12),
               CodebookSpec("SDA", 11, t=2), CodebookSpec("SDA", 12, t=2),
               CodebookSpec("SDS2", 12), CodebookSpec("SDSprime", 12, t=2)]


def _spec_id(spec):
    return f"{spec.family}:{spec.n},t={spec.t}"


def _seeded_corruption(r, model, rng):
    if model == "mixed":  # a skew, then a deletion of either kind on top
        r = apply(r, ErrorSpec("skew", count=1, seed=rng.next_u64()))
        model = rng.choice(("asym_delete", "sym_pair_delete"))
        return apply(r, ErrorSpec(model, count=1, seed=rng.next_u64()))
    return apply(r, ErrorSpec(model, count=rng.below(2) + 1,
                              seed=rng.next_u64()))


@pytest.mark.parametrize("spec", _SCAN_SPECS, ids=_spec_id)
def test_brute_force_matches_class_by_class_reference(spec):
    members = enumerate_codebook(spec)
    rng = SplitMix64(1000 * spec.n + len(members))
    decoded = 0
    for model in ("asym_delete", "sym_pair_delete", "insert", "skew", "mixed"):
        for _ in range(40):
            s = members[rng.below(len(members))]
            r = _seeded_corruption(full_readout(s), model, rng)
            ref = _outcome(_brute_force_by_class, r, spec)
            assert _outcome(brute_force_decode, r, spec) == ref, \
                (s, model, r.classes)
            decoded += isinstance(ref, DecodeReport) and ref.result == s
    assert decoded > 100


@pytest.mark.parametrize("spec", [s for s in _SCAN_SPECS if s.n % 2],
                         ids=_spec_id)
def test_brute_force_center_retry_matches_reference(spec):
    # a skew of the self-symmetric center class is never outweighed, so
    # the full scan finds nothing and the retry without the center decides
    n, center = spec.n, (spec.n + 1) // 2
    rng = SplitMix64(spec.n)
    retries = 0
    for s in enumerate_codebook(spec)[::3]:
        r = full_readout(s)
        old = rng.choice([w for w, c in enumerate(r.classes[center]) if w and c])
        new = rng.below(old)
        r = apply(r, ErrorSpec("skew", targets=((
            center, (center - old, old),
            (center - new, new)),)))
        if spec.family == "SDA":  # one more asymmetric loss stays in guarantee
            r = apply(r, ErrorSpec("asym_delete", count=1, seed=rng.next_u64()))
        ref = _outcome(_brute_force_by_class, r, spec)
        assert _outcome(brute_force_decode, r, spec) == ref, (s, r.classes)
        retries += (isinstance(ref, DecodeReport)
                    and center in ref.dropped_classes)
    assert retries > 0


def test_failed_center_retry_names_the_center():
    # no SR:9 member has 0^9's readout with or without the center, so both
    # passes find nothing and the failure names the last drop set
    r = full_readout("0" * 9)
    failure = ("no codeword is consistent with the surviving classes", (),
               (5,))
    for decode in (decode_deletions, brute_force_decode,
                   _brute_force_by_class):
        assert _outcome(decode, r, SR9) == failure


def _sigma_candidates_reference(n, known, modulus=None, residue=0):
    # every sequence over {0,1,2}^m (the centre of odd n at most 1), its
    # first-half weights derived in full from the definition; ordered as
    # the search emits them: by w1 = sum(sigma), then lexicographically
    m = (n + 1) // 2
    caps = [2] * (m - 1) + [1 if n % 2 else 2]
    found = []
    for sigma in itertools.product(range(3), repeat=m):
        w1 = sum(sigma)
        if any(v > cap for v, cap in zip(sigma, caps)):
            continue
        weights = [k * w1 - sum((k - j) * sigma[j - 1] for j in range(1, k))
                   for k in range(1, m + 1)]
        if any(weights[k - 1] != w for k, w in known.items()):
            continue
        if modulus is not None and sum(weights) % modulus != residue:
            continue
        found.append(sigma)
    return sorted(found, key=sum)


def test_sigma_candidates_match_brute_force():
    # each draw also goes in once with every first-half weight known, as
    # a clean readout gives them, tampered or not: one sigma or none
    rng = SplitMix64(77)
    nonempty = inconsistent = 0
    for n in range(1, 15):  # m = ceil(n/2) <= 7
        m = (n + 1) // 2
        for _ in range(8):
            s = format(rng.below(2 ** n), f"0{n}b")
            weights = [full_readout(s).weight(k) for k in range(1, m + 1)]
            known = {k: weights[k - 1] for k in range(1, m + 1)
                     if rng.below(2)}
            if known and rng.below(4) == 0:  # a tampered weight
                k = rng.choice(sorted(known))
                delta = rng.choice((-1, 1))
                known[k] += delta
                weights[k - 1] += delta
            for modulus in (None, 3, 5, 7):
                residue = 0 if modulus is None else rng.below(modulus)
                got = _sigma_candidates(n, known, modulus, residue)
                assert got == _sigma_candidates_reference(
                    n, known, modulus, residue), (n, known, modulus, residue)
                nonempty += bool(got)
            full = dict(enumerate(weights, 1))
            expected = _sigma_candidates_reference(n, full)
            assert _sigma_candidates(n, full) == expected, (n, weights)
            assert len(expected) <= 1
            inconsistent += not expected
    assert nonempty > 150
    assert inconsistent > 0


def test_sigma_candidates_residue_filter_at_every_length():
    # the linear residue of the leaves against the codebooks' weight sum
    # of the string, beyond the reference's reach: with every first-half
    # weight known, the string's own residue keeps its sigma, and every
    # other residue keeps none
    rng = SplitMix64(27)
    for n in range(1, 256):
        s = "".join(rng.choice("01") for _ in range(n))
        r = full_readout(s)
        known = {k: r.weight(k) for k in range(1, (n + 1) // 2 + 1)}
        for modulus in (3, 5, 7, 31):
            own = weight_sum_mod(s, modulus)
            for residue in range(modulus):
                expected = [sigma_of_string(s)] if residue == own else []
                assert _sigma_candidates(n, known, modulus, residue) == \
                    expected, (s, modulus, residue)


@lru_cache(maxsize=None)
def _all_string_classes(n):
    return [(s, full_readout(s).classes)
            for s in (format(x, f"0{n}b") for x in range(2 ** n))]


def test_consistent_strings_match_full_scan(monkeypatch):
    # every string of length n that matches each kept class and whose
    # sigma is a candidate, in the search's order (by candidate, then by
    # the first half); the finish filter signs one string per reversal
    # pair of the leaves the inward walk reaches
    calls = []
    real_signature = kernel.full_signature

    def counting_signature(bits, *bound):
        calls.append(bits)
        return real_signature(bits, *bound)

    rng = SplitMix64(12)
    found_total = skipped = 0
    for n in (2, 3, 5, 8, 11, 12):
        codewords = [s for s, _ in _all_string_classes(n)]
        for model in ("asym_delete", "sym_pair_delete", "insert", "skew",
                      "mixed"):
            for _ in range(6):
                s = codewords[rng.below(len(codewords))]
                r = full_readout(s)
                if n >= 5:
                    r = _seeded_corruption(r, model, rng)
                drop = set(r.untrusted_classes())
                kept = [k for k in r.classes if k not in drop]
                candidates = _sigma_candidates(
                    n, _first_half_weights(r, drop),
                    rng.choice((None, 3, 5)), rng.below(3))
                order = {sigma: i for i, sigma in enumerate(candidates)}
                walk_classes = [k for k in kept if 2 * k >= n]
                leaves, expected = [], []
                for x, classes in _all_string_classes(n):
                    if sigma_of_string(x) not in order or any(
                            classes[k] != r.classes[k] for k in walk_classes):
                        continue
                    leaves.append(x)
                    if all(classes[k] == r.classes[k] for k in kept):
                        expected.append(x)
                expected.sort(key=lambda x: (order[sigma_of_string(x)],
                                             x[:n // 2]))
                calls.clear()
                monkeypatch.setattr(kernel, "full_signature",
                                    counting_signature)
                got = _consistent_strings(r, drop, candidates, _SearchStats())
                monkeypatch.setattr(kernel, "full_signature", real_signature)
                assert got == expected, (s, model, r.classes)
                pairs = {min(x, x[::-1]) for x in leaves}
                assert len(calls) == len(pairs), (s, model, r.classes)
                found_total += len(got)
                skipped += len(leaves) - len(pairs)
    assert found_total > 100 and skipped > 50


def _reference_search(n, trusted, finish_ranges, sigma, stats, results):
    """The inward walk with both options of every weight-1 pair walked,
    the reference ``_search`` must agree with, stats included."""
    m = (n + 1) // 2
    half = n // 2
    total_w = sum(sigma)
    if n in trusted and not trusted[n][total_w]:
        return
    pre_bits: list[str] = []
    suf_bits: list[str] = []          # suf_bits[0] is s_n
    pre_w = [0]
    suf_w = [0]
    decisions: list[int] = []

    def class_matches(i: int) -> bool:
        k = n - i
        if k not in trusted:
            return True
        pred = [0] * (k + 1)
        for j in range(1, i + 2):
            pred[total_w - pre_w[j - 1] - suf_w[i - j + 1]] += 1
        return tuple(pred) == trusted[k]

    # a string and its reversal share a readout, and the walk reaches
    # both under the same sigma: the first one's verdict decides the pair
    verdicts: dict[str, bool] = {}

    def finish():
        center = str(sigma[m - 1]) if n % 2 else ""
        s = "".join(pre_bits) + center + "".join(reversed(suf_bits))
        ok = verdicts.get(s[::-1])
        if ok is None:
            sig = kernel.full_signature(bits_to_bytes(s))
            ok = verdicts[s] = all(sig[lo:hi] == part
                                   for lo, hi, part in finish_ranges)
        if ok:
            results.append(s)

    def rec(i: int):
        if i > half:
            finish()
            return
        options = _PAIR_OPTIONS[sigma[i - 1]]
        branching = len(options) == 2
        results_at_entry = len(results)
        for oi, (a, b) in enumerate(options):
            if oi == 1 and len(results) == results_at_entry:
                stats.backtracks += 1
            if branching:
                decisions.append(i)
            pre_bits.append(a)
            pre_w.append(pre_w[-1] + (a == "1"))
            suf_bits.append(b)
            suf_w.append(suf_w[-1] + (b == "1"))
            if class_matches(i):
                rec(i + 1)
            elif decisions:
                stats.max_span = max(stats.max_span, i - decisions[-1])
            pre_bits.pop()
            pre_w.pop()
            suf_bits.pop()
            suf_w.pop()
            if branching:
                decisions.pop()

    rec(1)


def test_search_matches_unpruned_walk(monkeypatch):
    # the (1, 0) subtree of the first weight-1 pair is derived, not
    # walked: the strings, their order and the stats must not move.  The
    # reference checks each class by its histogram, _search by its lanes
    rng = SplitMix64(15)
    pruned_search = reconstructor._search
    nonempty = large_nonempty = 0
    for n in [*range(5, 17), 33, 64, 255]:
        for model in ("none", "asym_delete", "sym_pair_delete", "insert",
                      "skew", "mixed"):
            for _ in range(4 if n <= 16 else 2):
                # nonzero, so a skew always finds a class to lower
                if n <= 16:
                    s = format(rng.below(2 ** n - 1) + 1, f"0{n}b")
                else:
                    s = "".join("01"[rng.below(2)] for _ in range(n - 1)) + "1"
                r = full_readout(s)
                if model != "none":
                    r = _seeded_corruption(r, model, rng)
                drop = set(r.untrusted_classes())
                modulus = rng.choice((None, 3, 7))
                candidates = _sigma_candidates(
                    n, _first_half_weights(r, drop), modulus,
                    0 if modulus is None else rng.below(modulus))
                runs = []
                for search in (_reference_search, pruned_search):
                    monkeypatch.setattr(reconstructor, "_search", search)
                    stats = _SearchStats()
                    runs.append((_consistent_strings(r, drop, candidates,
                                                     stats), stats))
                assert runs[0] == runs[1], (s, model, r.classes)
                nonempty += bool(runs[0][0])
                large_nonempty += n > 16 and bool(runs[0][0])
    assert nonempty > 100 and large_nonempty > 10
