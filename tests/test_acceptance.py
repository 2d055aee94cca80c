"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Budgets are part of the criteria and asserted.

Criterion 3 checks SR's single-error guarantees over their documented
range and asserts the n=6 counterexample as a verified finding: the
exhaustive sweep over n=6..12 must find exactly one witness, deleting
the adjacent central pair {3,4} at n=6, which confuses the genuine
members 001101 and 010011 (both interiors mirror symmetric).  The
witness is re-verified and cross-checked by a pairwise scan that does
not use the oracle.  Any other witness, or the loss of this one, fails.
"""

import itertools
import time

import pytest

from compcodes.channel import ErrorSpec, SplitMix64, apply, random_error, resolve
from compcodes.codebooks import (
    CodebookSpec,
    enumerate_codebook,
    measured_redundancy,
    modulus_A,
    redundancy_bound,
    size,
    size_lower_bound,
    weight_sum_mod,
)
from compcodes.core import full_readout
from compcodes.errors import UndecodableError
from compcodes.oracle import (
    count_classes,
    find_confusable_pair,
    max_code_bound,
    verify_code_property,
)
from compcodes.reconstructor import (
    brute_force_decode,
    decode_deletions,
    decode_insertions,
    decode_skewed,
    reconstruct,
)
from conftest import EXAMPLE_S, EXAMPLE_SIGMA, sigma_of_string


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def report(idx, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {idx:2d}: {status} ({elapsed:6.1f}s) {detail}")


def test_criterion_1_worked_example_fidelity(example_readout):
    with Timer() as t:
        r = full_readout(EXAMPLE_S)
        ok = (r == example_readout
              and r.total_entries() == 45
              and r.weight(7) == 12
              and sigma_of_string(EXAMPLE_S) == EXAMPLE_SIGMA
              and reconstruct(r).result == EXAMPLE_S)
    report(1, ok and t.elapsed < 1.0, t.elapsed, "worked-example fidelity")
    assert ok
    assert t.elapsed < 1.0


def test_criterion_2_class_counts_short_lengths():
    with Timer() as t:
        results = {n: count_classes(n)[0] for n in range(2, 8)}
        ok = all(results[n] == max_code_bound(n) for n in results)
        ok = ok and results[6] == 36 and results[7] == 72
    report(2, ok and t.elapsed < 10, t.elapsed,
           f"A(n) equals 2^(n-1)+2^(ceil(n/2)-1) for n=2..7: {results}")
    assert ok
    assert t.elapsed < 10


def test_criterion_3_single_error_guarantees():
    # One class deletion and one symmetric pair are guaranteed for n >= 7;
    # at n=6 the central pair {3,4} is a documented falsification, so the
    # sweep reports every witness and pins that one instead of absorbing it.
    with Timer() as t:
        found = []
        for n in range(6, 13):
            spec = CodebookSpec("SR", n)
            for model in ("asym_delete", "sym_pair_delete"):
                w = verify_code_property(spec, model, 1)
                if w is not None:
                    assert w.verify()
                    found.append((n, model, w.s, w.v, set(w.deleted_classes)))
        # cross-check n=6 without the oracle: compare readout classes of
        # every pair of members under each single symmetric pair deletion
        n = 6
        members = enumerate_codebook(CodebookSpec("SR", n))
        readouts = {s: full_readout(s).classes for s in members}
        collisions = []
        for s, v in itertools.combinations(members, 2):
            for i in range(1, n // 2 + 1):
                drop = {i, n - i + 1}
                if all(readouts[s][k] == readouts[v][k]
                       for k in range(1, n + 1) if k not in drop):
                    collisions.append((s, v, drop))
    expected = [(6, "sym_pair_delete", "001101", "010011", {3, 4})]
    symmetric = all(x[1:-1] == x[1:-1][::-1]
                    for _, _, s, v, _ in found for x in (s, v))
    ok = (found == expected and collisions == [expected[0][2:]]
          and symmetric)
    detail = ("single-deletion guarantees over SR(6..12); witnesses: "
              + ("; ".join(f"n={n} {model}: {s}/{v} minus {sorted(drop)}"
                           for n, model, s, v, drop in found) or "none"))
    if ok:
        detail += (" (the documented n=6 finding: verified, confirmed by a "
                   "pairwise readout scan, interiors mirror symmetric)")
    report(3, ok and t.elapsed < 300, t.elapsed, detail)
    assert t.elapsed < 300
    assert found == expected, detail
    assert collisions == [expected[0][2:]], collisions
    assert symmetric, found


def test_criterion_4_sda_two_deletions():
    with Timer() as t:
        ok = True
        for n in (10, 12):
            spec = CodebookSpec("SDA", n, t=2)
            ok = ok and verify_code_property(spec, "asym_delete", 2) is None
            members = enumerate_codebook(spec)
            patterns = [{k} for k in range(1, n + 1)]
            patterns += [set(c) for c in itertools.combinations(range(1, n + 1), 2)
                         if c[0] + c[1] != n + 1]
            for s in members:
                r = full_readout(s)
                for drop in patterns:
                    rep = decode_deletions(r.restrict(drop), spec)
                    try:
                        bf = brute_force_decode(r.restrict(drop), spec).result
                    except UndecodableError:
                        bf = None
                    if rep.result != s or bf != s:
                        ok = False
    report(4, ok and t.elapsed < 600, t.elapsed,
           "SDA(2) corrects every <=2 asymmetric deletion (vs brute force)")
    assert ok
    assert t.elapsed < 600


def test_criterion_5_sds2_two_pairs():
    with Timer() as t:
        ok = all(verify_code_property(CodebookSpec("SDS2", n, a=a),
                                      "sym_pair_delete", 2) is None
                 for n in (10, 12) for a in range(7))
    report(5, ok and t.elapsed < 600, t.elapsed,
           "SDS2 survives every two-symmetric-pair deletion, all residues")
    assert ok
    assert t.elapsed < 600


def test_criterion_6_consecutive_pairs_regime():
    # The construction's modulus A(2)=5 (the -31/4 constant) is smaller
    # than the worst-case weight-sum drift its own interior analysis
    # allows (t(t+2)^2/4 = 8; the -35/4 boundary constant gives 4), so
    # counterexamples are possible and must be reported, not absorbed.
    with Timer() as t:
        ok = True
        findings = []
        for n in (10, 12):
            for a in range(modulus_A(2)):
                spec = CodebookSpec("SDSprime", n, t=2, a=a)
                w = verify_code_property(spec, "consecutive_sym_pair_delete", 2)
                if w is None:
                    continue
                verified = w.verify()
                diff = abs(
                    sum(full_readout(w.s).weight(k) for k in range(1, n // 2 + 1))
                    - sum(full_readout(w.v).weight(k) for k in range(1, n // 2 + 1)))
                undetectable = diff % modulus_A(2) == 0
                findings.append((n, a, w, verified, diff))
                if not (verified and undetectable):
                    ok = False
    detail = "consecutive-pair regime"
    if findings:
        shown = "; ".join(
            f"n={n},a={a}: {w.s}/{w.v} minus {sorted(w.deleted_classes)} "
            f"(weight-sum gap {diff}, invisible mod {modulus_A(2)})"
            for n, a, w, _, diff in findings)
        detail += (" -- counterexamples against the -31/4 modulus "
                   f"(the -35/4 proof constant is stricter still): {shown}")
    report(6, ok, t.elapsed, detail)
    assert ok
    # the modulus shortfall only materializes at n=10 on this desk scale
    assert all(n == 10 for n, *_ in findings)


def test_criterion_7_skewed_substitutions():
    with Timer() as t:
        ok = True
        for n in range(8, 13):
            spec = CodebookSpec("SR", n)
            for s in enumerate_codebook(spec):
                r = full_readout(s)
                for k in range(1, n + 1):
                    for w1 in [w for w, m in enumerate(r.classes[k]) if m]:
                        for w2 in range(w1):
                            bad = apply(r, ErrorSpec("skew", targets=(
                                (k, (k - w1, w1),
                                 (k - w2, w2)),)))
                            if decode_skewed(bad, spec).result != s:
                                ok = False
        spec12 = CodebookSpec("SDA", 12, t=2)
        members = enumerate_codebook(spec12)
        rng = SplitMix64(2**32 + 7)
        for _ in range(1000):
            s = members[rng.below(len(members))]
            r = full_readout(s)
            err = resolve(r, random_error("skew", 2, rng.next_u64(), 12))
            if decode_skewed(apply(r, err), spec12).result != s:
                ok = False
    report(7, ok and t.elapsed < 600, t.elapsed,
           "every single skew on SR(8..12); 1000 double-skew trials on SDA(2)(12)")
    assert ok
    assert t.elapsed < 600


def test_criterion_8_insertion_deletion_equivalence():
    with Timer() as t:
        spec = CodebookSpec("SR", 10)
        members = enumerate_codebook(spec)
        rng = SplitMix64(88)
        ok = True
        for _ in range(500):
            s = members[rng.below(len(members))]
            r = full_readout(s)
            k = rng.below(10) + 1
            targets = []
            for _ in range(rng.below(3) + 1):
                w = rng.below(k + 1)
                targets.append((k, (k - w, w)))
            corrupted = apply(r, ErrorSpec("insert", targets=tuple(targets)))
            rep_ins = decode_insertions(corrupted, spec)
            rep_del = decode_deletions(r.restrict({k}), spec)
            if rep_ins != rep_del or rep_ins.result != s:
                ok = False
    report(8, ok, t.elapsed,
           "decode_insertions == decode_deletions on the induced drop (500 trials)")
    assert ok


def test_criterion_9_redundancy_accounting():
    with Timer() as t:
        ok = True
        rows = []
        for n in (8, 10, 12, 14):
            specs = [CodebookSpec("SR", n), CodebookSpec("SDA", n, t=2)]
            specs += [CodebookSpec("SDS2", n, a=a) for a in range(7)]
            specs += [CodebookSpec("SDSprime", n, t=2, a=a) for a in range(5)]
            for spec in specs:
                red = measured_redundancy(spec)
                bound = redundancy_bound(spec)
                if not red <= bound:
                    ok = False
                    rows.append(f"{spec} measured {red:.2f} > bound {bound:.2f}")
            sda = CodebookSpec("SDA", n, t=2)
            if not size(sda) >= size_lower_bound(sda):
                ok = False
                rows.append(f"{sda} below its counting bound")
    report(9, ok, t.elapsed,
           "finite redundancy accounting at n=8,10,12,14"
           + ("; ".join(rows) if rows else ""))
    assert ok


def test_criterion_10_appendix_search():
    with Timer() as t:
        found = {}
        for n in range(6, 17):
            w = find_confusable_pair(n, "sym_pair_delete", 2, cap=16)
            if w is not None:
                assert w.verify(), (n, w)
                found[n] = w
        ok = bool(found)
    lines = ", ".join(f"n={n}: minus {sorted(w.deleted_classes)}"
                      for n, w in found.items())
    detail = (f"two-pair confusable pairs inside SR up to n=16: {lines}"
              if found else "no witness below cap")
    report(10, ok and t.elapsed < 1800, t.elapsed, detail)
    assert t.elapsed < 1800
    # witnesses are expected to exist; every returned one re-verified
    assert ok
