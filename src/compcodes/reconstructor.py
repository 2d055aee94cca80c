"""Decoders: outside-in reconstruction with backtracking, plus the
deletion, insertion and skew decoders layered on top of it.

The search assigns mirror bit pairs inward.  With prefix and suffix of
length i fixed, every window of class n-i is the complement of a known
prefix/suffix piece, so that class is compared against the observation as
soon as the pair is placed; a wrong branch at a weight-1 pair contradicts
a surviving class within a bounded number of further steps.  Classes
whose cumulative weight is unknown (both symmetric partners deleted)
leave a few pairwise weights undetermined; those are enumerated under the
linear equations the surviving weights impose, optionally pre-filtered by
the family's weight-sum residue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from . import kernel
from .codebooks import CodebookSpec, enumerate_codebook, is_member
from .core import Readout, bits_to_bytes, sigma_from_weights
from .errors import (
    CapabilityError,
    InconsistentReadoutError,
    UndecodableError,
)


@dataclass(frozen=True)
class DecodeReport:
    """Decoder outcome with backtracking statistics."""

    result: str | None
    dropped_classes: tuple[int, ...] = ()
    backtracks: int = 0
    max_backtrack_span: int = 0
    reason: str | None = None
    consistent_set: tuple[str, ...] | None = None


@dataclass
class _SearchStats:
    backtracks: int = 0
    max_span: int = 0


def _observations(r: Readout, drop: set[int]):
    """Sorted weight multisets and weight-count vectors of trusted classes."""
    obs_counts = {k: v for k, v in r.classes.items() if k not in drop}
    obs_sorted: dict[int, tuple[int, ...]] = {}
    for k, counts in obs_counts.items():
        weights: list[int] = []
        for w, mult in enumerate(counts):
            weights += [w] * mult
        obs_sorted[k] = tuple(weights)
    return obs_sorted, obs_counts


def _first_half_weights(r: Readout, drop: set[int], *, check_symmetry: bool):
    """Known cumulative weights for k = 1..ceil(n/2), filled via symmetry."""
    n = r.n
    known: dict[int, int] = {}
    for k in range(1, (n + 1) // 2 + 1):
        partner = n - k + 1
        w_here = r.weight(k) if (k in r.classes and k not in drop) else None
        w_mirror = (r.weight(partner)
                    if (partner in r.classes and partner not in drop and partner != k)
                    else None)
        if check_symmetry and w_here is not None and w_mirror is not None \
                and w_here != w_mirror:
            raise InconsistentReadoutError(
                f"w_{k}={w_here} != w_{partner}={w_mirror}; "
                "readout violates weight symmetry")
        if w_here is not None:
            known[k] = w_here
        elif w_mirror is not None:
            known[k] = w_mirror
    return known


def _derived_weights(sigma: tuple[int, ...], w1: int, m: int) -> list[int]:
    out = []
    for k in range(1, m + 1):
        out.append(k * w1 - sum((k - j) * sigma[j - 1] for j in range(1, k)))
    return out


def _sigma_candidates(n: int, known: dict[int, int],
                      modulus: int | None = None, residue: int = 0):
    """All pairwise-weight sequences consistent with the known cumulative
    weights (and, when given, with the weight-sum residue)."""
    m = (n + 1) // 2
    center_cap = 1 if n % 2 else 2
    w1_options = [known[1]] if 1 in known else list(range(n + 1))
    found: list[tuple[int, ...]] = []
    for w1 in w1_options:
        sigma: list[int] = []

        def rec(partial_sum: int):
            depth = len(sigma)
            if depth == m:
                if partial_sum != w1:
                    return
                cand = tuple(sigma)
                if modulus is not None:
                    weights = _derived_weights(cand, w1, m)
                    for k, w in known.items():
                        weights[k - 1] = w
                    if sum(weights) % modulus != residue:
                        return
                found.append(cand)
                return
            cap = center_cap if depth == m - 1 else 2
            rest = m - depth - 1
            max_rest = 2 * rest - (1 if n % 2 and rest >= 1 else 0)
            for v in range(cap + 1):
                ps = partial_sum + v
                if ps > w1:
                    break
                if ps + max_rest < w1:
                    continue
                sigma.append(v)
                k = depth + 2  # equation index using sigma_1..sigma_{k-1}
                ok = True
                if k <= m and k in known:
                    lhs = sum((k - j) * sigma[j - 1] for j in range(1, k))
                    ok = lhs == k * w1 - known[k]
                if ok:
                    rec(ps)
                sigma.pop()

        rec(0)
    return found


def _search(n: int, obs_sorted, obs_counts, sigma: tuple[int, ...],
            stats: _SearchStats, results: list[str], limit: int | None):
    """Inward pairwise assignment; appends consistent strings to results."""
    m = (n + 1) // 2
    half = n // 2
    total_w = sum(sigma)
    if n in obs_sorted and obs_sorted[n] != (total_w,):
        return
    pre_bits: list[str] = []
    suf_bits: list[str] = []          # suf_bits[0] is s_n
    pre_w = [0]
    suf_w = [0]
    decisions: list[int] = []

    def class_matches(i: int) -> bool:
        k = n - i
        if k == n or k not in obs_sorted:
            return True
        pred = sorted(total_w - pre_w[j - 1] - suf_w[i - j + 1]
                      for j in range(1, i + 2))
        return tuple(pred) == obs_sorted[k]

    def finish():
        center = str(sigma[m - 1]) if n % 2 else ""
        s = "".join(pre_bits) + center + "".join(reversed(suf_bits))
        sig = kernel.full_signature(bits_to_bytes(s))
        for k, counts in obs_counts.items():
            if k >= m:
                continue  # already enforced during the inward walk
            if kernel.class_counts(sig, n, k) != counts:
                return
        results.append(s)

    def rec(i: int):
        if limit is not None and len(results) >= limit:
            return
        if i > half:
            finish()
            return
        sv = sigma[i - 1]
        if sv == 1:
            options = (("0", "1"), ("1", "0"))
        elif sv == 0:
            options = (("0", "0"),)
        else:
            options = (("1", "1"),)
        branching = len(options) == 2
        results_at_entry = len(results)
        for oi, (a, b) in enumerate(options):
            if oi == 1:
                if limit is not None and len(results) >= limit:
                    break
                if len(results) == results_at_entry:
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


def _consistent_strings(r: Readout, drop: set[int],
                        sigma_candidates, stats: _SearchStats,
                        limit: int | None = None) -> list[str]:
    obs_sorted, obs_counts = _observations(r, drop)
    results: list[str] = []
    for sigma in sigma_candidates:
        _search(r.n, obs_sorted, obs_counts, sigma, stats, results, limit)
        if limit is not None and len(results) >= limit:
            break
    return results


def reconstruct(r: Readout, spec: CodebookSpec | None = None) -> DecodeReport:
    """Recover a string from an uncorrupted readout.

    Returns the codeword when a spec is given and one member matches;
    otherwise the consistent string whose first free mirror bit is 0
    (a string and its reversal share a readout, so one must be chosen).
    """
    if not r.is_full():
        raise CapabilityError(
            "readout has missing or mis-sized classes; use a decode_* entry point")
    if spec is not None and spec.n != r.n:
        raise ValueError(f"spec n={spec.n} does not match readout n={r.n}")
    weights = [r.weight(k) for k in range(1, r.n + 1)]
    sigma = sigma_from_weights(weights, r.n)
    stats = _SearchStats()
    if spec is None:
        found = _consistent_strings(r, set(), [sigma], stats, limit=1)
        if not found:
            raise UndecodableError("no string is consistent with the readout")
        return DecodeReport(found[0], backtracks=stats.backtracks,
                            max_backtrack_span=stats.max_span)
    found = _consistent_strings(r, set(), [sigma], stats)
    if not found:
        raise UndecodableError("no string is consistent with the readout")
    members = [s for s in found if is_member(spec, s)]
    if len(members) > 1:
        raise UndecodableError("several codewords share this readout",
                               candidates=members)
    result = members[0] if members else found[0]
    return DecodeReport(result, backtracks=stats.backtracks,
                        max_backtrack_span=stats.max_span)


def _classify_dropped(dropped: set[int], n: int):
    """Split dropped classes into symmetric pairs and asymmetric singles."""
    pairs = sorted(k for k in dropped
                   if k <= n - k + 1 and n - k + 1 in dropped and k != n - k + 1)
    paired = {k for k in dropped
              if n - k + 1 in dropped and k != n - k + 1}
    asym = sorted(dropped - paired)
    return pairs, asym


def _check_capability(spec: CodebookSpec, pairs: list[int], asym: list[int],
                      n: int, experimental: bool):
    fam, t = spec.family, spec.t
    if fam == "SCA1":
        raise CapabilityError("no deletion decoder is defined for SCA1")
    if pairs and asym:
        raise CapabilityError(
            f"mixed pattern (pairs {pairs}, singles {asym}) exceeds every "
            "family guarantee; rerun with the brute-force fallback")
    if asym:
        # the self-symmetric center class of odd n counts as one ordinary
        # drop here: a center skew is a legal error that weight comparison
        # cannot flag, so the skew decoder must be able to shed the center
        # alongside the detected classes (verified exhaustively at desk
        # scale for the SDA family)
        cap = t if fam == "SDA" else 1
        if len(asym) > cap:
            raise CapabilityError(
                f"{len(asym)} asymmetric deletions exceed the {fam} "
                f"guarantee of {cap}")
    if pairs:
        cap = {"SDS2": 2, "SDSprime": t}.get(fam, 1)
        if len(pairs) > cap:
            raise CapabilityError(
                f"{len(pairs)} symmetric pair deletions exceed the {fam} "
                f"guarantee of {cap}")
        if fam == "SDSprime" and len(pairs) > 1:
            run = all(b - a == 1 for a, b in zip(pairs, pairs[1:]))
            if not run and not experimental:
                raise CapabilityError(
                    "SDSprime guarantees consecutive pair deletions only; "
                    "pass experimental_nonconsecutive=True to try anyway")


def decode_deletions(r: Readout, spec: CodebookSpec, *,
                     experimental_nonconsecutive: bool = False) -> DecodeReport:
    """Recover the codeword from a readout with whole classes missing."""
    if spec.n != r.n:
        raise ValueError(f"spec n={spec.n} does not match readout n={r.n}")
    if r.oversized_classes():
        raise CapabilityError(
            "readout has oversized classes; use decode_insertions")
    dropped = set(r.missing_classes()) | set(r.undersized_classes())
    if not dropped:
        rep = reconstruct(r, spec)
        if not is_member(spec, rep.result):
            raise UndecodableError(
                f"{rep.result} reconstructs but is not a {spec.family} member")
        return rep
    pairs, asym = _classify_dropped(dropped, r.n)
    _check_capability(spec, pairs, asym, r.n, experimental_nonconsecutive)
    known = _first_half_weights(r, dropped, check_symmetry=True)
    candidates = _sigma_candidates(r.n, known, spec.modulus, spec.a)
    stats = _SearchStats()
    found = _consistent_strings(r, dropped, candidates, stats)
    members = sorted(s for s in found if is_member(spec, s))
    if len(members) != 1:
        what = "no codeword is" if not members else \
            f"{len(members)} codewords are"
        raise UndecodableError(
            f"{what} consistent with the surviving classes",
            candidates=members, dropped_classes=dropped)
    return DecodeReport(members[0], dropped_classes=tuple(sorted(dropped)),
                        backtracks=stats.backtracks,
                        max_backtrack_span=stats.max_span)


def decode_insertions(r: Readout, spec: CodebookSpec, *,
                      experimental_nonconsecutive: bool = False) -> DecodeReport:
    """Recover the codeword from a readout with spurious extra entries.

    Every oversized class is discarded entirely; correcting insertions in
    a set of classes is equivalent to correcting their deletion.
    """
    oversized = set(r.oversized_classes())
    rep = decode_deletions(
        r.restrict(oversized), spec,
        experimental_nonconsecutive=experimental_nonconsecutive)
    dropped = tuple(sorted(set(rep.dropped_classes) | oversized))
    return replace(rep, dropped_classes=dropped)


def decode_skewed(r: Readout, spec: CodebookSpec) -> DecodeReport:
    """Recover the codeword after skewed substitutions (weights only drop).

    A corrupted class k betrays itself through w_k < w_{n-k+1}; flagged
    classes are dropped and the deletion decoder finishes the job.  For
    odd n the center class is its own symmetric partner, so an undetected
    center skew is handled by retrying with the center dropped once the
    first pass fails.
    """
    if spec.n != r.n:
        raise ValueError(f"spec n={spec.n} does not match readout n={r.n}")
    if not r.is_full():
        raise CapabilityError(
            "readout class sizes are off; skew decoding expects full classes")
    n = r.n
    flagged = set(r.outweighed_classes())
    cap = spec.t if spec.family == "SDA" else 1
    if spec.family == "SCA1":
        raise CapabilityError("no skew decoder is defined for SCA1")
    if len(flagged) > cap:
        raise CapabilityError(
            f"{len(flagged)} skewed classes exceed the {spec.family} "
            f"guarantee of {cap}")
    try:
        rep = decode_deletions(r.restrict(flagged), spec)
    except (UndecodableError, InconsistentReadoutError):
        # an undetected center skew corrupts the center weight; drop the
        # center class and decode from what remains
        center = (n + 1) // 2
        if n % 2 and len(flagged) < cap:
            rep = decode_deletions(r.restrict(flagged | {center}), spec)
        else:
            raise
    return rep


@lru_cache(maxsize=32)
def _member_signatures(spec: CodebookSpec):
    members = enumerate_codebook(spec)
    return members, {s: kernel.full_signature(bits_to_bytes(s))
                     for s in members}


def brute_force_decode(r: Readout, spec: CodebookSpec) -> DecodeReport:
    """Reference decoder: scan the whole codebook for consistent members.

    Classes that are structurally corrupt (missing, mis-sized, or on the
    losing side of a weight-symmetry violation) are ignored; the rest
    must match exactly.  Always returns a report; ambiguity is an
    expected outcome whenever the corruption exceeds the family
    guarantee.
    """
    if spec.n != r.n:
        raise ValueError(f"spec n={spec.n} does not match readout n={r.n}")
    n = r.n
    dropped = (set(r.missing_classes()) | set(r.undersized_classes())
               | set(r.oversized_classes()) | set(r.outweighed_classes()))
    surviving = [k for k in sorted(r.classes) if k not in dropped]
    obs = {k: r.classes[k] for k in surviving}

    members, sigs = _member_signatures(spec)

    def consistent(keep):
        return tuple(s for s in members
                     if all(kernel.class_counts(sigs[s], n, k) == obs[k]
                            for k in keep))

    found = consistent(surviving)
    center = (n + 1) // 2
    if not found and n % 2 and center in obs:
        retry = consistent([k for k in surviving if k != center])
        if retry:
            found = retry
            dropped.add(center)
    if len(found) == 1:
        return DecodeReport(found[0], dropped_classes=tuple(sorted(dropped)),
                            consistent_set=found)
    reason = "no consistent codeword" if not found else \
        f"ambiguous: {len(found)} consistent codewords"
    return DecodeReport(None, dropped_classes=tuple(sorted(dropped)),
                        reason=reason, consistent_set=found)
