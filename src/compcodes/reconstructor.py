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

Every decoder reads only the classes a readout can vouch for: one body
drops exactly ``Readout.untrusted_classes()`` (missing, undersized,
oversized and outweighed classes) and decodes from the rest, and
``brute_force_decode`` drops the same set.  Deletion, insertion and
skew decoding differ only in the guards in front of that body.
"""

from __future__ import annotations

from dataclasses import dataclass
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


# (prefix bit, suffix bit) choices for a mirror pair of weight 0, 1, 2
_PAIR_OPTIONS = ((("0", "0"),), (("0", "1"), ("1", "0")), (("1", "1"),))


def _first_half_weights(r: Readout, drop: set[int]):
    """Known cumulative weights for k = 1..ceil(n/2), filled via symmetry."""
    n = r.n
    known: dict[int, int] = {}
    for k in range(1, (n + 1) // 2 + 1):
        seen = {r.weight(c) for c in (k, n - k + 1)
                if c in r.classes and c not in drop}
        if len(seen) > 1:
            raise InconsistentReadoutError(
                f"w_{k} and w_{n - k + 1} differ ({sorted(seen)}); "
                "readout violates weight symmetry")
        if seen:
            known[k] = seen.pop()
    return known


def _derived_weights(sigma: tuple[int, ...], w1: int, m: int) -> list[int]:
    return [k * w1 - sum((k - j) * sigma[j - 1] for j in range(1, k))
            for k in range(1, m + 1)]


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


def _search(n: int, trusted: dict[int, tuple[int, ...]],
            sigma: tuple[int, ...], stats: _SearchStats, results: list[str],
            limit: int | None):
    """Inward pairwise assignment; appends consistent strings to results.

    ``trusted`` maps each class the search must match to its observed
    weight-count vector; every such class has its expected size.
    """
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

    def finish():
        center = str(sigma[m - 1]) if n % 2 else ""
        s = "".join(pre_bits) + center + "".join(reversed(suf_bits))
        sig = kernel.full_signature(bits_to_bytes(s))
        # classes k >= m were already enforced during the inward walk
        if all(kernel.class_counts(sig, n, k) == counts
               for k, counts in trusted.items() if k < m):
            results.append(s)

    def rec(i: int):
        if limit is not None and len(results) >= limit:
            return
        if i > half:
            finish()
            return
        options = _PAIR_OPTIONS[sigma[i - 1]]
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
    trusted = {k: v for k, v in r.classes.items() if k not in drop}
    results: list[str] = []
    for sigma in sigma_candidates:
        _search(r.n, trusted, sigma, stats, results, limit)
        if limit is not None and len(results) >= limit:
            break
    return results


def _check_length(r: Readout, spec: CodebookSpec):
    if spec.n != r.n:
        raise ValueError(f"spec n={spec.n} does not match readout n={r.n}")


def reconstruct(r: Readout, spec: CodebookSpec | None = None) -> DecodeReport:
    """Recover a string from an uncorrupted readout.

    Returns the codeword when a spec is given and one member matches;
    otherwise the consistent string whose first free mirror bit is 0
    (a string and its reversal share a readout, so one must be chosen).
    """
    if not r.is_full():
        raise CapabilityError(
            "readout has missing or mis-sized classes; use a decode_* entry point")
    if spec is not None:
        _check_length(r, spec)
    weights = [r.weight(k) for k in range(1, r.n + 1)]
    sigma = sigma_from_weights(weights, r.n)
    stats = _SearchStats()
    found = _consistent_strings(r, set(), [sigma], stats,
                                limit=1 if spec is None else None)
    if not found:
        raise UndecodableError("no string is consistent with the readout")
    members = [s for s in found if spec is not None and is_member(spec, s)]
    if len(members) > 1:
        raise UndecodableError("several codewords share this readout",
                               candidates=members)
    return DecodeReport((members or found)[0], backtracks=stats.backtracks,
                        max_backtrack_span=stats.max_span)


def _classify_dropped(dropped: set[int], n: int):
    """Split dropped classes into symmetric pairs and asymmetric singles."""
    paired = {k for k in dropped if n - k + 1 in dropped and 2 * k != n + 1}
    return sorted(k for k in paired if 2 * k <= n), sorted(dropped - paired)


def _single_cap(spec: CodebookSpec) -> int:
    """Asymmetric class losses (deletions or skews) the family guarantees."""
    return spec.t if spec.family == "SDA" else 1


def _check_capability(spec: CodebookSpec, pairs: list[int], asym: list[int],
                      experimental: bool):
    fam, t = spec.family, spec.t
    if fam == "SCA1":
        raise CapabilityError("no deletion decoder is defined for SCA1")
    if pairs and asym:
        raise CapabilityError(
            f"mixed pattern (pairs {pairs}, singles {asym}) exceeds every "
            "family guarantee; rerun with the brute-force fallback")
    if asym:
        # the self-symmetric center class of odd n counts as one ordinary
        # drop: weight comparison cannot flag a center skew, so the center
        # retry sheds it alongside the detected classes (verified
        # exhaustively at desk scale for the SDA family)
        cap = _single_cap(spec)
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


def _decode(r: Readout, spec: CodebookSpec,
            experimental: bool = False) -> DecodeReport:
    """Decode from the trusted classes, dropping ``r.untrusted_classes()``.

    A center skew (odd n) is never outweighed, so a failed pass is retried
    with the center dropped too, if the guarantee covers that drop set.
    """
    try:
        return _decode_once(r, spec, experimental)
    except (UndecodableError, InconsistentReadoutError) as first:
        center = (r.n + 1) // 2
        if not r.n % 2 or center in r.untrusted_classes():
            raise
        try:
            return _decode_once(r.restrict({center}), spec, experimental)
        except CapabilityError:
            raise first from None


def _decode_once(r: Readout, spec: CodebookSpec,
                 experimental: bool) -> DecodeReport:
    dropped = set(r.untrusted_classes())
    if not dropped:
        rep = reconstruct(r, spec)
        if not is_member(spec, rep.result):
            raise UndecodableError(
                f"{rep.result} reconstructs but is not a {spec.family} member")
        return rep
    pairs, asym = _classify_dropped(dropped, r.n)
    _check_capability(spec, pairs, asym, experimental)
    known = _first_half_weights(r, dropped)
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


def decode_deletions(r: Readout, spec: CodebookSpec, *,
                     experimental_nonconsecutive: bool = False) -> DecodeReport:
    """Recover the codeword from a readout with whole classes missing."""
    _check_length(r, spec)
    if r.oversized_classes():
        raise CapabilityError(
            "readout has oversized classes; use decode_insertions")
    return _decode(r, spec, experimental_nonconsecutive)


def decode_insertions(r: Readout, spec: CodebookSpec, *,
                      experimental_nonconsecutive: bool = False) -> DecodeReport:
    """Recover the codeword from a readout with spurious extra entries.

    An oversized class is untrusted like any other and is dropped whole;
    correcting insertions in a set of classes is equivalent to correcting
    their deletion.
    """
    _check_length(r, spec)
    return _decode(r, spec, experimental_nonconsecutive)


def decode_skewed(r: Readout, spec: CodebookSpec) -> DecodeReport:
    """Recover the codeword after skewed substitutions (weights only drop).

    A corrupted class k betrays itself through w_k < w_{n-k+1}; on a full
    readout these outweighed classes are the whole untrusted set, so they
    are dropped and the rest decoded.  An undetected center skew (odd n)
    is caught by the center retry of the shared body.
    """
    _check_length(r, spec)
    if not r.is_full():
        raise CapabilityError(
            "readout class sizes are off; skew decoding expects full classes")
    flagged, cap = r.outweighed_classes(), _single_cap(spec)
    if spec.family == "SCA1":
        raise CapabilityError("no skew decoder is defined for SCA1")
    if len(flagged) > cap:
        raise CapabilityError(
            f"{len(flagged)} skewed classes exceed the {spec.family} "
            f"guarantee of {cap}")
    return _decode(r, spec)


@lru_cache(maxsize=32)
def _member_signatures(spec: CodebookSpec):
    members = enumerate_codebook(spec)
    return members, {s: kernel.full_signature(bits_to_bytes(s))
                     for s in members}


def brute_force_decode(r: Readout, spec: CodebookSpec) -> DecodeReport:
    """Reference decoder: scan the whole codebook for consistent members.

    The classes of ``r.untrusted_classes()`` are ignored (for odd n, the
    center too when nothing else matches); the rest must match exactly.
    Always returns a report; ambiguity is an expected outcome whenever
    the corruption exceeds the family guarantee.
    """
    _check_length(r, spec)
    n = r.n
    dropped = set(r.untrusted_classes())
    obs = {k: v for k, v in sorted(r.classes.items()) if k not in dropped}

    members, sigs = _member_signatures(spec)

    def consistent(keep):
        return tuple(s for s in members
                     if all(kernel.class_counts(sigs[s], n, k) == obs[k]
                            for k in keep))

    found = consistent(obs)
    center = (n + 1) // 2
    if not found and n % 2 and center in obs:
        retry = consistent([k for k in obs if k != center])
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
