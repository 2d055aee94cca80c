"""Decoders: outside-in reconstruction with backtracking, one decoder
for corrupted readouts built on it, and a brute-force reference.

The search assigns mirror bit pairs inward.  With prefix and suffix of
length i fixed, every window of class n-i is the whole string less a
known prefix/suffix piece, so that class is compared against the observation as
soon as the pair is placed; a wrong branch at a weight-1 pair contradicts
a surviving class within a bounded number of further steps.  Classes
whose cumulative weight is unknown (both symmetric partners deleted)
leave a few pairwise weights undetermined; those are enumerated under the
linear equations the surviving weights impose, optionally pre-filtered by
the family's weight-sum residue; ``_sigma_candidates`` is their one solver.

The walk checks the classes k >= ceil(n/2), each from window weights
carried down the walk in prefix-sum lanes; the classes below are
checked on each finished string's signature of those classes alone (the
finish filter).  A string and its reversal share a readout and a sigma,
and below the first weight-1 pair the walk's (1, 0) subtree is the
reversal of its (0, 1) subtree.  So only the (0, 1) subtree is walked:
its consistent strings, reversed and in reverse order, are what the
(1, 0) walk would find, and its backtracks are counted from the nodes of
the walked subtree.  Codewords of the SR-shaped families start with 0
and end with 1, so sigma_1 = 1 and the search for one of them walks half
the tree.

Both decoders follow one decode rule.  They try the drop sets of
``_drop_sets`` in turn: ``Readout.untrusted_classes()`` (missing,
undersized, oversized and outweighed classes), then, for odd n when the
center is trusted, that set plus the center.  Each lists the members
consistent with the kept classes, stops at the first drop set with any,
and returns the member when there is exactly one; anything else raises
``UndecodableError`` with the members and the last drop set tried.  The
decoder, bound to ``decode_deletions``, ``decode_insertions`` and
``decode_skewed`` alike, lists them by the walk above, and
``brute_force_decode`` by a scan of the codebook's signatures.  The
decoder takes on any drop set.  What it refuses is cost: one decode,
over all its passes, visits at most ``SEARCH_BUDGET`` nodes of the
sigma-candidate walk and the inward search, a finished string's
signature counting as n nodes, and raises ``ResourceCapError`` past that.

Each walk is one loop over an explicit stack of frames, so its speed
does not depend on the caller's stack depth, it needs no headroom under
the recursion limit, and a decode leaves no reference cycle.

``reconstruct`` is the paper's unique-reconstruction problem: it takes
only a full readout, checks no codebook, and returns the first string of
the walk.  A codeword is asked of the decoder, which takes clean
readouts as well as corrupted ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import mul

from . import kernel
from .codebooks import (CodebookSpec, _residue_coefficients,
                        enumerate_codebook, is_member)
from .core import Readout, bits_to_bytes
from .errors import (CapabilityError, InconsistentReadoutError,
                     ResourceCapError, UndecodableError)


@dataclass(frozen=True)
class DecodeReport:
    """Decoder outcome with backtracking statistics."""

    result: str
    dropped_classes: tuple[int, ...] = ()
    backtracks: int = 0
    max_backtrack_span: int = 0


# The most nodes of the sigma-candidate walk and the inward search that
# one decode visits, over all its passes.  With the upper half of the
# classes deleted the inward walk goes unpruned and doubles per weight-1
# pair; this stops it.
SEARCH_BUDGET = 200_000


@dataclass
class _SearchStats:
    backtracks: int = 0
    max_span: int = 0
    # the budget drawn so far, a cost rather than a result of the search
    nodes: int = field(default=0, compare=False)

    def visit(self, nodes: int = 1):
        self.nodes += nodes
        if self.nodes > SEARCH_BUDGET:
            raise ResourceCapError(
                f"decode search exceeds its budget of {SEARCH_BUDGET} nodes")


# (prefix bit, suffix bit) choices for a mirror pair of weight 0, 1, 2
_PAIR_OPTIONS = ((("0", "0"),), (("0", "1"), ("1", "0")), (("1", "1"),))


def _observed_ranges(r: Readout, drop) -> list[tuple[int, int, bytes]]:
    """Merged signature byte ranges of the classes outside ``drop``, each
    with the bytes a string's signature must carry there to match ``r``.

    ``drop`` holds every class not present at its expected size n-k+1,
    which is at most 255, so every kept count fits in a signature byte.
    """
    n = r.n
    observed = b"".join(bytes(k + 1) if k in drop else bytes(r.classes[k])
                        for k in range(1, n + 1))
    return [(lo, hi, observed[lo:hi]) for lo, hi in kernel.kept_ranges(n, drop)]


def _first_half_weights(r: Readout, drop: set[int]):
    """Known cumulative weights for k = 1..ceil(n/2), filled via symmetry.

    ``drop`` must contain ``r.untrusted_classes()``, which holds the lighter
    class of every unequal pair of full-size partners, so the partners
    that are kept always agree.
    """
    n = r.n
    known: dict[int, int] = {}
    for k in range(1, (n + 1) // 2 + 1):
        seen = {r.weight(c) for c in (k, n - k + 1)
                if c in r.classes and c not in drop}
        assert len(seen) <= 1, f"kept partners {k}, {n - k + 1} disagree"
        if seen:
            known[k] = seen.pop()
    return known


def _sigma_candidates(n: int, known: dict[int, int],
                      modulus: int | None = None, residue: int = 0,
                      stats: _SearchStats | None = None):
    """All pairwise-weight sequences consistent with the known cumulative
    weights (and, when given, with the weight-sum residue), by ascending
    w1 = sum(sigma) and then lexicographically.

    Class k's weight is w_k = k*w1 - sum_{j<k} (k-j)*sigma_j, so with
    s = sum(sigma_j) and t = sum(j*sigma_j) over j < k its equation reads
    k*w1 - w_k = k*s - t.  Each node of the walk carries its sigma prefix
    with s and t, which makes it O(1).  A leaf's first-half weight sum,
    sum_{j<=m} c_j*sigma_j with the codebooks' residue coefficients c_j,
    is one O(m) pass.  Every node is drawn from ``stats``'s budget.
    """
    stats = stats or _SearchStats()
    m = (n + 1) // 2
    caps = [2] * (m - 1) + [1 if n % 2 else 2]
    # the most weight the values after depth d can still carry: the
    # suffix sums of caps[1:], then 0
    room = [*accumulate(caps[:0:-1], initial=0)][::-1]
    coefficients = _residue_coefficients(n)[:m]
    w1_options = [known[1]] if 1 in known else range(n + 1)
    found: list[tuple[int, ...]] = []
    for w1 in w1_options:
        # k*w1 - w_k for the known class k = depth+2 <= m, by depth
        target = [k * w1 - known[k] if k in known and k <= m else None
                  for k in range(2, m + 2)]
        stack = [((), 0, 0)]
        while stack:
            sigma, s, t = stack.pop()
            stats.visit()
            depth = len(sigma)
            if depth == m:
                if modulus is None or sum(
                        map(mul, coefficients, sigma)) % modulus == residue:
                    found.append(sigma)
                continue
            k, rhs, j = depth + 2, target[depth], depth + 1
            # pushed from the largest value down, so walked smallest first
            for v in range(min(caps[depth], w1 - s),
                           max(0, w1 - s - room[depth]) - 1, -1):
                if rhs is None or k * (s + v) - t - j * v == rhs:
                    stack.append((sigma + (v,), s + v, t + j * v))
    return found


def _matches(windows: bytes, counts: tuple[int, ...]) -> bool:
    """Whether ``counts`` is the weight-count vector of ``windows``, one
    weight a byte, given that it adds up to as many windows.

    The windows lie at consecutive offsets of one string, so their weights
    form one interval around the first window's.  Each weight is counted
    up from there, to the first weight no window has, then down, and the
    check ends at the first count that differs or once every window is
    counted: ``counts`` then has nothing left to hold elsewhere.
    """
    left = len(windows)
    w = first = windows[0]
    while w < len(counts):
        c = windows.count(w)
        if c != counts[w]:
            return False
        left -= c
        if not left:
            return True
        if not c:
            break
        w += 1
    for w in range(first - 1, -1, -1):
        c = windows.count(w)
        if c != counts[w]:
            return False
        left -= c
        if not left:
            return True
    return False


def _search(n: int, trusted: dict[int, tuple[int, ...]], finish_ranges,
            sigma: tuple[int, ...], stats: _SearchStats, results: list[str]):
    """Inward pairwise assignment; appends consistent strings to results.

    ``trusted`` maps each class the search must match to its observed
    weight-count vector; every such class has its expected size.  The
    walk enforces the classes k >= ceil(n/2); ``finish_ranges`` holds the
    ``_observed_ranges`` of the rest, which each finished string's
    signature of classes 1..ceil(n/2)-1 must match.

    With i pairs placed, window a = 0..i of class n - i is the string
    less its first a and last i - a bits.  Two lane integers carry that
    down the walk: byte a of ``ahead`` holds total_w less the ones
    among the first a bits, ``rem`` being its top byte, and byte a of
    ``behind`` the ones among the last i - a bits, ``suf`` being byte 0.
    Their difference holds the window weights, one a byte, with no
    borrow since each is a weight.
    """
    m = (n + 1) // 2
    half = n // 2
    total_w = sum(sigma)
    if n in trusted and not trusted[n][total_w]:
        return
    center = str(sigma[m - 1]) if n % 2 else ""
    pre_bits: list[str] = []
    suf_bits: list[str] = []          # suf_bits[0] is s_n
    decisions: list[int] = []
    # branching nodes below the first one whose second option found nothing
    empty_seconds = 0
    # a frame: [i, ahead, behind, rem, suf, next option, results at entry,
    # results when the second option began]; a frame with i > half is a leaf
    stack = [[1, total_w, 0, total_w, 0, 0, 0, 0]]
    while stack:
        frame = stack[-1]
        i, ahead, behind, rem, suf, oi, at_entry, second_at = frame
        if i > half:
            stack.pop()
            stats.visit()
            s = "".join(pre_bits) + center + "".join(reversed(suf_bits))
            # a signature counts as n nodes, where a node checks one class
            stats.visit(n)
            sig = kernel.full_signature(bits_to_bytes(s), m - 1)
            if all(sig[lo:hi] == part for lo, hi, part in finish_ranges):
                results.append(s)
            continue
        options = _PAIR_OPTIONS[sigma[i - 1]]
        branching = len(options) == 2
        if oi:  # back from the previous option's subtree: undo its pair
            pre_bits.pop()
            suf_bits.pop()
            if branching:
                decisions.pop()
        else:
            stats.visit()
            frame[6] = at_entry = len(results)
        if oi == len(options):
            if branching and len(results) == second_at:
                empty_seconds += 1
            stack.pop()
            continue
        if oi == 1:
            if len(results) == at_entry:
                stats.backtracks += 1
            if not decisions:
                # The first branching pair: its (1, 0) subtree is the
                # reversal of the (0, 1) subtree just walked, so it would
                # find the reversed strings in reverse order.  Each of its
                # nodes tries the original's second option first, so it
                # backtracks once per node counted in empty_seconds, and
                # it fails class checks at the original's depths, which
                # leaves max_span as it is.
                stats.backtracks += empty_seconds
                results.extend([s[::-1] for s in reversed(results[at_entry:])])
                stack.pop()
                continue
            frame[7] = len(results)
        frame[5] = oi + 1
        a, b = options[oi]
        if branching:
            decisions.append(i)
        pre_bits.append(a)
        suf_bits.append(b)
        next_rem = rem - (a == "1")
        next_suf = suf + (b == "1")
        next_ahead = ahead | next_rem << 8 * i
        next_behind = behind << 8 | next_suf
        counts = trusted.get(n - i)
        if counts is None or _matches(
                (next_ahead - next_behind).to_bytes(i + 1, "little"), counts):
            stack.append([i + 1, next_ahead, next_behind, next_rem, next_suf,
                          0, 0, 0])
        elif decisions:
            stats.max_span = max(stats.max_span, i - decisions[-1])


def _consistent_strings(r: Readout, drop: set[int],
                        sigma_candidates, stats: _SearchStats) -> list[str]:
    n = r.n
    trusted = {k: v for k, v in r.classes.items() if k not in drop}
    finish_ranges = _observed_ranges(r, drop.union(range((n + 1) // 2, n + 1)))
    results: list[str] = []
    for sigma in sigma_candidates:
        _search(n, trusted, finish_ranges, sigma, stats, results)
    return results


def _drop_sets(r: Readout):
    """The drop sets both decoders try, in order: ``r.untrusted_classes()``,
    then, for odd n when the center is trusted, that set plus the center
    (a skew of the self-symmetric center is never outweighed)."""
    drop = set(r.untrusted_classes())
    yield drop
    center = (r.n + 1) // 2
    if r.n % 2 and center not in drop:
        yield drop | {center}


def _decode(r: Readout, spec: CodebookSpec, members_under) -> DecodeReport:
    """The decode rule over the drop sets of ``_drop_sets`` and
    ``members_under(r, spec, drop, stats)``, the members consistent with
    the classes outside ``drop``.  Each pass reports its own backtracks;
    all draw on one ``SEARCH_BUDGET``."""
    if spec.n != r.n:
        raise ValueError(f"spec n={spec.n} does not match readout n={r.n}")
    stats = _SearchStats()
    for drop in _drop_sets(r):
        stats = _SearchStats(nodes=stats.nodes)
        members = members_under(r, spec, drop, stats)
        if members:
            break
    if len(members) != 1:
        what = "no codeword is" if not members else \
            f"{len(members)} codewords are"
        raise UndecodableError(
            f"{what} consistent with the surviving classes",
            candidates=members, dropped_classes=drop)
    return DecodeReport(members[0], dropped_classes=tuple(sorted(drop)),
                        backtracks=stats.backtracks,
                        max_backtrack_span=stats.max_span)


def _walked_members(r: Readout, spec: CodebookSpec, drop: set[int],
                    stats: _SearchStats) -> list[str]:
    known = _first_half_weights(r, drop)
    candidates = _sigma_candidates(r.n, known, spec.modulus, spec.a, stats)
    found = _consistent_strings(r, drop, candidates, stats)
    return sorted(s for s in found if is_member(spec, s))


def reconstruct(r: Readout) -> DecodeReport:
    """Recover a string from an uncorrupted readout: the consistent
    string whose first free mirror bit is 0, the first the walk finds (a
    string and its reversal share a readout, so one must be chosen).
    A full readout that the trust set does not wholly trust, or that no
    sigma explains, raises ``InconsistentReadoutError``.
    """
    if not r.is_full():
        raise CapabilityError(
            "readout has missing or mis-sized classes; use decode_deletions "
            "(compcodes decode)")
    n, untrusted = r.n, r.untrusted_classes()
    if untrusted:
        # name the unequal partner pair whose upper class is lowest
        k = min(max(c, n - c + 1) for c in untrusted)
        raise InconsistentReadoutError(
            f"w_{k}={r.weight(k)} != w_{n - k + 1}={r.weight(n - k + 1)} "
            "violates symmetry")
    stats = _SearchStats()
    sigmas = _sigma_candidates(n, _first_half_weights(r, set()), stats=stats)
    if not sigmas:
        raise InconsistentReadoutError(
            "no pairwise-weight sequence meets the class weights")
    found = _consistent_strings(r, set(), sigmas, stats)
    if not found:
        raise UndecodableError("no string is consistent with the readout")
    return DecodeReport(found[0], backtracks=stats.backtracks,
                        max_backtrack_span=stats.max_span)


def decode_deletions(r: Readout, spec: CodebookSpec) -> DecodeReport:
    """Recover the codeword from the classes a corrupted readout can vouch
    for, over the drop sets of ``_drop_sets``.

    Every channel model reduces to a drop set.  A deleted class is
    missing; a class with spurious insertions is oversized and dropped
    whole, since correcting insertions in a set of classes is equivalent
    to correcting their deletion; a class corrupted by skewed
    substitutions betrays itself through w_k < w_{n-k+1} and is dropped
    as outweighed.  A center skew (odd n) is never outweighed, hence the
    center's retry.  The family guarantees say when exactly one member
    is sure to match; otherwise the ``UndecodableError`` is the one
    ``brute_force_decode`` raises.
    """
    return _decode(r, spec, _walked_members)


# one decoder, under the name of each channel model it corrects
decode_insertions = decode_skewed = decode_deletions


@lru_cache(maxsize=32)
def _member_signatures(key: tuple) -> tuple[tuple[str, ...], list[bytes]]:
    # keyed by spec.key(): a dataclass key would run Python-level
    # __hash__ and __eq__ on every cross-check
    spec = CodebookSpec(*key)
    members = enumerate_codebook(spec)
    return members, kernel.signatures(bits_to_bytes("".join(members)), spec.n)


def _scanned_members(r: Readout, spec: CodebookSpec, drop: set[int],
                     stats: _SearchStats) -> list[str]:
    # each merged range of kept classes narrows the members in turn
    members, sigs = _member_signatures(spec.key())
    found = range(len(members))
    for lo, hi, part in _observed_ranges(r, drop):
        found = [i for i in found if sigs[i][lo:hi] == part]
    return [members[i] for i in found]


def brute_force_decode(r: Readout, spec: CodebookSpec) -> DecodeReport:
    """Reference decoder: the decoder's drop sets of ``_drop_sets`` and
    decode rule, with the consistent members found by scanning the whole
    codebook's signatures instead of the walk."""
    return _decode(r, spec, _scanned_members)
