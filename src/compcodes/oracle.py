"""Brute-force ground truth: equicomposability, class counts, code
property verification and confusable-pair search.

Verification buckets codewords by the signature bytes of their surviving
classes for every deletion pattern, so an exhaustive sweep over a
codebook is linear in its size per pattern.  Search order is fixed
(patterns ascending, strings lexicographic) so the first witness is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import kernel
from .codebooks import CodebookSpec, enumerate_codebook
from .core import Readout, bits_to_bytes, check_bits, full_readout, signature_of
from .errors import ResourceCapError

PROPERTY_MODELS = ("asym_delete", "sym_pair_delete",
                   "consecutive_sym_pair_delete", "skew")

DEFAULT_CAP = 16


@dataclass(frozen=True)
class ConfusabilityWitness:
    """Two codewords whose readouts collide once some classes are deleted."""

    s: str
    v: str
    deleted_classes: frozenset[int]

    def verify(self) -> bool:
        """Recheck the collision from scratch: surviving classes must agree."""
        n = len(self.s)
        if n != len(self.v) or self.s == self.v:
            return False
        sig_s, sig_v = signature_of(self.s), signature_of(self.v)
        return all(kernel.class_counts(sig_s, n, k) == kernel.class_counts(sig_v, n, k)
                   for k in range(1, n + 1) if k not in self.deleted_classes)


def equicomposable(s: str, v: str) -> bool:
    """True iff the two strings share their full composition multiset."""
    check_bits(s)
    check_bits(v)
    if len(s) != len(v):
        raise ValueError("strings must have equal length")
    return signature_of(s) == signature_of(v)


def max_code_bound(n: int) -> int:
    """Upper bound 2^(n-1) + 2^(ceil(n/2)-1) on reconstructable-code size."""
    return 2 ** (n - 1) + 2 ** ((n + 1) // 2 - 1)


def count_classes(n: int, cap: int = DEFAULT_CAP) -> tuple[int, list[str]]:
    """Partition {0,1}^n by readout; returns the class count and the
    lexicographically smallest representative of each class."""
    if n > cap:
        raise ResourceCapError(f"count_classes capped at n <= {cap}")
    reps: dict[bytes, str] = {}
    for x in range(2 ** n):
        s = format(x, f"0{n}b")
        sig = kernel.full_signature(bits_to_bytes(s))
        if sig not in reps:
            reps[sig] = s
    return len(reps), sorted(reps.values())


def deletion_patterns(model: str, t: int, n: int):
    """Deletion patterns of the error model, ascending, empty set included.

    asym_delete: up to t classes, no two mutually symmetric; the
    self-symmetric center class of odd n only ever alone.
    sym_pair_delete: up to t symmetric pairs.
    consecutive_sym_pair_delete: up to t pairs with consecutive first-half
    indices.  skew uses the asymmetric pattern universe (one corrupted
    class per symmetric pair, localized and dropped by the decoder).
    """
    if model not in PROPERTY_MODELS:
        raise ValueError(f"unknown model {model!r}")
    yield frozenset()
    if model in ("asym_delete", "skew"):
        center = (n + 1) // 2 if n % 2 else None
        for size in range(1, t + 1):
            for combo in combinations(range(1, n + 1), size):
                chosen = set(combo)
                if any(n - k + 1 in chosen and n - k + 1 != k for k in combo):
                    continue
                if center in chosen and size > 1:
                    continue
                yield frozenset(chosen)
        return
    half = n // 2
    if model == "sym_pair_delete":
        for size in range(1, t + 1):
            for combo in combinations(range(1, half + 1), size):
                yield frozenset(k for i in combo for k in (i, n - i + 1))
        return
    for size in range(1, t + 1):
        for start in range(1, half - size + 2):
            run = range(start, start + size)
            yield frozenset(k for i in run for k in (i, n - i + 1))


def _kept_ranges(n: int, pattern) -> list[tuple[int, int]]:
    """Signature byte ranges of the classes outside the pattern, merged."""
    cuts = [b for k in sorted(pattern) for b in kernel.class_slice_bounds(n, k)]
    bounds = [0, *cuts, kernel.class_slice_bounds(n, n)[1]]
    return [(lo, hi) for lo, hi in zip(bounds[::2], bounds[1::2]) if lo < hi]


def _collision_scan(members, n, patterns) -> ConfusabilityWitness | None:
    sigs = [kernel.full_signature(bits_to_bytes(s)) for s in members]
    for pattern in patterns:
        ranges = _kept_ranges(n, pattern)
        buckets: dict[bytes, str] = {}
        best: tuple[str, str] | None = None
        for s, sig in zip(members, sigs):
            key = b"".join([sig[lo:hi] for lo, hi in ranges])
            other = buckets.get(key)
            if other is not None:
                pair = (other, s) if other < s else (s, other)
                if best is None or pair < best:
                    best = pair
            else:
                buckets[key] = s
        if best is not None:
            return ConfusabilityWitness(best[0], best[1], frozenset(pattern))
    return None


def verify_code_property(spec: CodebookSpec, model: str, t: int,
                         cap: int = DEFAULT_CAP) -> ConfusabilityWitness | None:
    """Exhaustively check the deletion-correction property of a codebook.

    Returns None when no two codewords become indistinguishable under any
    pattern of the model with at most t errors, otherwise the first
    witness in scan order.
    """
    if spec.n > cap:
        raise ResourceCapError(f"verification capped at n <= {cap}")
    members = enumerate_codebook(spec)
    return _collision_scan(members, spec.n,
                           deletion_patterns(model, t, spec.n))


def find_confusable_pair(n: int, model: str, t: int,
                         cap: int = DEFAULT_CAP) -> ConfusabilityWitness | None:
    """Search the reconstruction codebook for a collision under the model."""
    if n > cap:
        raise ResourceCapError(f"search capped at n <= {cap}")
    return verify_code_property(CodebookSpec("SR", n), model, t, cap=cap)


def insertion_witness_readouts(witness: ConfusabilityWitness):
    """Turn a deletion witness into a pair of insertion-corrupted readouts.

    Inserting each string's missing entries into the other's corrupted
    classes yields identical readouts, which is the operational content
    of the insertion/deletion equivalence.
    """
    r_s = full_readout(witness.s)
    r_v = full_readout(witness.v)
    merged_s, merged_v = dict(r_s.classes), dict(r_v.classes)
    for k in witness.deleted_classes:
        union = tuple(map(max, r_s.classes[k], r_v.classes[k]))  # per weight
        merged_s[k] = merged_v[k] = union
    return Readout(r_s.n, merged_s), Readout(r_v.n, merged_v)
