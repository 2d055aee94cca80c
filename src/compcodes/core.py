"""Compositions, readouts and pairwise-weight sequences.

Strings are plain ``str`` over the alphabet ``{'0','1'}``.  Substring
positions are 1-based and inclusive, matching the usual coding-theory
convention.  A composition is the (zeros, ones) count pair of a fragment.
A length-k composition is fixed by its weight, so the readout stores each
class k (the multiset of compositions of all length-k fragments) as its
weight-count vector: ``counts[w]`` windows of weight w, w = 0..k, in the
layout of ``kernel.class_counts``.  All operations are pure and all values
are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from . import kernel
from .errors import (
    InconsistentReadoutError,
    InvalidComplementError,
    MissingClassError,
)

MAX_LENGTH = kernel.MAX_N


class Composition(NamedTuple):
    """Unordered content of a fragment: z zeros and w ones."""

    z: int
    w: int

    @property
    def length(self) -> int:
        return self.z + self.w

    def validate(self) -> "Composition":
        if self.z < 0 or self.w < 0 or self.z + self.w < 1:
            raise ValueError(f"invalid composition {self!r}")
        return self

    def __str__(self) -> str:
        parts = []
        if self.z:
            parts.append(f"0^{self.z}" if self.z > 1 else "0")
        if self.w:
            parts.append(f"1^{self.w}" if self.w > 1 else "1")
        return "".join(parts) or "-"


class PolyTerm(NamedTuple):
    """One term of the bivariate prefix-walk polynomial: x^xdeg * y^ydeg."""

    xdeg: int
    ydeg: int


def check_bits(s: str) -> str:
    """Validate a binary string and return it unchanged."""
    if not isinstance(s, str):
        raise TypeError(f"expected str of bits, got {type(s).__name__}")
    if not 1 <= len(s) <= MAX_LENGTH:
        raise ValueError(f"string length must be in [1, {MAX_LENGTH}]")
    if s.strip("01"):
        raise ValueError("string may contain only '0' and '1'")
    return s


def bits_to_bytes(s: str) -> bytes:
    return bytes(c == "1" for c in s)


def signature_of(s: str) -> bytes:
    """Canonical byte signature of the full composition multiset of s."""
    return kernel.full_signature(bits_to_bytes(check_bits(s)))


def composition_of(s: str, i: int, j: int) -> Composition:
    """Composition of the substring s_i..s_j (1-based, inclusive)."""
    check_bits(s)
    if not 1 <= i <= j <= len(s):
        raise ValueError(f"need 1 <= i <= j <= {len(s)}, got i={i}, j={j}")
    ones = s.count("1", i - 1, j)
    return Composition(j - i + 1 - ones, ones)


@dataclass
class Readout:
    """Channel output: weight-count vectors keyed by fragment length.

    ``classes[k][w]`` is the number of length-k fragments with w ones, for
    w = 0..k.  ``n`` is carried explicitly; classes may be missing,
    undersized or oversized (corruption is data, not an error).  Treat
    instances as read-only; corruption and restriction build new readouts.
    """

    n: int
    classes: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_LENGTH:
            raise ValueError(f"n must be in [1, {MAX_LENGTH}]")
        for k, counts in self.classes.items():
            if not 1 <= k <= self.n:
                raise ValueError(f"class {k} outside [1, {self.n}]")
            if (type(counts) is not tuple or len(counts) != k + 1
                    or not set(map(type, counts)) <= {int}
                    or min(counts) < 0):
                raise ValueError(f"class {k} needs a tuple of {k + 1} "
                                 f"non-negative ints, got {counts!r}")

    def expected_size(self, k: int) -> int:
        return self.n - k + 1

    def present(self, k: int) -> bool:
        return k in self.classes

    def class_size(self, k: int) -> int:
        return sum(self.classes[k]) if k in self.classes else 0

    def missing_classes(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.n + 1) if k not in self.classes)

    def undersized_classes(self) -> tuple[int, ...]:
        return tuple(k for k in self.classes
                     if self.class_size(k) < self.expected_size(k))

    def oversized_classes(self) -> tuple[int, ...]:
        return tuple(k for k in self.classes
                     if self.class_size(k) > self.expected_size(k))

    def outweighed_classes(self) -> tuple[int, ...]:
        """Classes k that lose the symmetry comparison w_k < w_{n-k+1}.

        Only pairs of distinct classes that are both present at their
        expected size take part; a skew lowers the weight of the class it
        corrupts, so the lighter side of an unequal pair is the suspect.
        """
        n = self.n
        trusted = {k for k in self.classes
                   if self.class_size(k) == self.expected_size(k)}
        return tuple(k for k in sorted(trusted)
                     if n - k + 1 != k and n - k + 1 in trusted
                     and self.weight(k) < self.weight(n - k + 1))

    def untrusted_classes(self) -> tuple[int, ...]:
        """Classes no decoder may read: missing, mis-sized or outweighed."""
        return tuple(sorted({
            *self.missing_classes(), *self.undersized_classes(),
            *self.oversized_classes(), *self.outweighed_classes()}))

    def is_full(self) -> bool:
        return all(self.present(k) and self.class_size(k) == self.expected_size(k)
                   for k in range(1, self.n + 1))

    def total_entries(self) -> int:
        return sum(self.class_size(k) for k in self.classes)

    def weight(self, k: int) -> int:
        """Cumulative weight w_k: total count of ones over class k."""
        if k not in self.classes:
            raise MissingClassError(f"class {k} absent from readout")
        return sum(map(mul, range(k + 1), self.classes[k]))

    def restrict(self, drop: Iterable[int]) -> "Readout":
        """New readout with the given classes removed entirely."""
        dropped = set(drop)
        return Readout(self.n, {k: v for k, v in self.classes.items()
                                if k not in dropped})


def full_readout(s: str) -> Readout:
    """The complete composition multiset of s, grouped by fragment length."""
    sig = signature_of(s)
    n = len(s)
    return Readout(n, {k: kernel.class_counts(sig, n, k)
                       for k in range(1, n + 1)})


def sigma_of_string(s: str) -> tuple[int, ...]:
    """Pairwise mirror weights: wt(s_i s_{n-i+1}), center bit alone if n odd."""
    check_bits(s)
    n = len(s)
    vals = [int(s[i]) + int(s[n - 1 - i]) for i in range(n // 2)]
    if n % 2:
        vals.append(int(s[n // 2]))
    return tuple(vals)


def sigma_from_weights(weights: Sequence[int], n: int) -> tuple[int, ...]:
    """Recover the pairwise-weight sequence from cumulative weights.

    ``weights[k-1]`` is the cumulative weight of class k; at least the
    first ceil(n/2) values must be supplied (fill gaps from the symmetric
    partner first).  When second-half weights are also present, the
    symmetry relation w_k = w_{n-k+1} is checked as well.  Any violation
    raises InconsistentReadoutError: a corrupted readout should be
    detected, not repaired silently.
    """
    m = (n + 1) // 2
    if len(weights) < m:
        raise ValueError(f"need at least {m} weights for n={n}")
    w = list(weights)
    for k in range(m, len(w)):
        partner = w[n - (k + 1)]
        if w[k] != partner:
            raise InconsistentReadoutError(
                f"w_{k + 1}={w[k]} != w_{n - k}={partner} violates symmetry")

    def fail(i, value):
        raise InconsistentReadoutError(
            f"sigma_{i} = {value} outside its range; weights are inconsistent")

    sigma: list[int] = []
    w1 = w[0]
    # w_k = k*w_1 - sum_{j<k} (k-j) sigma_j pins sigma_{k-1} once
    # sigma_1..sigma_{k-2} are known.
    for k in range(2, m + 1):
        val = k * w1 - w[k - 1] - sum((k - j) * sigma[j - 1]
                                      for j in range(1, k - 1))
        if val not in (0, 1, 2):
            fail(k - 1, val)
        sigma.append(val)
    last = w1 - sum(sigma)
    limit = 1 if n % 2 else 2
    if not 0 <= last <= limit:
        fail(m, last)
    sigma.append(last)
    return tuple(sigma)


def complement(whole: Composition, part: Composition) -> Composition:
    """Componentwise difference; the contribution of the rest of a fragment."""
    z, w = whole.z - part.z, whole.w - part.w
    if z < 0 or w < 0:
        raise InvalidComplementError(f"{part} does not fit inside {whole}")
    if z + w < 1:
        raise InvalidComplementError("complement would be empty")
    return Composition(z, w)


def bivariate_poly(s: str) -> tuple[PolyTerm, ...]:
    """Prefix-walk polynomial terms: start at (0,0), step x per 1, y per 0."""
    check_bits(s)
    terms = [PolyTerm(0, 0)]
    x = y = 0
    for c in s:
        if c == "1":
            x += 1
        else:
            y += 1
        terms.append(PolyTerm(x, y))
    return tuple(terms)
