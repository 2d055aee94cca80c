"""Readouts and signatures.

Strings are plain ``str`` over the alphabet ``{'0','1'}``.  Substring
positions are 1-based and inclusive, matching the usual coding-theory
convention.  A composition is the (zeros, ones) count pair of a fragment;
on the wire it is the pair [z, w].  A length-k composition is fixed by its
weight, so the readout stores each class k (the multiset of compositions
of all length-k fragments) as its weight-count vector: ``counts[w]``
windows of weight w, w = 0..k, in the layout of ``kernel.class_counts``.
All operations are pure and all values are treated as immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable

from . import kernel
from .errors import MissingClassError

MAX_LENGTH = kernel.MAX_N


def check_bits(s: str) -> str:
    """Validate a binary string and return it unchanged."""
    if not isinstance(s, str):
        raise TypeError(f"expected str of bits, got {type(s).__name__}")
    if not 1 <= len(s) <= MAX_LENGTH:
        raise ValueError(f"string length must be in [1, {MAX_LENGTH}]")
    if s.strip("01"):
        raise ValueError("string may contain only '0' and '1'")
    return s


_BIT_VALUES = bytes(b == ord("1") for b in range(256))


def bits_to_bytes(s: str) -> bytes:
    """One byte per character of s: 1 for '1', 0 for anything else."""
    # a character outside Latin-1 encodes as one '?', so it too becomes 0
    return s.encode("latin-1", "replace").translate(_BIT_VALUES)


def signature_of(s: str) -> bytes:
    """Canonical byte signature of the full composition multiset of s."""
    return kernel.full_signature(bits_to_bytes(check_bits(s)))


@dataclass
class Readout:
    """Channel output: weight-count vectors keyed by fragment length.

    ``classes[k][w]`` is the number of length-k fragments with w ones, for
    w = 0..k.  ``n`` is carried explicitly; classes may be missing,
    undersized or oversized (corruption is data, not an error).  Treat
    instances as read-only; corruption and restriction build new readouts.

    It exposes ``class_size(k)`` (0 for a missing class), ``weight(k)``,
    ``total_entries()``, ``is_full()``, the trust set
    ``untrusted_classes()`` and the ``outweighed_classes()`` it includes,
    and ``restrict(drop)``.  A class k is full when it holds its expected
    n-k+1 entries.  ``parse_readout`` hands over each class's size and
    weight, which its parse loop sums as it reads the counts; every other
    readout computes them on first use.  Sizes, weights and the trust set
    are kept for the life of the instance.

    ``Readout(n, classes)`` checks its input: n an exact int in [1, 255],
    classes a dict, each key k an exact int in [1, n] and its vector a
    tuple of k+1 non-negative exact ints, else ``ValueError``.  The
    library's builders, ``full_readout``, ``restrict``, ``parse_readout``,
    ``channel.apply`` and ``oracle.insertion_witness_readouts``, build
    vectors that meet this by construction and hand them over through
    ``_from_valid``, which skips the check.
    """

    n: int
    classes: dict[int, tuple[int, ...]]

    def __post_init__(self):
        n, classes = self.n, self.classes
        if type(n) is not int or not 1 <= n <= MAX_LENGTH:
            raise ValueError(f"n must be an int in [1, {MAX_LENGTH}], "
                             f"got {n!r}")
        if not isinstance(classes, dict):
            raise ValueError(f"classes must be a dict, got "
                             f"{type(classes).__name__}")
        for k, counts in classes.items():
            if type(k) is not int:
                raise ValueError(f"class key {k!r} is not an int")
            if not 1 <= k <= n:
                raise ValueError(f"class {k} outside [1, {n}]")
            if (type(counts) is not tuple or len(counts) != k + 1
                    or not set(map(type, counts)) <= {int}
                    or min(counts) < 0):
                raise ValueError(f"class {k} needs a tuple of {k + 1} "
                                 f"non-negative ints, got {counts!r}")

    @classmethod
    def _from_valid(cls, n: int, classes: dict[int, tuple[int, ...]],
                    sizes: dict[int, int] | None = None,
                    weights: dict[int, int] | None = None) -> "Readout":
        """A readout of classes its builder has already made valid.

        A builder that has summed each class's size and weight passes both
        dicts, keyed like ``classes``; they stand in for ``_sizes`` and
        ``_weights``.
        """
        r = object.__new__(cls)
        r.n, r.classes = n, classes
        if sizes is not None:
            r._sizes, r._weights = sizes, weights
        return r

    @cached_property
    def _sizes(self) -> dict[int, int]:
        return {k: sum(counts) for k, counts in self.classes.items()}

    @cached_property
    def _weights(self) -> dict[int, int]:
        # sum(w * counts[w]) as the sum over t >= 1 of the windows of
        # weight >= t, each a suffix sum of counts[1:]
        return {k: sum(accumulate(counts[:0:-1]))
                for k, counts in self.classes.items()}

    @cached_property
    def _full_size(self) -> frozenset[int]:
        n = self.n
        return frozenset(k for k, size in self._sizes.items()
                         if size == n - k + 1)

    def class_size(self, k: int) -> int:
        return self._sizes.get(k, 0)

    def outweighed_classes(self) -> tuple[int, ...]:
        """Classes k that lose the symmetry comparison w_k < w_{n-k+1}.

        Only pairs of distinct classes that are both present at their
        expected size take part; a skew lowers the weight of the class it
        corrupts, so the lighter side of an unequal pair is the suspect.
        """
        n, full, weights = self.n, self._full_size, self._weights
        return tuple(k for k in sorted(full)
                     if n - k + 1 != k and n - k + 1 in full
                     and weights[k] < weights[n - k + 1])

    @cached_property
    def _untrusted(self) -> tuple[int, ...]:
        full, outweighed = self._full_size, self.outweighed_classes()
        return tuple(k for k in range(1, self.n + 1)
                     if k not in full or k in outweighed)

    def untrusted_classes(self) -> tuple[int, ...]:
        """Classes no decoder may read: missing, mis-sized or outweighed."""
        return self._untrusted

    def is_full(self) -> bool:
        return len(self._full_size) == self.n

    def total_entries(self) -> int:
        return sum(self._sizes.values())

    def weight(self, k: int) -> int:
        """Cumulative weight w_k: total count of ones over class k."""
        if k not in self.classes:
            raise MissingClassError(f"class {k} absent from readout")
        return self._weights[k]

    def restrict(self, drop: Iterable[int]) -> "Readout":
        """New readout with the given classes removed entirely."""
        dropped = set(drop)
        return Readout._from_valid(self.n, {
            k: v for k, v in self.classes.items() if k not in dropped})


def full_readout(s: str) -> Readout:
    """The complete composition multiset of s, grouped by fragment length."""
    sig = signature_of(s)
    n = len(s)
    return Readout._from_valid(n, {k: kernel.class_counts(sig, n, k)
                                   for k in range(1, n + 1)})

