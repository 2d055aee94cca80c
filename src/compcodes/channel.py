"""Corruption of readouts: multiset deletions, insertions, skews.

Random draws use SplitMix64 (Steele et al.'s mix of the Weyl sequence,
constants 0x9E3779B97F4A7C15 / 0xBF58476D1CE4E5B9 / 0x94D049BB133111EB)
so that a seed reproduces the same corruption on every platform and
Python version.  Explicit targets pin down worked
examples exactly; seeded specs resolve lazily against the readout they corrupt.

An entry of class k is named by its wire pair (z, w), z zeros and w ones
with z + w = k; only its weight w decides where it lands in the readout.
``ErrorSpec`` holds the one validator of every spec, wherever it comes
from: ``formats.parse_error_spec`` hands it the decoded JSON unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Readout
from .errors import InvalidErrorSpecError, InvalidSkewError

MODELS = ("asym_delete", "sym_pair_delete", "insert", "skew")

_MASK = (1 << 64) - 1


class SplitMix64:
    """Minimal deterministic 64-bit generator; documented fixed algorithm."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Unbiased draw from [0, bound) by rejection, 1 <= bound <= 2**64.

        A larger bound would leave no 64-bit draw to accept.
        """
        if not 1 <= bound <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]


@dataclass(frozen=True)
class ErrorSpec:
    """One corruption event: either explicit targets or a seeded draw.

    Target shapes by model, with each entry as its wire pair (z, w):
      asym_delete      (k, ...) class indices
      sym_pair_delete  ((i, n-i+1), ...) index pairs, in either order
      insert           ((k, (z, w)), ...) added entries
      skew             ((k, (z, w), (z', w')), ...) an entry and its
                       lighter reading, w' < w

    Lists are accepted wherever a tuple is; the spec keeps the targets as
    nested tuples in the order given, so it is hashable.  Seeded specs
    need exact ints for count (at least 1) and seed.
    """

    model: str
    targets: tuple | None = None
    count: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise InvalidErrorSpecError(f"unknown model {self.model!r}")
        explicit = self.targets is not None
        seeded = self.count is not None or self.seed is not None
        if explicit == seeded:
            raise InvalidErrorSpecError(
                "exactly one of explicit targets or count+seed is required")
        if explicit:
            object.__setattr__(self, "targets",
                               _TARGET_CHECKS[self.model](self.targets))
            return
        if self.count is None or self.seed is None:
            raise InvalidErrorSpecError("seeded specs need both count and seed")
        if _exact_int(self.count, "count") < 1:
            raise InvalidErrorSpecError("count must be >= 1")
        _exact_int(self.seed, "seed")

    def is_seeded(self) -> bool:
        return self.targets is None


def _exact_int(value, what: str) -> int:
    """value if it is an int; 2.9, True and "3" are errors, not 2, 1, 3."""
    if type(value) is not int:
        raise InvalidErrorSpecError(
            f"{what} must be an integer, got {value!r}")
    return value


def _items(value, what: str, arity: int | None = None) -> tuple:
    """value as a tuple: a list or tuple, of exactly ``arity`` items if
    given.  Anything else, a string or a dict included, is an error."""
    if not isinstance(value, (list, tuple)) or arity not in (None, len(value)):
        size = "" if arity is None else f" of {arity} items"
        raise InvalidErrorSpecError(f"{what} must be a list{size}, "
                                    f"got {value!r}")
    return tuple(value)


def _entry(value) -> tuple[int, int]:
    """An entry's wire pair (z, w): exact ints z, w >= 0, z + w >= 1."""
    z, w = (_exact_int(x, "an entry's zero and one counts")
            for x in _items(value, "an entry", 2))
    if z < 0 or w < 0 or z + w < 1:
        raise InvalidErrorSpecError(f"invalid entry {value!r}")
    return z, w


# One validator per model.  With n=None (at ErrorSpec construction) they
# check everything that does not depend on the readout length; apply()
# calls them again with n to add the range and partner checks.  Each
# returns the targets as nested tuples, in the order given.

def _asym_targets(targets, n=None) -> tuple[int, ...]:
    classes = tuple(_exact_int(k, "class index")
                    for k in _items(targets, "targets"))
    seen = set(classes)
    if len(seen) != len(classes):
        raise InvalidErrorSpecError("duplicate deletion targets")
    for k in classes:
        if k < 1:
            raise InvalidErrorSpecError("class indices start at 1")
        if n is None:
            continue
        if k > n:
            raise InvalidErrorSpecError(f"class {k} outside [1, {n}]")
        p = n - k + 1
        if p != k and p in seen:
            raise InvalidErrorSpecError(
                f"classes {k} and {p} are mutually symmetric")
    return classes


def _pair_targets(targets, n=None) -> tuple[tuple[int, int], ...]:
    pairs = []
    seen = set()
    for item in _items(targets, "targets"):
        pair = tuple(_exact_int(k, "class index")
                     for k in _items(item, "a class pair", 2))
        i, j = sorted(pair)
        if i == j or i < 1 or (n is not None and j != n - i + 1):
            raise InvalidErrorSpecError(f"({i}, {j}) is not a symmetric pair")
        if (i, j) in seen:
            raise InvalidErrorSpecError(f"duplicate pair ({i}, {j})")
        seen.add((i, j))
        pairs.append(pair)
    return tuple(pairs)


def _insert_targets(targets, n=None) -> tuple[tuple[int, tuple], ...]:
    out = []
    for item in _items(targets, "targets"):
        k, entry = _items(item, "an insert target", 2)
        k, entry = _exact_int(k, "class index"), _entry(entry)
        if sum(entry) != k or (n is not None and k > n):
            raise InvalidErrorSpecError(
                f"inserted entry {entry} does not fit class {k}")
        out.append((k, entry))
    return tuple(out)


def _skew_targets(targets, n=None) -> tuple[tuple[int, tuple, tuple], ...]:
    out = []
    seen = set()
    for item in _items(targets, "targets"):
        k, old, new = _items(item, "a skew target", 3)
        k, old, new = _exact_int(k, "class index"), _entry(old), _entry(new)
        if sum(old) != k or (n is not None and k > n):
            raise InvalidErrorSpecError(f"entry {old} does not fit class {k}")
        if sum(new) != k:
            raise InvalidSkewError("skew must preserve fragment length")
        if new[1] >= old[1]:
            raise InvalidSkewError(
                "skew must strictly lower the weight (mass under-read)")
        if k in seen:
            raise InvalidErrorSpecError(f"class {k} skewed twice")
        seen.add(k)
        out.append((k, old, new))
    return tuple(out)


_TARGET_CHECKS = {
    "asym_delete": _asym_targets,
    "sym_pair_delete": _pair_targets,
    "insert": _insert_targets,
    "skew": _skew_targets,
}


def _check_capacity(e: ErrorSpec, n: int):
    """Refuse a seeded spec with more errors than length n can absorb."""
    capacity = {
        "asym_delete": n // 2,
        "sym_pair_delete": n // 2,
        "skew": n // 2 + n % 2,
        "insert": n,
    }[e.model]
    if e.count > capacity:
        raise InvalidErrorSpecError(
            f"{e.model} supports at most {capacity} errors at n={n}")


def random_error(model: str, count: int, seed: int, n: int) -> ErrorSpec:
    """Seeded error spec; validates that n can absorb `count` errors."""
    spec = ErrorSpec(model, count=count, seed=seed)
    _check_capacity(spec, n)
    return spec


def _draw_targets(r: Readout, e: ErrorSpec) -> tuple:
    n = r.n
    rng = SplitMix64(e.seed)
    if e.model == "asym_delete":
        # drawing a class burns its partner too; center excluded (it is
        # its own partner, so deleting it is never asymmetric)
        pool = [k for k in range(1, n + 1) if n - k + 1 != k]
        picked = []
        for _ in range(e.count):
            k = rng.choice(sorted(pool))
            picked.append(k)
            pool.remove(k)
            pool.remove(n - k + 1)
        return tuple(sorted(picked))
    if e.model == "sym_pair_delete":
        pool = list(range(1, n // 2 + 1))
        picked = []
        for _ in range(e.count):
            i = rng.choice(pool)
            picked.append((i, n - i + 1))
            pool.remove(i)
        return tuple(sorted(picked))
    if e.model == "insert":
        out = []
        for _ in range(e.count):
            k = rng.below(n) + 1
            w = rng.below(k + 1)
            out.append((k, (k - w, w)))
        return tuple(out)
    # skew: distinct classes, no two mutually symmetric, resampling
    # classes that offer no weight to shed
    pool = [k for k in range(1, n + 1) if k in r.classes]
    out = []
    for _ in range(e.count):
        while True:
            if not pool:
                raise InvalidErrorSpecError("no skewable class available")
            k = rng.choice(sorted(pool))
            counts = r.classes[k]
            total = sum(counts) - counts[0]
            if not total:
                pool.remove(k)
                continue
            break
        pool.remove(k)
        p = n - k + 1
        if p in pool:
            pool.remove(p)
        pick = rng.below(total)
        # weights from k down to 1: seeded draws are pinned across
        # versions, so this order must not change
        for old_w in range(k, 0, -1):
            if pick < counts[old_w]:
                break
            pick -= counts[old_w]
        new_w = rng.below(old_w)
        out.append((k, (k - old_w, old_w), (k - new_w, new_w)))
    return tuple(out)


def resolve(r: Readout, e: ErrorSpec) -> ErrorSpec:
    """Explicit-target equivalent of e against readout r (for logging)."""
    if not e.is_seeded():
        return e
    _check_capacity(e, r.n)
    return ErrorSpec(e.model, targets=_draw_targets(r, e))


def apply(r: Readout, e: ErrorSpec) -> Readout:
    """Corrupted copy of r; untargeted classes are untouched.

    The targets are checked against r.n before any vector changes, and a
    skew lowers a count only when it is at least 1, so every vector built
    here is valid and the copy skips ``Readout``'s check.
    """
    e = resolve(r, e)
    n = r.n
    targets = _TARGET_CHECKS[e.model](e.targets, n)
    if e.model == "sym_pair_delete":
        targets = [k for pair in targets for k in pair]
    if e.model in ("asym_delete", "sym_pair_delete"):
        for k in targets:
            if k not in r.classes:
                raise InvalidErrorSpecError(f"class {k} already absent")
        return r.restrict(targets)
    classes = dict(r.classes)
    if e.model == "insert":
        for k, (_, w) in targets:
            counts = list(classes.get(k, (0,) * (k + 1)))
            counts[w] += 1
            classes[k] = tuple(counts)
        return Readout._from_valid(n, classes)
    for k, old, new in targets:
        old_w, new_w = old[1], new[1]
        if k not in r.classes or classes[k][old_w] < 1:
            raise InvalidErrorSpecError(f"no entry {old} in class {k}")
        counts = list(classes[k])
        counts[old_w] -= 1
        counts[new_w] += 1
        classes[k] = tuple(counts)
    return Readout._from_valid(n, classes)
