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

``ERROR_MODELS`` is the one place where an error model is defined; the
models the channel draws (``MODELS``) and those the oracle scans
(``oracle.PROPERTY_MODELS``) are read off it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Sequence

from .core import Readout
from .errors import InvalidErrorSpecError, InvalidSkewError

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
                               ERROR_MODELS[self.model].check(self.targets))
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


def _partner(k: int, n: int) -> int | None:
    """The other class of k's symmetric pair, None for the centre of odd
    n.  A single-class model never corrupts a class with its partner."""
    return None if 2 * k == n + 1 else n - k + 1


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
        p = _partner(k, n)
        if p in seen:
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


def _check_capacity(e: ErrorSpec, n: int):
    """Refuse a seeded spec with more errors than length n can absorb."""
    capacity = ERROR_MODELS[e.model].capacity(n)
    if e.count > capacity:
        raise InvalidErrorSpecError(
            f"{e.model} supports at most {capacity} errors at n={n}")


def random_error(model: str, count: int, seed: int, n: int) -> ErrorSpec:
    """Seeded error spec; validates that n can absorb `count` errors."""
    spec = ErrorSpec(model, count=count, seed=seed)
    _check_capacity(spec, n)
    return spec


def _draw_asym(rng: SplitMix64, r: Readout, count: int) -> tuple:
    # drawing a class burns its partner too; the centre is excluded (it
    # is its own partner, so deleting it is never asymmetric)
    pool = [k for k in range(1, r.n + 1) if _partner(k, r.n)]
    picked = []
    for _ in range(count):
        k = rng.choice(pool)
        picked.append(k)
        pool = [j for j in pool if j not in (k, _partner(k, r.n))]
    return tuple(sorted(picked))


def _draw_pairs(rng: SplitMix64, r: Readout, count: int) -> tuple:
    pool = list(range(1, r.n // 2 + 1))
    picked = []
    for _ in range(count):
        i = rng.choice(pool)
        picked.append((i, r.n - i + 1))
        pool.remove(i)
    return tuple(sorted(picked))


def _draw_inserts(rng: SplitMix64, r: Readout, count: int) -> tuple:
    out = []
    for _ in range(count):
        k = rng.below(r.n) + 1
        w = rng.below(k + 1)
        out.append((k, (k - w, w)))
    return tuple(out)


def _draw_skews(rng: SplitMix64, r: Readout, count: int) -> tuple:
    # distinct classes, none with its partner, the centre allowed with
    # others; classes that offer no weight to shed are resampled
    pool = [k for k in range(1, r.n + 1) if k in r.classes]
    out = []
    for _ in range(count):
        while True:
            if not pool:
                raise InvalidErrorSpecError("no skewable class available")
            k = rng.choice(pool)
            counts = r.classes[k]
            total = sum(counts) - counts[0]
            if total:
                break
            pool.remove(k)
        pool = [j for j in pool if j not in (k, _partner(k, r.n))]
        pick = rng.below(total)
        for old_w in range(k, 0, -1):  # weights from k down to 1
            if pick < counts[old_w]:
                break
            pick -= counts[old_w]
        new_w = rng.below(old_w)
        out.append((k, (k - old_w, old_w), (k - new_w, new_w)))
    return tuple(out)


def _delete(r: Readout, classes) -> Readout:
    for k in classes:
        if k not in r.classes:
            raise InvalidErrorSpecError(f"class {k} already absent")
    return r.restrict(classes)


def _recount(r: Readout, moves) -> Readout:
    """r with each (k, old, new) move made: an entry ``old`` of class k, if
    given, read as ``new``.  A count is lowered only when it is at least 1,
    so every vector is valid and the copy skips ``Readout``'s check."""
    classes = dict(r.classes)
    for k, old, new in moves:
        counts = list(classes.get(k, (0,) * (k + 1)))
        if old:
            if counts[old[1]] < 1:
                raise InvalidErrorSpecError(f"no entry {old} in class {k}")
            counts[old[1]] -= 1
        counts[new[1]] += 1
        classes[k] = tuple(counts)
    return Readout._from_valid(r.n, classes)


def _classes_apart(t: int, n: int, centre_alone: bool = False):
    """At most t classes, none with its partner; with centre_alone, the
    centre of odd n only by itself."""
    for size in range(1, t + 1):
        for combo in combinations(range(1, n + 1), size):
            partners = [_partner(k, n) for k in combo]
            if not any(p in combo for p in partners) and (
                    size == 1 or not centre_alone or None not in partners):
                yield frozenset(combo)


def _pairs(t: int, n: int, consecutive: bool = False):
    """At most t symmetric pairs; with consecutive, only runs of pairs
    with consecutive first-half indices."""
    for size in range(1, t + 1):
        for combo in combinations(range(1, n // 2 + 1), size):
            if not consecutive or combo[-1] - combo[0] == size - 1:
                yield frozenset(k for i in combo for k in (i, n - i + 1))


# Per model: check(targets, n=None) validates explicit targets, without n
# at ErrorSpec construction and again in apply() with n, which adds the
# range and partner checks, and returns them as nested tuples in the order
# given; capacity(n) is the most errors a seeded spec may ask at length n;
# draw(rng, r, count), whose use of the generator seeded specs pin,
# resolves one against r; corrupt(r, targets) is what apply() does; and
# patterns(t, n) is the universe of t errors, ascending.  A side that a
# model lacks is None.
ErrorModel = namedtuple("ErrorModel", "check capacity draw corrupt patterns",
                        defaults=(None,) * 5)
ERROR_MODELS = {
    "asym_delete": ErrorModel(_asym_targets, lambda n: n // 2, _draw_asym,
                              _delete, partial(_classes_apart,
                                               centre_alone=True)),
    "sym_pair_delete": ErrorModel(
        _pair_targets, lambda n: n // 2, _draw_pairs,
        lambda r, pairs: _delete(r, [k for pair in pairs for k in pair]),
        _pairs),
    "insert": ErrorModel(
        _insert_targets, lambda n: n, _draw_inserts,
        lambda r, targets: _recount(r, [(k, None, e) for k, e in targets])),
    "consecutive_sym_pair_delete": ErrorModel(
        patterns=partial(_pairs, consecutive=True)),
    "skew": ErrorModel(_skew_targets, lambda n: n // 2 + n % 2, _draw_skews,
                       _recount, _classes_apart),
}
MODELS = tuple(name for name, model in ERROR_MODELS.items() if model.draw)


def resolve(r: Readout, e: ErrorSpec) -> ErrorSpec:
    """Explicit-target equivalent of e against readout r (for logging)."""
    if not e.is_seeded():
        return e
    _check_capacity(e, r.n)
    draw = ERROR_MODELS[e.model].draw
    return ErrorSpec(e.model, targets=draw(SplitMix64(e.seed), r, e.count))


def apply(r: Readout, e: ErrorSpec) -> Readout:
    """Corrupted copy of r; untargeted classes are untouched."""
    e = resolve(r, e)
    model = ERROR_MODELS[e.model]
    return model.corrupt(r, model.check(e.targets, r.n))
