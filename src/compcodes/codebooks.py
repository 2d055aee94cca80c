"""Codebook families: membership, enumeration, rank/unrank, size bounds.

Families
--------
SR        reconstruction code: fixed endpoints plus a Catalan-Bertrand
          constraint on the bits at anti-symmetric mirror positions.
SCA1      single-substitution code (odd lengths): an SR core with two
          extra bits, even total weight and a mod-3 weight-sum residue.
SDA       t-asymmetric-deletion code: SR shape with at least t anti-
          symmetric positions and a t-dominated prefix constraint.
SDS2      2-symmetric-pair-deletion code: SR plus a mod-7 residue on the
          first-half weight sum.
SDSprime  t-consecutive-symmetric-pair-deletion code: SR plus a residue
          modulo A(t) on the first-half weight sum.

Every family but SCA1 is SR-shaped: fixed ends, and each mirror pair
(i, n+1-i), i = 2..n//2, is either equal or selected (unequal).  One
predicate and one pair walk, both parameterised by the domination depth
of the selected bits and the least number of selected pairs, decide and
list these shapes: SR is (1, 0), SDA is (t, t).  SCA1 lifts two bits out
of an SR core.  The residue is a linear form, sum_i s_i c_i, whose
per-length coefficients count the first-half windows covering each bit.
The walk carries that sum from pair to pair, so SDS2 and SDSprime are
listed by one walk that keeps the leaves with the wanted residue; SR(n)
is never listed for them.  SCA1 filters its lifted SR core by parity and
residue.

Encoding is enumerative: rank/unrank index the lexicographic member list.
A spec keeps that list after its first use, and after its first rank a
table from member to index, so an op is one attribute load plus a dict
lookup (rank) or an index (unrank).  The list is the one shared tuple of
``_members`` and the table the one shared dict of ``_member_index``, each
kept in a slot outside the spec's value: equality, hash, repr,
``dataclasses.asdict``, ``vars`` and pickling never see them.  The table
costs 65-180 ns and about 85 bytes per member to build, once per
codebook (27-29 ms and 16 MB at SR:22), and saves 0.2-0.27 us per rank.
Each store keeps the 32 codebooks used last, as the decoder's signature
store does; a spec keeps what it took from them for as long as it lives,
and an evicted codebook is listed again at its next use by a fresh spec.
The bound counts codebooks, not members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .core import check_bits
from .errors import ResourceCapError

FAMILIES = ("SR", "SCA1", "SDA", "SDS2", "SDSprime")

ENUMERATION_CAP = 26


def modulus_A(t: int) -> int:
    """Residue modulus for the consecutive-pair family: ceil(4t^3/3 + 2t/3 - 31/4)."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    num = 16 * t ** 3 + 8 * t - 93  # over denominator 12
    return -(-num // 12)


class _KeepsMembers:
    """The slots a spec keeps its member tuple and its member-to-index
    table in, outside its ``__dict__``."""

    __slots__ = ("_codebook", "_index")

    def __getstate__(self):
        # pickle only the fields, so a used spec pickles as a fresh one
        return self.__dict__


@dataclass(frozen=True)
class CodebookSpec(_KeepsMembers):
    """Family tag plus parameters; the modulus is always derived."""

    family: str
    n: int
    t: int = 1
    a: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for field in ("n", "t", "a"):
            value = getattr(self, field)
            if type(value) is not int:  # 12.5, 2.0 and True are errors
                raise ValueError(f"{field} must be an int, got {value!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.family in ("SR", "SCA1", "SDS2") and self.t != 1:
            raise ValueError(f"{self.family} takes no t parameter (fixed 1)")
        if self.family == "SDA" and self.t < 1:
            raise ValueError("SDA requires t >= 1")
        if self.family == "SDSprime":
            if self.t < 2:
                raise ValueError("SDSprime requires t >= 2")
            if self.n < 2 * self.t + 4:
                raise ValueError("SDSprime requires n >= 2t + 4")
        if self.family in ("SR", "SDA") and self.a != 0:
            raise ValueError(f"{self.family} takes no residue parameter")
        mod = self.modulus
        if mod is not None and not 0 <= self.a < mod:
            raise ValueError(f"residue a={self.a} outside [0, {mod})")

    @property
    def modulus(self) -> int | None:
        if self.family == "SDS2":
            return 7
        if self.family == "SDSprime":
            return modulus_A(self.t)
        if self.family == "SCA1":
            return 3
        return None

    def key(self) -> tuple:
        return (self.family, self.n, self.t, self.a)


def is_t_dominated(x: str, t: int) -> bool:
    """True iff every prefix of length >= t has at least t more zeros than ones.

    Prefixes shorter than t are unconstrained; the length-t condition
    already forces them to be all zeros.  For t=1 this is exactly the
    strict Catalan-Bertrand condition.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    diff = 0
    for i, c in enumerate(x):
        diff += 1 if c == "0" else -1
        if i + 1 >= t and diff < t:
            return False
    return True


def is_catalan_bertrand(x: str) -> bool:
    """True iff every nonempty prefix has strictly more zeros than ones."""
    return is_t_dominated(x, 1)


def antisymmetric_index_set(s: str) -> frozenset[int]:
    """First-half positions i in {2..floor(n/2)} with s_i != s_{n+1-i}.

    The existential index set of the SR definition is forced by the
    equal/unequal dichotomy, so it is computed, never guessed.
    """
    n = len(s)
    return frozenset(i for i in range(2, n // 2 + 1) if s[i - 1] != s[n - i])


def _shape(spec: CodebookSpec) -> tuple[int, int]:
    """(domination depth, least selected pairs) of an SR-shaped family."""
    return (spec.t, spec.t) if spec.family == "SDA" else (1, 0)


def _is_sr_shaped(s: str, depth: int, least: int) -> bool:
    """Fixed ends, at least ``least`` selected mirror pairs, and selected
    bits forming a ``depth``-dominated string.  The centre bit of odd n
    sits in no mirror pair, so it is free."""
    if s[0] != "0" or s[-1] != "1":
        return False
    idx = sorted(antisymmetric_index_set(s))
    return len(idx) >= least and is_t_dominated("".join(s[i - 1] for i in idx), depth)


def _sr_shaped_strings(n: int, depth: int, least: int,
                       modulus: int, residue: int) -> list[str]:
    """Every length-n string that ``_is_sr_shaped`` accepts and whose
    weight-sum residue ``sum_i s_i c_i mod modulus`` is ``residue``,
    unordered.  Modulus 1 keeps every shape (SR, SDA).

    Walks the mirror pairs i = 2..n//2.  A pair is equal (00 or 11) or
    selected (s_i != s_{n+1-i}); the state is the number of selected pairs,
    the ballot excess (zeros minus ones) of the selected bits so far, and
    the running sum r of c_i over the 1 bits placed: the ends start it at
    c_n, a 11 pair adds c_i + c_{n+1-i}, a selected pair the coefficient
    of its 1 bit, and the centre bit of odd n c_{(n+1)/2}.
    """
    half = n // 2
    c = _residue_coefficients(n)
    centres = (("0", 0), ("1", c[half])) if n % 2 else (("", 0),)
    out: list[str] = []
    append = out.append

    def walk(i: int, head: str, tail: str, selected: int, excess: int, r: int):
        if i > half:
            if selected >= least:
                for bit, w in centres:
                    if (r + w) % modulus == residue:
                        append(head + bit + tail)
            return
        ci, cj = c[i - 1], c[n - i]
        i += 1
        walk(i, head + "0", "0" + tail, selected, excess, r)
        walk(i, head + "1", "1" + tail, selected, excess, r + ci + cj)
        if selected + 1 < depth or excess + 1 >= depth:
            walk(i, head + "0", "1" + tail, selected + 1, excess + 1, r + cj)
        # the first depth selected bits must all be 0, and while they are
        # placed excess = selected < depth, so this also keeps out a 1 there
        if excess - 1 >= depth:
            walk(i, head + "1", "0" + tail, selected + 1, excess - 1, r + ci)

    try:
        walk(2, "0", "1", 0, 0, c[n - 1])
    finally:
        del walk  # its cell holds it: break the cycle on return or raise
    return out


@lru_cache(maxsize=None)
def _residue_coefficients(n: int) -> tuple[int, ...]:
    """c_i = sum_{k <= h} min(i, k, n-k+1, n-i+1), h = ceil(n/2).

    The summand counts the length-k windows that cover position i, so
    w_1 + ... + w_h = sum_i s_i c_i.  With m = min(i, n-i+1) <= h the sum
    is 1 + ... + m plus (h - m) copies of m.
    """
    h = (n + 1) // 2
    return tuple(m * (2 * h - m + 1) // 2
                 for m in (min(i, n - i + 1) for i in range(1, n + 1)))


def weight_sum_mod(s: str, modulus: int) -> int:
    """Sum of the first ceil(n/2) cumulative weights, reduced mod modulus."""
    return sum(c for c, b in zip(_residue_coefficients(len(s)), s) if b == "1") % modulus


def _is_sca1_shaped(s: str) -> bool:
    """An SR core with bits 2 and n-1 lifted out, s_2 <= s_{n-1}, even weight."""
    n = len(s)
    return (n >= 4 and s[1] <= s[-2] and s.count("1") % 2 == 0
            and _is_sr_shaped(s[0] + s[2: n - 2] + s[-1], 1, 0))


def is_member(spec: CodebookSpec, s: str) -> bool:
    """Evaluate the family membership predicate."""
    check_bits(s)
    if len(s) != spec.n:
        raise ValueError(f"string length {len(s)} != spec n {spec.n}")
    if spec.family == "SCA1":
        if not _is_sca1_shaped(s):
            return False
    elif not _is_sr_shaped(s, *_shape(spec)):
        return False
    return spec.modulus is None or weight_sum_mod(s, spec.modulus) == spec.a


@lru_cache(maxsize=32)
def _members(key: tuple) -> tuple[str, ...]:
    # keyed by the plain tuple: a dataclass key would run Python-level
    # __hash__ and __eq__ on every rank/unrank lookup
    spec = CodebookSpec(*key)
    n = spec.n
    if spec.family == "SCA1":  # the SR core needs length n - 2 >= 2
        raw = [] if n < 4 else [
            inner[0] + star1 + inner[1: n - 3] + star2 + inner[-1]
            for inner in _members(("SR", n - 2, 1, 0))
            for star1, star2 in ("00", "01", "11")
            if (inner + star1 + star2).count("1") % 2 == 0]
        raw = [s for s in raw if weight_sum_mod(s, spec.modulus) == spec.a]
    else:
        raw = _sr_shaped_strings(n, *_shape(spec), spec.modulus or 1, spec.a)
    return tuple(sorted(raw))


@lru_cache(maxsize=32)
def _member_index(key: tuple) -> dict[str, int]:
    """Member to lexicographic index: one dict per codebook, shared by
    every spec of it."""
    members = _members(key)
    return dict(zip(members, range(len(members))))


def _keep(spec: CodebookSpec, slot: str, table):
    """``table(spec.key())``, kept in the spec's slot once the cap check
    passes; a capped spec keeps nothing, so every call on it raises again."""
    if spec.n > ENUMERATION_CAP:
        raise ResourceCapError(
            f"enumeration capped at n <= {ENUMERATION_CAP}, got n={spec.n}")
    value = table(spec.key())
    object.__setattr__(spec, slot, value)  # the spec is frozen
    return value


def enumerate_codebook(spec: CodebookSpec) -> tuple[str, ...]:
    """All members in lexicographic order."""
    try:
        return spec._codebook
    except AttributeError:
        return _keep(spec, "_codebook", _members)


def size(spec: CodebookSpec) -> int:
    return len(enumerate_codebook(spec))


def rank(spec: CodebookSpec, s: str) -> int:
    """Index of s in the lexicographic member list.

    The first rank of a codebook in a process builds its member-to-index
    table (enumerating it first if need be), 65-180 ns per member; every
    rank after that, on any spec of that codebook, is one dict lookup.
    """
    try:
        index = spec._index
    except AttributeError:
        index = _keep(spec, "_index", _member_index)
    try:
        return index[s]
    except (KeyError, TypeError):  # TypeError: s is unhashable
        pass
    if not isinstance(s, str):
        raise TypeError(f"expected str of bits, got {type(s).__name__}")
    raise ValueError(f"{s} is not a member of {spec}")


def unrank(spec: CodebookSpec, index: int) -> str:
    """Member at the given lexicographic index."""
    try:
        members = spec._codebook
    except AttributeError:
        members = _keep(spec, "_codebook", _members)
    if type(index) is not int:  # True, 1.0 and "1" are errors
        raise ValueError(f"index must be an int, got {index!r}")
    if not 0 <= index < len(members):
        raise ValueError(f"index {index} outside [0, {len(members)})")
    return members[index]


def redundancy_bound(spec: CodebookSpec) -> float:
    """Published upper bound on n - log2(codebook size) for the family.

    The SCA1, SDS2 and SDA bounds take log2(n - 2) or log2(n - 2t), so
    they are stated from n = 3 or n = 2t + 1 on; shorter specs raise
    ValueError.
    """
    n, t = spec.n, spec.t
    least = {"SCA1": 3, "SDS2": 3, "SDA": 2 * t + 1}.get(spec.family, 2)
    if n < least:
        raise ValueError(f"the {spec.family} redundancy bound is stated "
                         f"for n >= {least}, got n={n}")
    if spec.family == "SR":
        return 0.5 * math.log2(n) + 5
    if spec.family == "SCA1":
        return 0.5 * math.log2(n - 2) + 8
    if spec.family == "SDA":
        return 0.5 * math.log2(n - 2 * t) + 2 * t + 3
    if spec.family == "SDS2":
        return 0.5 * math.log2(n - 2) + 8
    return 0.5 * math.log2(n - 2) + math.log2(modulus_A(t)) + 5


def size_lower_bound(spec: CodebookSpec) -> float:
    """Binomial-sum lower bound on the SDA codebook size (even n)."""
    if spec.family != "SDA":
        raise ValueError("size lower bound is defined for the SDA family only")
    n, t = spec.n, spec.t
    if n % 2:
        raise ValueError("the counting bound is stated for even n")
    half = n // 2
    # twice the sum, whose powers of 2 are then whole: i < half, so
    # half - 1 - i >= 0, and int / int rounds once, as a Fraction would
    total2 = sum(2 ** (half - 1 - i)
                 * math.comb(half - 1, i)
                 * math.comb(i - t + 1, (i - t + 1) // 2)
                 for i in range(t, half))
    return total2 / 2


def measured_redundancy(spec: CodebookSpec) -> float:
    """n - log2(enumerated size); infinite for an empty codebook."""
    count = size(spec)
    if count == 0:
        return math.inf
    return spec.n - math.log2(count)
