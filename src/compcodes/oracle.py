"""Brute-force ground truth: class counts, code property verification
and confusable-pair search.  Two strings share their full composition
multiset exactly when their ``core.signature_of`` bytes are equal.
Each error model's deletion patterns are its universe in
``channel.ERROR_MODELS``, the one place where an error model is defined.

Verification signs the codebook in two ``kernel.signatures`` calls on
its concatenated strings, and reads each signature as a big-endian
integer.  It lists the pairs of members that can collide at all, reads
once for each pair the set of classes where the two differ, and then
walks the deletion patterns: a pattern confuses a pair exactly when it
contains the pair's differing classes, so no pattern is ever masked
over the members.

The candidate pairs come from the pigeonhole filter of approximate
matching (split the key into t + 1 pieces, one of which must match
exactly; Wu and Manber, CACM 1992).  Class k has the pair index
i = min(k, n + 1 - k).  No pattern touches more than t pair indices:
asym_delete and skew delete at most t classes and never a class with
its partner, and the pair models at most t pairs.  So the groups are
made from the t that the sweep is asked for, and no pattern is read to
make them.  Each pattern misses one of the t + 1 groups of classes
whose pair index is g modulo t + 1, and two members that it confuses
agree on that whole group.  One ``kernel.kept_mask`` per group, over the
classes of the group, buckets the members by their masked signature,
and every two members of a bucket are a candidate pair: every pair that
any pattern confuses is one.  A pair that agrees on several groups is
listed once, under the first.  With fewer than t + 1 pair indices a
group is empty, every member shares its one bucket, and every pair is a
candidate.

The filter runs in two stages, so that no class of a member is signed
twice.  Classes 1..m, m = ceil(n/2), hold exactly one class of each pair
index.  The first stage signs only those, for every member, and keeps
per group the members that share the group's lower classes with
another: two members that agree on a whole group agree on its lower
classes too, so no candidate pair is lost.  The second stage signs
classes m+1..n of the members kept by some group only, joins the two
parts into whole signatures, and buckets each group among the members
that group kept.  ``find_confusable_pair(16, "sym_pair_delete", 2)``
signs the upper classes of 1 016 of SR(16)'s 3 872 members and finds 241
candidate pairs, with 26 distinct sets of differing classes.  Clean
sweeps of SDSprime:16,t=2 under two consecutive pairs keep 22-31 of
their 763-784 members in the first stage (a = 0..4), find no candidate
pair, and draw no pattern.  At t = 3 under ``asym_delete``, SR(18) has
6 954 candidate pairs in 323 sets and SR(20) 14 680 in 678.

Each set of differing classes keeps only its lexicographically smallest
pair, so what is held grows with the number of distinct sets, not of
pairs.  The time still grows with the pairs: past t of about n/4 the
groups are one or two pair indices wide, most members share a bucket,
and at SR:16 the scan is slower than masking each pattern was (ROADMAP
item 25).  The patterns are drawn lazily, in the fixed order of
``deletion_patterns``, until the first that contains some set.  Two
members that this pattern confuses are a candidate pair whose set
it contains, so the smallest of those sets' pairs is the pattern's
lexicographically smallest colliding pair: the first member whose
masked key repeats and the next with that key, the witness that masking
the pattern over every member would give.  It is checked again with
``ConfusabilityWitness.verify``, which signs its two strings one at a
time with ``kernel.full_signature``.  ``colliding_pairs`` reads the same
candidate pass and lists every pair that some pattern confuses.

``count_classes`` likewise signs classes 1..m of all its strings in one
batch.  A string whose lower classes no other string shares is alone in
its class; only the strings that share them get classes m+1..n signed
and are partitioned by whole signature (153 of the 8 256 strings at
n = 14).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations, compress, count, product, repeat
from operator import ne

from . import channel, kernel
from .codebooks import CodebookSpec, enumerate_codebook
from .core import Readout, bits_to_bytes, full_readout, signature_of
from .errors import ResourceCapError

PROPERTY_MODELS = tuple(name for name, model in channel.ERROR_MODELS.items()
                        if model.patterns)

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


def max_code_bound(n: int) -> int:
    """Upper bound 2^(n-1) + 2^(ceil(n/2)-1) on reconstructable-code size."""
    return 2 ** (n - 1) + 2 ** ((n + 1) // 2 - 1)


def count_classes(n: int, cap: int = DEFAULT_CAP) -> tuple[int, list[str]]:
    """Partition {0,1}^n by readout; returns the class count and the
    lexicographically smallest representative of each class."""
    if type(n) is not int:  # 12.5 and True are errors
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"count_classes needs n >= 1, got n={n}")
    if n > cap:
        raise ResourceCapError(f"count_classes capped at n <= {cap}")
    strings = _class_candidates(n)
    m = (n + 1) // 2
    lower = kernel.signatures(bits_to_bytes("".join(strings)), n, m)
    # dict() keeps each key's last value: listed downward, the smallest
    reps = dict(zip(lower, strings))
    if len(reps) < len(strings):
        # only strings that share their lower classes with another may
        # share a readout.  Those that are not their lower key's smallest
        # come first, downward, then the smallest of each such key, so
        # that the dict of whole signatures again keeps the smallest
        pairs = list(compress(zip(lower, strings),
                              map(ne, map(reps.__getitem__, lower), strings)))
        pairs += [(key, reps.pop(key)) for key in dict(pairs)]
        keys, shared = zip(*pairs)
        upper = kernel.signatures(bits_to_bytes("".join(shared)), n, n, m + 1)
        reps.update(zip(map(bytes.__add__, keys, upper), shared))
    return len(reps), sorted(reps.values())


def _class_candidates(n: int) -> list[str]:
    """The length-n strings no larger than their reversal, downward.

    A string and its reversal share a readout, so a class's smallest
    member is never larger than its reversal.  s = a + m + b, from halves
    a and b and the middle bit m of odd n, is no larger than its reversal
    exactly when a <= b[::-1]: only the halves are formatted and reversed.
    """
    halves = list(map("".join, product("10", repeat=n // 2)))  # downward
    mirrored = [(b, b[::-1]) for b in halves]
    return [a + m + b for a in halves for m in ("10" if n % 2 else [""])
            for b, b_reversed in mirrored if a <= b_reversed]


def _check_model(model: str, t: int) -> None:
    if model not in PROPERTY_MODELS:
        raise ValueError(f"unknown model {model!r}")
    if type(t) is not int:  # 2.5 and True are errors
        raise ValueError(f"t must be an int, got {t!r}")
    if t < 1:
        raise ValueError(f"deletion patterns need t >= 1, got t={t}")


def deletion_patterns(model: str, t: int, n: int):
    """The empty set, then the model's universe in ``channel.ERROR_MODELS``:
    the class sets that at most t errors at length n corrupt, ascending."""
    _check_model(model, t)
    yield frozenset()
    yield from channel.ERROR_MODELS[model].patterns(t, n)


def _group_masks(n, t) -> list[int]:
    """One ``kernel.kept_mask`` per group of classes whose pair index is g
    modulo t + 1, over that group's classes."""
    return [kernel.kept_mask(n, [k for k in range(1, n + 1)
                                 if min(k, n + 1 - k) % (t + 1) != g])
            for g in range(t + 1)]


def _repeated(keys) -> list[int]:
    """The positions, ascending, of the keys that occur more than once."""
    counts = Counter(keys)
    if len(counts) == len(keys):
        return []
    return list(compress(count(), map((1).__lt__,
                                      map(counts.__getitem__, keys))))


def _candidate_pairs(members, n, t):
    """Every pair of members that agrees on a whole group of classes, once,
    as ((i, j), the classes where the two differ), with positions i < j."""
    masks = _group_masks(n, t)
    # classes 1..m hold one class of each pair index: each group is first
    # filtered on them alone, by its mask shifted past classes m+1..n
    m = (n + 1) // 2
    end = kernel.class_slice_bounds(n, n)[1]
    shift = 8 * (end - kernel.class_slice_bounds(n, m)[1])
    lower = kernel.signatures(bits_to_bytes("".join(members)), n, m)
    keys = list(map(int.from_bytes, lower, repeat("big")))
    groups = [_repeated(list(map((mask >> shift).__and__, keys)))
              for mask in masks]
    kept = sorted(set().union(*groups))
    if len(kept) < 2:
        return
    # only the members a group kept get classes m+1..n signed, and each
    # group is bucketed on whole signatures among those it kept: two
    # members that agree on a whole group agree on its lower classes
    upper = kernel.signatures(
        bits_to_bytes("".join(map(members.__getitem__, kept))), n, n, m + 1)
    sig_at = dict(zip(kept, map(int.from_bytes, map(
        bytes.__add__, map(lower.__getitem__, kept), upper), repeat("big"))))
    classes = range(1, n + 1)
    class_masks = [(1 << 8 * (hi - lo)) - 1 << 8 * (end - hi)
                   for lo, hi in map(kernel.class_slice_bounds,
                                     repeat(n), classes)]
    for g, (mask, group) in enumerate(zip(masks, groups)):
        keys = list(map(mask.__and__, map(sig_at.__getitem__, group)))
        buckets = {}
        for r in _repeated(keys):
            buckets.setdefault(keys[r], []).append(group[r])
        for bucket in buckets.values():
            for i, j in combinations(bucket, 2):
                differ = sig_at[i] ^ sig_at[j]
                # a pair that agrees on an earlier group was listed there
                if all(map(differ.__and__, masks[:g])):
                    yield (i, j), frozenset(compress(
                        classes, map(differ.__and__, class_masks)))


def _collision_scan(members, n, t, patterns) -> ConfusabilityWitness | None:
    # each set of differing classes keeps its lexicographically smallest
    # pair: members are in lexicographic order
    smallest = {}
    for pair, differing in _candidate_pairs(members, n, t):
        if smallest.setdefault(differing, pair) > pair:
            smallest[differing] = pair
    if not smallest:
        return None
    for pattern in patterns:
        inside = list(filter(pattern.__ge__, smallest))
        if inside:
            break
    else:
        return None
    first, second = min(map(smallest.__getitem__, inside))
    witness = ConfusabilityWitness(members[first], members[second],
                                   frozenset(pattern))
    # verify() signs the pair again with full_signature: a fault in
    # the batch kernel must not pass as a finding
    if not witness.verify():
        raise RuntimeError(f"batch signatures disagree with "
                           f"full_signature on {witness}")
    return witness


def colliding_pairs(spec: CodebookSpec, model: str, t: int,
                    cap: int = DEFAULT_CAP):
    """Every pair of codewords that some pattern of the model with at most
    t errors confuses, once each, as (s, v, the classes where they
    differ) with s < v, group by group of the scan's candidate pass."""
    _check_model(model, t)
    if spec.n > cap:
        raise ResourceCapError(f"pair listing capped at n <= {cap}")
    members = enumerate_codebook(spec)
    patterns = list(deletion_patterns(model, t, spec.n))
    # one look at the universe per distinct set of differing classes
    inside = cache(lambda differing: any(map(differing.__le__, patterns)))
    return ((members[i], members[j], differing)
            for (i, j), differing in _candidate_pairs(members, spec.n, t)
            if inside(differing))


def verify_code_property(spec: CodebookSpec, model: str, t: int,
                         cap: int = DEFAULT_CAP) -> ConfusabilityWitness | None:
    """Exhaustively check the deletion-correction property of a codebook.

    Returns None when no two codewords become indistinguishable under any
    pattern of the model with at most t errors, otherwise the first
    witness in scan order.
    """
    # deletion_patterns checks these only once iterated, after the
    # codebook is enumerated and signed
    _check_model(model, t)
    if spec.n > cap:
        raise ResourceCapError(f"verification capped at n <= {cap}")
    members = enumerate_codebook(spec)
    return _collision_scan(members, spec.n, t,
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
    return (Readout._from_valid(r_s.n, merged_s),
            Readout._from_valid(r_v.n, merged_v))
