"""Codebook predicates, enumeration, rank/unrank and size accounting."""

import dataclasses
import hashlib
import math
import pickle
import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import pytest

from compcodes import codebooks
from compcodes.codebooks import (
    CodebookSpec,
    antisymmetric_index_set,
    enumerate_codebook,
    is_catalan_bertrand,
    is_member,
    is_t_dominated,
    measured_redundancy,
    modulus_A,
    rank,
    redundancy_bound,
    size,
    size_lower_bound,
    unrank,
    weight_sum_mod,
)
from compcodes.core import full_readout
from compcodes.errors import ResourceCapError


def all_strings(n):
    return (format(x, f"0{n}b") for x in range(2 ** n))


def test_catalan_bertrand_examples():
    assert is_catalan_bertrand("001")
    assert not is_catalan_bertrand("01")
    assert is_catalan_bertrand("0010")
    assert is_catalan_bertrand("")  # vacuous


def test_catalan_bertrand_counts():
    # even lengths 2h contain C(2h, h)/2 such strings
    for h in (1, 2, 3, 4):
        count = sum(map(is_catalan_bertrand, all_strings(2 * h)))
        assert count == math.comb(2 * h, h) // 2


def test_t_dominated_examples():
    assert is_t_dominated("001", 1)
    assert is_t_dominated("0001", 2)
    assert not is_t_dominated("0101", 2)
    # t=1 reduces to the strict Catalan-Bertrand predicate
    for s in all_strings(6):
        assert is_t_dominated(s, 1) == is_catalan_bertrand(s)


def test_sr_membership_examples():
    assert is_member(CodebookSpec("SR", 9), "001010111")
    assert is_member(CodebookSpec("SR", 2), "01")
    assert not is_member(CodebookSpec("SR", 2), "10")
    members4 = [s for s in all_strings(4) if is_member(CodebookSpec("SR", 4), s)]
    assert members4 == ["0001", "0011", "0111"]


def test_antisymmetric_index_set_example():
    # center-deleted worked example: I inside the first half is {2}
    assert antisymmetric_index_set("00100111") == frozenset({2})


def test_enumeration_examples():
    assert enumerate_codebook(CodebookSpec("SR", 2)) == ("01",)
    assert enumerate_codebook(CodebookSpec("SR", 3)) == ("001", "011")
    assert enumerate_codebook(CodebookSpec("SR", 4)) == ("0001", "0011", "0111")


@pytest.mark.parametrize("spec", [
    CodebookSpec("SR", 6), CodebookSpec("SR", 7), CodebookSpec("SR", 8),
    CodebookSpec("SR", 9), CodebookSpec("SR", 10),
    CodebookSpec("SDA", 8, t=2), CodebookSpec("SDA", 10, t=2),
    CodebookSpec("SDA", 9, t=2), CodebookSpec("SDA", 10, t=3),
    CodebookSpec("SDS2", 10, a=0), CodebookSpec("SDS2", 10, a=4),
    CodebookSpec("SDSprime", 10, t=2, a=0), CodebookSpec("SDSprime", 10, t=2, a=3),
    CodebookSpec("SCA1", 9), CodebookSpec("SCA1", 9, a=1),
    CodebookSpec("SR", 15), CodebookSpec("SR", 16),
    CodebookSpec("SDA", 16, t=2), CodebookSpec("SDA", 15, t=3),
    CodebookSpec("SDS2", 16, a=3), CodebookSpec("SDSprime", 16, t=2, a=1),
    CodebookSpec("SCA1", 15, a=2), CodebookSpec("SCA1", 2), CodebookSpec("SCA1", 3),
])
def test_enumeration_agrees_with_membership_scan(spec):
    # constructive enumeration vs the independent exhaustive filter
    expected = tuple(s for s in all_strings(spec.n) if is_member(spec, s))
    assert enumerate_codebook(spec) == expected


# sha256 of each newline-joined enumeration, keyed by (family, n, t, a).
# Pins membership and lexicographic order past the lengths the exhaustive
# scan above can reach; campaign records carry ranks into these lists.
GOLDEN_ENUMERATIONS = {
    ("SR", 17, 1, 0):
        "658daddc1758c6f6c4bda9b6fa4538a2bc455b044c5a9cbb5aac366cf25e1e8a",
    ("SR", 18, 1, 0):
        "c3f423eacfd4c06deaed3993a43405d18e91f91d8d92f2e928f4394653c45c83",
    ("SR", 19, 1, 0):
        "fde926e7cdb022a94de4620a17dd6ccc502e991cc6746d7a28fc1d3947e72844",
    ("SR", 20, 1, 0):
        "de1996a6d579419c94eafa4cbf6f835b13de810fb4ea78ee1228f42fcfccf1a8",
    ("SDA", 19, 2, 0):
        "b2c00138dee50de402588df8db3dad67b8a6e4b3d773aa669f35e5480278775b",
    ("SDA", 19, 3, 0):
        "6f71acf89c2465eff9d3ff6d274ed2707bd914c0afb20156c0285506a9d2d675",
    ("SDA", 20, 2, 0):
        "4264081710602e1080cb80d3ef6aada4e8a5c56a8e1e015eb8ffbe7b98635125",
    ("SDA", 20, 3, 0):
        "00f073b79b95a4aff9a948322acf1038bd284309d9ff7f21f35dac57c45378d7",
    ("SDS2", 18, 1, 0):
        "a925dff3d72b1cdc30c8b3448cea2753161de1a61b8f65e171e9a7bcf26969a9",
    ("SDS2", 18, 1, 1):
        "6de3b80900f35af777fc3323117d9510e2fd9010da6fd60ac8eee60d59d6aba1",
    ("SDS2", 18, 1, 2):
        "1f1b42ca18cf8e794d7235348b91e7f03e04c0527e971773fb95dc54221ccb14",
    ("SDS2", 18, 1, 3):
        "6a3b070a3c8aa9a369809da13067342740ffe751ecdbfc2cfab1fb32e0d416a4",
    ("SDS2", 18, 1, 4):
        "b3f10d592ec944e343c405fc0a3acacecd4ff92145d988d34a3e534d8b9df7da",
    ("SDS2", 18, 1, 5):
        "ec115b58dac03da7199875bc587a6c69871e59eb8e11e4a22a87fabf59ef82f3",
    ("SDS2", 18, 1, 6):
        "2931c60d0d169b6a67a426707e910974b4f808137319728bb50b92c12992e261",
    ("SDSprime", 18, 2, 0):
        "09252cf54c2274c8140b6878bdf4c4173dc22c39a428774ec48bd31d0c63a9c4",
    ("SDSprime", 18, 2, 1):
        "3981fc82c03533d108f430f67b2caf06583442b7463666576107815f4829a1a9",
    ("SDSprime", 18, 2, 2):
        "4883ce1870ba8a74dd90045e748696a862b199d154c3c975f189f2615dbc5c7c",
    ("SDSprime", 18, 2, 3):
        "22501faabb7724d2f936a9b47d6d065f41db95ce7e0baa22d9f0a8e5c0fd83ca",
    ("SDSprime", 18, 2, 4):
        "dbf629642d037290750a4cfdc686b9e02c476ac44073f1dfe0a4d491ee70c967",
    ("SCA1", 17, 1, 0):
        "8b37d91844fcda5576782ee2cce950bd171233ddf29e8ebd199489e7c59b210a",
    ("SCA1", 17, 1, 1):
        "5cf30c21515dc6fa2807460162cb1b234416f487228ee5cdff8c1f8a41b32b03",
    ("SCA1", 17, 1, 2):
        "22bd0c5b664ba43a6874212d5104ba5438bfe05d5ff6a521df6ae95d677b1274",
    ("SCA1", 19, 1, 0):
        "b6151a1f2ebe0ccc33716a55baed56ec48e8611e17e7dc747d87a50a4e8498b2",
    ("SCA1", 19, 1, 1):
        "ffad0494e73106d76bd75028f06e582edaa1383c7b0c4b499c0dbc6dded01946",
    ("SCA1", 19, 1, 2):
        "d19ecb8b2b38bb3788ff6c9c9a57caf5302986a0fabc20ba71cc8509f2379ff8",
}


def test_enumeration_golden_digests():
    for (family, n, t, a), digest in GOLDEN_ENUMERATIONS.items():
        members = enumerate_codebook(CodebookSpec(family, n, t=t, a=a))
        assert hashlib.sha256("\n".join(members).encode()).hexdigest() == digest, \
            (family, n, t, a)



# Digests past the set above: odd-n SDS2 (the centre bit's residue term),
# t = 3 and n = 22, computed with the SR-list-filtered construction.
GOLDEN_RESIDUE_ENUMERATIONS = {
    ("SDS2", 19, 1, 0):
        "e1b18492c2ded152ceb41c2cf20743c8f522d14e265d7de4682be96db3dca5c9",
    ("SDS2", 19, 1, 1):
        "f7f490b175991b9b031915b645276185b63e8ecc9701e84c97d2bcf4809c4ef2",
    ("SDS2", 19, 1, 2):
        "b1a4faae3f4b39dab90f3d2dd28007bb7ffc32c189bb2fe930dfa1bb30b7149f",
    ("SDS2", 19, 1, 3):
        "98614db258f2c398344f2fbe97b83426ddd20d74e86ba4b7fcdc76a4f76dd7df",
    ("SDS2", 19, 1, 4):
        "0893f978c20d2084268c5ae559d425e21013c0f2fbb6068a054f74ab5132ecdc",
    ("SDS2", 19, 1, 5):
        "122a470a1b04d758ee4d618a8360c0899c3b849d8d5382bbdcf984591ce17689",
    ("SDS2", 19, 1, 6):
        "fb16e83f80069c72cbb7c29b43e9b0408a60b2f5dfc54b596ffcefa029f7e69a",
    ("SDSprime", 20, 3, 0):
        "f3827c03109a9d83b3c448b5b3289601c1e7bd22223c352b7cf141f4925d6afb",
    ("SDSprime", 20, 3, 1):
        "570ebd6cae1b0e04a4c6cbadf5e3b586d253145215130a54bf29de4bbb7f43ce",
    ("SDSprime", 20, 3, 30):
        "3ee1987022a0249a077461dfb7f26990d54103587eabb5a6aa45ed465fa156c5",
    ("SDS2", 22, 1, 0):
        "610cc937beb44596f2e1c65b2563043da115cb0f99576eacc7c72c18cc55ba7d",
}


def test_residue_enumeration_golden_digests():
    for (family, n, t, a), digest in GOLDEN_RESIDUE_ENUMERATIONS.items():
        members = enumerate_codebook(CodebookSpec(family, n, t=t, a=a))
        assert hashlib.sha256("\n".join(members).encode()).hexdigest() == digest, \
            (family, n, t, a)


def _reference_shards(n, modulus):
    """SR(n) split by weight-sum residue: the residue families' old
    construction, every SR member filtered by ``weight_sum_mod``."""
    shards = [[] for _ in range(modulus)]
    for s in enumerate_codebook(CodebookSpec("SR", n)):
        shards[weight_sum_mod(s, modulus)].append(s)
    return [tuple(shard) for shard in shards]


@pytest.mark.parametrize("n", range(4, 19))
def test_residue_enumeration_matches_filtered_reconstruction_code(n):
    for a, expected in enumerate(_reference_shards(n, 7)):
        assert enumerate_codebook(CodebookSpec("SDS2", n, a=a)) == expected, a
    for t in (2, 3):
        if n < 2 * t + 4:
            continue
        for a, expected in enumerate(_reference_shards(n, modulus_A(t))):
            assert enumerate_codebook(
                CodebookSpec("SDSprime", n, t=t, a=a)) == expected, (t, a)


@pytest.mark.parametrize("n", range(4, 19))
def test_sda_enumeration_matches_filtered_reconstruction_code(n):
    sr = enumerate_codebook(CodebookSpec("SR", n))
    for t in (2, 3):
        spec = CodebookSpec("SDA", n, t=t)
        assert enumerate_codebook(spec) == tuple(
            s for s in sr if is_member(spec, s)), t

def test_residue_family_enumeration_lists_no_reconstruction_code():
    # SR(20) alone peaks near 4.5 MiB; the residue walk keeps only SDS2's
    # 7 524 members
    codebooks._members.cache_clear()
    tracemalloc.start()
    try:
        assert size(CodebookSpec("SDS2", 20)) == 7524
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_endpoints_fixed_on_all_members():
    specs = [CodebookSpec("SR", n) for n in range(6, 15)]
    specs += [CodebookSpec("SDA", n, t=2) for n in (8, 10, 12, 14)]
    specs += [CodebookSpec("SDS2", 12, a=a) for a in range(7)]
    specs += [CodebookSpec("SDSprime", 12, t=2, a=a) for a in range(5)]
    for spec in specs:
        for s in enumerate_codebook(spec):
            assert s[0] == "0" and s[-1] == "1"


def test_subset_relations():
    for n in (8, 10, 12, 13, 14):
        sr = set(enumerate_codebook(CodebookSpec("SR", n)))
        assert set(enumerate_codebook(CodebookSpec("SDA", n, t=2))) <= sr
        for a in range(7):
            assert set(enumerate_codebook(CodebookSpec("SDS2", n, a=a))) <= sr
        for a in range(5):
            assert set(enumerate_codebook(CodebookSpec("SDSprime", n, t=2, a=a))) <= sr


def test_residues_partition_the_reconstruction_code():
    for n in (10, 12, 13):
        sr = set(enumerate_codebook(CodebookSpec("SR", n)))
        shards = [set(enumerate_codebook(CodebookSpec("SDS2", n, a=a)))
                  for a in range(7)]
        assert set().union(*shards) == sr
        assert sum(len(sh) for sh in shards) == len(sr)


def test_prefix_suffix_weight_relation_on_members():
    # prefix weight equals suffix weight until an anti-symmetric index
    # appears, then stays strictly below it
    for n in (8, 10, 12, 13, 14):
        for s in enumerate_codebook(CodebookSpec("SR", n)):
            idx = antisymmetric_index_set(s)
            for i in range(2, (n + 1) // 2):
                pre = s[1:i].count("1")
                suf = s[n - i:n - 1].count("1")
                if idx & set(range(2, i + 1)):
                    assert pre < suf, (s, i)
                else:
                    assert pre == suf, (s, i)


def test_rank_unrank_inverse():
    for spec in (CodebookSpec("SR", 12), CodebookSpec("SDA", 12, t=2),
                 CodebookSpec("SDS2", 11, a=3), CodebookSpec("SCA1", 9)):
        members = enumerate_codebook(spec)
        for i, s in enumerate(members):
            assert rank(spec, s) == i
            assert unrank(spec, i) == s
    assert unrank(CodebookSpec("SR", 2), 0) == "01"
    assert rank(CodebookSpec("SR", 4), "0011") == 1


def test_rank_unrank_domain_errors():
    spec = CodebookSpec("SR", 4)
    with pytest.raises(ValueError):
        rank(spec, "0101")
    with pytest.raises(ValueError):
        unrank(spec, 3)
    for index in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="^index must be an int, got "):
            unrank(spec, index)
    for s, name in ((5, "int"), (b"0011", "bytes")):
        with pytest.raises(TypeError, match=f"^expected str of bits, got {name}$"):
            rank(spec, s)


_KEPT_SPECS = (
    [("SR", 14, 1, 0), ("SCA1", 13, 1, 0), ("SDA", 14, 1, 0), ("SDA", 14, 2, 0)]
    + [("SDS2", 12, 1, a) for a in (0, 3, 6)]
    + [("SDSprime", 12, 2, a) for a in (0, 2, 4)])


@pytest.mark.parametrize("key", _KEPT_SPECS, ids=str)
def test_kept_member_tuple_is_correct_and_invisible(key):
    members = codebooks._members(key)
    used = CodebookSpec(*key)
    for i, s in enumerate(members):
        assert unrank(CodebookSpec(*key), i) == s
        assert rank(CodebookSpec(*key), s) == i
        assert unrank(used, i) == s
        assert rank(used, s) == i
    assert enumerate_codebook(used) is members  # the shared tuple, no copy
    fresh = CodebookSpec(*key)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert dataclasses.asdict(used) == dataclasses.asdict(fresh)
    assert vars(used) == vars(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(used)) == used


def _bisect_rank(spec, members, s):
    """Reference rank: bisection over the sorted member tuple."""
    pos = bisect_left(members, s)
    if pos == len(members) or members[pos] != s:
        raise ValueError(f"{s} is not a member of {spec}")
    return pos


def _value_error(f, *args):
    try:
        f(*args)
    except ValueError as e:
        return str(e)
    return None


@pytest.mark.parametrize("key", _KEPT_SPECS + [("SDS2", 20, 1, 0)], ids=str)
def test_rank_table_matches_bisect_reference(key):
    spec = CodebookSpec(*key)
    members = enumerate_codebook(spec)
    for i, s in enumerate(members):
        assert rank(spec, s) == _bisect_rank(spec, members, s) == i
    n = spec.n
    flip = {"0": "1", "1": "0"}
    strangers = {s[:j] + flip[s[j]] + s[j + 1:]
                 for s in members for j in range(n)} - set(members)
    strangers |= {members[0] + "1", members[0][:-1], "0" * (n - 1) + "2"}
    for s in strangers:
        want = _value_error(_bisect_rank, spec, members, s)
        assert want == f"{s} is not a member of {spec}"
        assert _value_error(rank, spec, s) == want
    # every spec of the codebook ranks through one shared table, which
    # stays out of the spec's value like the member tuple
    ranked, fresh = CodebookSpec(*key), CodebookSpec(*key)
    assert rank(ranked, members[-1]) == len(members) - 1
    assert ranked._index is spec._index
    assert ranked == fresh and hash(ranked) == hash(fresh)
    assert repr(ranked) == repr(fresh)
    assert dataclasses.asdict(ranked) == dataclasses.asdict(fresh)
    assert vars(ranked) == vars(fresh)
    assert pickle.dumps(ranked) == pickle.dumps(fresh)


def test_codebook_stores_keep_the_last_32_codebooks():
    # 33 distinct codebooks ranked in turn evict the first from both stores
    keys = [("SDS2", n, 1, a) for n in (8, 9, 10, 11, 12) for a in range(7)][:33]
    kept = CodebookSpec(*keys[0])
    first = enumerate_codebook(kept)
    assert rank(kept, first[-1]) == len(first) - 1
    for key in keys[1:]:
        members = enumerate_codebook(CodebookSpec(*key))
        assert rank(CodebookSpec(*key), members[-1]) == len(members) - 1
    for store in (codebooks._members, codebooks._member_index):
        assert store.cache_info().currsize <= 32
    # a fresh spec of the evicted codebook lists it and builds its table
    # again; the spec that ranked before the eviction keeps its own
    misses = codebooks._member_index.cache_info().misses
    fresh = CodebookSpec(*keys[0])
    for i, s in enumerate(first):
        assert unrank(fresh, i) == s and rank(fresh, s) == i
        assert unrank(kept, i) == s and rank(kept, s) == i
    assert codebooks._member_index.cache_info().misses == misses + 1
    assert enumerate_codebook(fresh) == first


def test_rank_checks_cap_then_type_then_membership():
    empty = CodebookSpec("SCA1", 3)
    assert enumerate_codebook(empty) == ()
    with pytest.raises(ValueError, match="^001 is not a member of "):
        rank(empty, "001")
    capped = CodebookSpec("SR", 27)
    for _ in range(2):  # a capped spec keeps no table, so it raises again
        with pytest.raises(ResourceCapError):
            rank(capped, 5)
    for s, name in ((["0011"], "list"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^expected str of bits, got {name}$"):
            rank(CodebookSpec("SR", 4), s)


def test_modulus_values():
    assert modulus_A(2) == 5
    assert modulus_A(3) == 31
    assert modulus_A(4) == 81
    with pytest.raises(ValueError):
        modulus_A(1)


def test_redundancy_bound_formulas():
    assert redundancy_bound(CodebookSpec("SR", 16)) == 0.5 * 4 + 5
    assert redundancy_bound(CodebookSpec("SDA", 12, t=2)) == pytest.approx(
        0.5 * math.log2(8) + 7)
    assert redundancy_bound(CodebookSpec("SDS2", 10, a=0)) == pytest.approx(
        0.5 * math.log2(8) + 8)
    assert redundancy_bound(CodebookSpec("SDSprime", 12, t=2, a=0)) == pytest.approx(
        0.5 * math.log2(10) + math.log2(5) + 5)
    assert redundancy_bound(CodebookSpec("SCA1", 9)) == pytest.approx(
        0.5 * math.log2(7) + 8)


def test_sda_size_lower_bound_formula():
    # independent evaluation of the binomial sum in exact fractions, for
    # every even n <= 64 and every t up to past n/2, where the sum is empty
    for n in range(2, 65, 2):
        half = n // 2
        for t in range(1, half + 2):
            expected = sum((Fraction(2) ** (half - 2 - i)
                            * math.comb(half - 1, i)
                            * math.comb(i - t + 1, (i - t + 1) // 2)
                            for i in range(t, half)), Fraction(0))
            got = size_lower_bound(CodebookSpec("SDA", n, t=t))
            assert type(got) is float and got == float(expected), (n, t)
    spec = CodebookSpec("SDA", 12, t=2)
    assert size_lower_bound(spec) == 98.0
    assert size(spec) >= size_lower_bound(spec)


def test_single_substitution_code_size_claim():
    # the two-starred-bit construction holds exactly half of the inner code
    for n in (9, 11, 13):
        total = sum(size(CodebookSpec("SCA1", n, a=a)) for a in range(3))
        inner = size(CodebookSpec("SR", n - 2))
        assert size(CodebookSpec("SCA1", n)) == inner // 2
        assert total == 3 * inner // 2  # each residue shard is inner/2


def test_linear_residue_matches_signature_residue():
    # reference: the first ceil(n/2) cumulative weights of the full readout
    moduli = (3, 7) + tuple(modulus_A(t) for t in (2, 3, 4))
    strings = [x for n in range(1, 13) for x in all_strings(n)]
    rng = random.Random(13)
    for n in range(13, 256):
        strings.append("".join(rng.choice("01") for _ in range(n)))
        strings.append("".join(rng.choices("01", weights=(1, 9), k=n)))
    for s in strings:
        r = full_readout(s)
        total = sum(r.weight(k) for k in range(1, (len(s) + 1) // 2 + 1))
        for m in moduli:
            assert weight_sum_mod(s, m) == total % m, (s, m)


def test_sca1_members_have_even_weight_and_residue():
    for s in enumerate_codebook(CodebookSpec("SCA1", 11)):
        assert s.count("1") % 2 == 0
        assert weight_sum_mod(s, 3) == 0
        assert s[1] <= s[-2]


def test_spec_validation():
    with pytest.raises(ValueError):
        CodebookSpec("SR", 1)
    with pytest.raises(ValueError):
        CodebookSpec("XX", 8)
    with pytest.raises(ValueError):
        CodebookSpec("SDSprime", 8, t=1)
    with pytest.raises(ValueError):
        CodebookSpec("SDSprime", 7, t=2)  # needs n >= 2t+4
    with pytest.raises(ValueError):
        CodebookSpec("SDS2", 10, a=7)
    with pytest.raises(ValueError):
        CodebookSpec("SR", 10, t=2)
    # exact ints only: 12.5 would enumerate 13-character strings
    for kwargs, field in (({"n": 12.5}, "n"), ({"n": True}, "n"),
                          ({"n": 12, "a": 2.0}, "a"), ({"n": 12, "a": True}, "a"),
                          ({"n": 12, "t": 1.0}, "t")):
        with pytest.raises(ValueError, match=f"^{field} must be an int"):
            CodebookSpec("SDS2", **kwargs)
    with pytest.raises(ValueError, match="^t must be an int"):
        CodebookSpec("SDA", 12, t=2.0)


def test_enumeration_cap():
    with pytest.raises(ResourceCapError):
        enumerate_codebook(CodebookSpec("SR", 40))
    spec = CodebookSpec("SR", 27)
    for _ in range(2):  # a capped spec keeps nothing, so it raises again
        with pytest.raises(ResourceCapError):
            enumerate_codebook(spec)
        with pytest.raises(ResourceCapError):
            unrank(spec, 0)
        with pytest.raises(ResourceCapError):
            rank(spec, "0" * 26 + "1")


def test_measured_redundancy_within_bounds():
    for n in (8, 10, 12, 14):
        assert measured_redundancy(CodebookSpec("SR", n)) <= redundancy_bound(
            CodebookSpec("SR", n))
