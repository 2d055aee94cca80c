"""Serialization: canonical bytes, round trips, parse failures."""

import hashlib
import json
import pickle
import random
import re
import tracemalloc
from itertools import compress

import pytest

from compcodes import formats
from compcodes.channel import MODELS, ErrorSpec, apply
from compcodes.codebooks import CodebookSpec
from compcodes.core import Readout, full_readout
from compcodes.errors import CompCodesError, InvalidErrorSpecError, ParseError
from compcodes.formats import (
    config_hash,
    emit_error_spec,
    emit_readout,
    emit_report,
    emit_spec,
    error_spec_to_dict,
    parse_error_spec,
    parse_readout,
    parse_spec,
)
from compcodes.oracle import find_confusable_pair, insertion_witness_readouts
from compcodes.reconstructor import DecodeReport
from conftest import EXAMPLE_S


def test_emit_readout_canonical_example():
    assert emit_readout(full_readout("01")) == \
        '{"n":2,"counts":{"1":{"0":1,"1":1},"2":{"1":1}}}'


def test_emit_readout_golden_digest():
    # sha256 of the readout text + "\n" for every s with 2 <= len(s) <= 10
    # in length-then-lexicographic order; each text parses back to its
    # readout
    counts = hashlib.sha256()
    for n in range(2, 11):
        for x in range(2 ** n):
            r = full_readout(format(x, f"0{n}b"))
            text = emit_readout(r)
            assert parse_readout(text) == r
            counts.update(text.encode() + b"\n")
    assert counts.hexdigest() == \
        "14246aa5c22154b7270cd28c9647259cd2ffe5af5536b6fdb72609e5d4e30771"


def test_readout_roundtrip():
    r = full_readout(EXAMPLE_S)
    assert parse_readout(emit_readout(r)) == r
    # a true or a float outside the counts leaves a valid readout valid
    for extra in ('"note":true', '"note":false', '"x":1.5'):
        r = parse_readout('{"n":1,"counts":{"1":{"1":1}},%s}' % extra)
        assert r == Readout(1, {1: (0, 1)})


def test_emit_is_canonical_under_input_order():
    r = full_readout(EXAMPLE_S)
    shuffled = r.restrict(set())  # copy
    text1 = emit_readout(r)
    # reinsert classes in reverse order; bytes must not change
    shuffled.classes = dict(sorted(shuffled.classes.items(), reverse=True))
    assert emit_readout(shuffled) == text1


def test_parse_flags_size_anomalies_without_rejecting():
    text = emit_readout(full_readout(EXAMPLE_S))
    old, new = '"7":{"3":1,"4":1,"5":1}', '"7":{"3":1,"4":1,"5":1,"6":1}'
    assert old in text
    corrupted = parse_readout(text.replace(old, new))
    assert [k for k in corrupted.classes
            if corrupted.class_size(k) > corrupted.n - k + 1] == [7]


def test_empty_class_differs_from_missing_class():
    r = Readout(3, {1: (0, 0), 3: (0, 0, 0, 1)})
    text = emit_readout(r)
    assert text == '{"n":3,"counts":{"1":{},"3":{"3":1}}}'
    assert parse_readout(text) == r
    assert parse_readout('{"n":3,"counts":{"3":{"3":1}}}') == \
        Readout(3, {3: (0, 0, 0, 1)})


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_readout("not json")
    with pytest.raises(ParseError):
        parse_readout('{"counts":{}}')
    with pytest.raises(ParseError):
        parse_readout('{"n":2,"counts":{"5":{"1":1}}}')  # class beyond n
    with pytest.raises(ParseError):
        parse_readout('{"n":3,"counts":[1]}')  # counts not an object
    with pytest.raises(ParseError):
        parse_readout('{"n":3,"counts":{"1":5}}')  # class value not an object
    with pytest.raises(ParseError):
        parse_readout("[" * 5000)  # nesting deeper than the JSON decoder recurses
    with pytest.raises(ParseError):
        parse_readout('{"n":' + "1" * 5000 + ',"counts":{}}')  # over the int digit limit
    with pytest.raises(ParseError, match="invalid n"):
        parse_readout('{"n":true,"counts":{}}')  # JSON true is not 1
    for big in (256, 10 ** 9):  # beyond MAX_LENGTH: a ParseError, not Readout's
        with pytest.raises(ParseError, match="invalid n"):
            parse_readout('{"n":%d,"counts":{}}' % big)
    with pytest.raises(ParseError, match="class 1"):
        parse_readout('{"n":2,"counts":{"1":{"0":false,"1":true}}}')
    with pytest.raises(ParseError, match="class 1 repeats"):
        parse_readout('{"n":2,"counts":{"01":{"0":1,"1":1},"1":{"0":2}}}')
    with pytest.raises(ParseError, match="repeated key '1'"):
        parse_readout('{"n":2,"counts":{"1":{"0":1,"1":1},"1":{"0":2}}}')


def test_parse_count_form_errors():
    # messages name the class and its first bad weight or count
    for weights, why in (('{"0":1,"2":1}', "weight 2 outside [0, 1] in class 1"),
                         ('{"-1":1}', "weight -1 outside [0, 1] in class 1"),
                         ('{"00":1,"0":1}', "weight 0 repeats in class 1"),
                         ('{"x":1}', "invalid weight key 'x' in class 1"),
                         ('{"0":0}', "count 0 of weight 0 in class 1"),
                         ('{"0":-2}', "count -2 of weight 0 in class 1"),
                         ('{"0":1,"1":true}', "count True of weight 1 in class 1"),
                         ('{"1":1.0}', "count 1.0 of weight 1 in class 1"),
                         ('[[1,0]]', "class 1 must be an object of weight counts")):
        with pytest.raises(ParseError, match=re.escape(why)):
            parse_readout('{"n":2,"counts":{"1":%s}}' % weights)
    for text, why in (('{"n":2,"counts":{"1":{},"01":{}}}', "class 1 repeats"),
                      ('{"n":2,"counts":{"1":{},"1":{}}}', "repeated key '1'"),
                      ('{"n":2,"counts":{"3":{}}}', "class 3 outside [1, 2]"),
                      ('{"n":true,"counts":{}}', "invalid n"),
                      ('{"n":2,"counts":[]}', "'counts' must be an object"),
                      ('{"n":2,"counts":{},"classes":{}}', "needs 'n' and 'counts'"),
                      ('{"n":2}', "needs 'n' and 'counts'")):
        with pytest.raises(ParseError, match=re.escape(why)):
            parse_readout(text)


def test_spec_roundtrip_and_compact_form():
    spec = CodebookSpec("SDA", 12, t=2)
    assert emit_spec(spec) == '{"family":"SDA","n":12,"t":2,"a":0}'
    assert parse_spec(emit_spec(spec)) == spec
    assert parse_spec("SDA:12,t=2") == spec
    assert parse_spec("SDS2:10,a=3") == CodebookSpec("SDS2", 10, a=3)
    assert parse_spec("SR:9") == CodebookSpec("SR", 9)
    for bad in ("SR", "SR:", "XX:9", "SR:9,q=1", '{"family":"SR"}',
                '{"family":"SR","n":9.7}', '{"family":"SR","n":"9"}',
                '{"family":"SR","n":true}', '{"family":"SDA","n":12,"t":2.0}',
                '{"family":"SDS2","n":10,"a":false}', '{"family":' + "[" * 5000,
                "SDS2:12,a=1,a=3", '{"family":"SR","n":9,"n":10}',
                '{"family":"SDA","n":12,"T":2}'):
        with pytest.raises(ParseError):
            parse_spec(bad)


def test_parse_spec_reports_the_codebook_spec_check():
    # the JSON form's fields go straight to CodebookSpec, whose wording
    # the ParseError carries
    for bad, why in (('{"family":"SR","n":true}', "n must be an int, got True"),
                     ('{"family":"SDA","n":12,"t":2.0}', "t must be an int, got 2.0"),
                     ('{"family":"SDS2","n":10,"a":"3"}', "a must be an int, got '3'")):
        with pytest.raises(ParseError, match=re.escape(why)):
            parse_spec(bad)


def test_error_spec_roundtrips():
    specs = [
        ErrorSpec("asym_delete", targets=(3,)),
        ErrorSpec("sym_pair_delete", targets=((3, 7),)),
        ErrorSpec("insert", targets=((7, (1, 6)),)),
        ErrorSpec("skew", targets=((7, (2, 5), (3, 4)),)),
        ErrorSpec("asym_delete", count=2, seed=7),
    ]
    for e in specs:
        assert parse_error_spec(emit_error_spec(e)) == e
        assert error_spec_to_dict(e) == json.loads(emit_error_spec(e))


def test_parse_error_spec_needs_exact_ints():
    for bad in ('{"model":"insert","count":true,"seed":1.9}',
                '{"model":"insert","count":1,"seed":"1"}',
                '{"model":"asym_delete","targets":[3.0]}',
                '{"model":"sym_pair_delete","targets":[[3,true]]}',
                '{"model":"insert","targets":[[7,[1,6.0]]]}',
                '{"model":"skew","targets":[[7,[2,5],[3,"4"]]]}'):
        with pytest.raises(ParseError, match="must be an integer"):
            parse_error_spec(bad)


def test_parse_error_spec_wraps_every_malformed_input():
    for bad in ("not json", "[]", '"x"', "{}", '{"model":"insert"}',
                '{"model":"nope","count":1,"seed":1}',
                '{"model":"nope","targets":[]}',
                '{"model":"insert","count":0,"seed":1}',
                '{"model":"asym_delete","targets":5}',
                '{"model":"sym_pair_delete","targets":[[1,2,3]]}',
                '{"model":"insert","targets":[[7,[1]]]}',
                '{"model":"skew","targets":[[7,[2,5],[1,6]]]}',
                '{"model":"asym_delete","targets":[1],"targets":[2]}',
                '{"model":"insert","count":1,"seed":3,"sede":4}',
                "[" * 100000):
        with pytest.raises(ParseError, match="error spec|unknown model"):
            parse_error_spec(bad)


# Error specs that are malformed whatever readout they meet, as ErrorSpec
# keyword arguments; json.dumps of one is the same spec on the wire.  They
# gather the malformed specs of test_channel (test_invalid_error_specs,
# test_targets_need_exact_ints) and of the test_parse_error_spec_* tests
# above, plus wrong arities, non-sequence shapes and non-int seeded fields.
# Specs that are wrong only for some n (a class beyond n, a pair that is
# not symmetric at n) are left to apply().
_BAD_INTS = (2.9, True, "3", 3.0, None)
_BAD_PAIRS = ((1.5, 1.5), (1, 2.0), (True, 2), (1, "2"))
MALFORMED_ERROR_SPECS = (
    # model and the targets / count+seed choice
    {"model": "bogus", "targets": (1,)},
    {"model": "nope", "targets": []},
    {"model": "nope", "count": 1, "seed": 1},
    {"model": "asym_delete"},
    {"model": "insert"},
    {"model": "asym_delete", "targets": (3,), "count": 1, "seed": 1},
    {"model": "asym_delete", "targets": (3,), "count": 1},
    {"model": "insert", "count": 1},
    {"model": "insert", "seed": 1},
    # seeded fields are exact ints, and count is at least 1
    {"model": "insert", "count": 0, "seed": 1},
    {"model": "insert", "count": True, "seed": 1.9},
    {"model": "insert", "count": 1, "seed": "1"},
    {"model": "skew", "count": 2.0, "seed": 1},
    {"model": "skew", "count": 1.5, "seed": 3},
    {"model": "asym_delete", "count": 1, "seed": 1.0},
    # the target list itself
    {"model": "asym_delete", "targets": 5},
    {"model": "asym_delete", "targets": "3"},
    {"model": "asym_delete", "targets": {"3": 1}},
    {"model": "asym_delete", "targets": (3, 3)},
    {"model": "asym_delete", "targets": (0,)},
    {"model": "asym_delete", "targets": ((3,),)},
    {"model": "sym_pair_delete", "targets": (3,)},
    {"model": "sym_pair_delete", "targets": ((1, 9, 99),)},
    {"model": "sym_pair_delete", "targets": ((1, 2, 3),)},
    {"model": "sym_pair_delete", "targets": ((7,),)},
    {"model": "sym_pair_delete", "targets": ((4, 4),)},
    {"model": "sym_pair_delete", "targets": ((0, 10),)},
    {"model": "sym_pair_delete", "targets": ((3, 7), (7, 3))},
    {"model": "insert", "targets": ((7, (1, 5)),)},
    {"model": "insert", "targets": ((7, (1,)),)},
    {"model": "insert", "targets": ((7,),)},
    {"model": "insert", "targets": ((7, (1, 6), 0),)},
    {"model": "insert", "targets": ((7, (1, 6, 0)),)},
    {"model": "insert", "targets": ((1, (-1, 2)),)},
    {"model": "insert", "targets": ((0, (0, 0)),)},
    {"model": "insert", "targets": (7,)},
    {"model": "skew", "targets": ((7, (2, 5), (3, 4)), (7, (3, 4), (4, 3)))},
    {"model": "skew", "targets": ((7, (2, 5), (1, 6)),)},
    {"model": "skew", "targets": ((6, (2, 4), (1, 4)),)},
    {"model": "skew", "targets": ((6, (2, 4), (2, 4)),)},
    {"model": "skew", "targets": ((7, (2, 5)),)},
    {"model": "skew", "targets": ((7, (2, 5), (3, 4), 1),)},
    {"model": "skew", "targets": ((7, (1, 5), (2, 4)),)},
    {"model": "skew", "targets": ((2, (0, 2), (3, -1)),)},
    *({"model": "asym_delete", "targets": (bad,)} for bad in _BAD_INTS),
    *({"model": "sym_pair_delete", "targets": ((bad, 7),)}
      for bad in _BAD_INTS),
    *({"model": "insert", "targets": ((bad, (1, 2)),)} for bad in _BAD_INTS),
    *({"model": "skew", "targets": ((bad, (1, 2), (2, 1)),)}
      for bad in _BAD_INTS),
    *({"model": "insert", "targets": ((3, pair),)} for pair in _BAD_PAIRS),
    *({"model": "skew", "targets": ((3, pair, (2, 1)),)}
      for pair in _BAD_PAIRS),
    *({"model": "skew", "targets": ((3, (0, 3), pair),)}
      for pair in _BAD_PAIRS),
)


def test_malformed_error_specs_fail_alike_in_python_and_on_the_wire():
    for kwargs in MALFORMED_ERROR_SPECS:
        with pytest.raises(InvalidErrorSpecError):
            ErrorSpec(**kwargs)
        with pytest.raises(ParseError):
            parse_error_spec(json.dumps(kwargs))


def test_explicit_error_spec_texts_round_trip_byte_for_byte():
    # pairs keep their order, a repeated insert entry stays repeated
    for text in ('{"model":"asym_delete","targets":[3]}',
                 '{"model":"asym_delete","targets":[7,2,4]}',
                 '{"model":"sym_pair_delete","targets":[[3,7]]}',
                 '{"model":"sym_pair_delete","targets":[[7,3]]}',
                 '{"model":"sym_pair_delete","targets":[[4,6],[1,9]]}',
                 '{"model":"insert","targets":[[7,[1,6]]]}',
                 '{"model":"insert","targets":[[7,[1,6]],[7,[1,6]]]}',
                 '{"model":"insert","targets":[[9,[0,9]],[1,[1,0]]]}',
                 '{"model":"skew","targets":[[7,[2,5],[3,4]]]}',
                 '{"model":"skew","targets":[[7,[2,5],[3,4]],[6,[2,4],[4,2]]]}',
                 '{"model":"skew","count":2,"seed":7}',
                 '{"model":"asym_delete","targets":[]}'):
        assert emit_error_spec(parse_error_spec(text)) == text


def test_report_emission():
    rep = DecodeReport("01", dropped_classes=(2,), backtracks=1,
                       max_backtrack_span=1)
    assert emit_report(rep) == ('{"result":"01","dropped_classes":[2],'
                                '"backtracks":1,"max_backtrack_span":1}')


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


# -- the readout wire path against slow references ------------------------
#
# The references spend one Python-level step per weight: emit builds
# every weight key for json.dumps, parse checks every count in a loop.
# _reference_emit_readout writes the entry-list form of older files, one
# [z, w] list per fragment under "classes", which parse_readout refuses.

def _reference_emit_readout(r: Readout) -> str:
    classes = {}
    for k in sorted(r.classes):
        counts = r.classes[k]
        entries = []
        for w in compress(range(k + 1), counts):
            entries += [[k - w, w]] * counts[w]
        classes[str(k)] = entries
    return json.dumps({"n": r.n, "classes": classes}, separators=(",", ":"))


def _reference_emit_counts(r: Readout) -> str:
    counts = {}
    for k in sorted(r.classes):
        counts[str(k)] = {str(w): c for w, c in enumerate(r.classes[k]) if c}
    return json.dumps({"n": r.n, "counts": counts}, separators=(",", ":"))


def _pairs_without_repeats(pairs: list) -> dict:
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ParseError(f"repeated key {key!r}")
    return dict(pairs)


def _reference_parse_counts(text: str) -> Readout:
    try:
        obj = json.loads(text, object_pairs_hook=_pairs_without_repeats)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "counts" not in obj \
            or "classes" in obj:
        raise ParseError("count-form readout JSON needs 'n' and 'counts' only")
    n = obj["n"]
    if type(n) is not int or not 1 <= n <= 255:  # JSON true is not 1
        raise ParseError(f"invalid n: {n!r}")
    if not isinstance(obj["counts"], dict):
        raise ParseError("'counts' must be an object of classes")
    classes = {}
    for key, weights in obj["counts"].items():
        try:
            k = int(key)
        except ValueError:
            raise ParseError(f"invalid class key {key!r}") from None
        if not 1 <= k <= n or k in classes:
            raise ParseError(f"class {k} outside [1, {n}] or repeated")
        if not isinstance(weights, dict):
            raise ParseError(f"class {k} must be an object")
        seen = {}
        for wkey, count in weights.items():
            try:
                w = int(wkey)
            except ValueError:
                raise ParseError(f"invalid weight key {wkey!r}") from None
            if not 0 <= w <= k or w in seen:
                raise ParseError(f"weight {w} outside [0, {k}] or repeated")
            if type(count) is not int or count < 1:
                raise ParseError(f"bad count {count!r}")
            seen[w] = count
        classes[k] = tuple(seen.get(w, 0) for w in range(k + 1))
    return Readout(n, classes)


_CORRUPTIONS = (("asym_delete", 2), ("sym_pair_delete", 2), ("insert", 3),
                ("skew", 2))
assert {model for model, _ in _CORRUPTIONS} == set(MODELS)


def _wire_readouts() -> list[Readout]:
    """Seeded full readouts up to n = 255, each channel model's corruption
    of them (missing and oversized classes, skews), an undersized class
    and an all-zero class."""
    rng = random.Random(6)
    out = []
    for n in (1, 2, 3, 9, 16, 64, 255):
        full = full_readout("".join(rng.choice("01") for _ in range(n)))
        out.append(full)
        if n >= 9:
            for seed, (model, count) in enumerate(_CORRUPTIONS):
                out.append(apply(full, ErrorSpec(model, count=count, seed=seed)))
        k = rng.randrange(1, n + 1)
        counts = list(full.classes[k])
        counts[max(w for w, c in enumerate(counts) if c)] -= 1
        out.append(Readout(n, {**full.classes, k: tuple(counts)}))
        out.append(Readout(n, {**full.classes, k: (0,) * (k + 1)}))
    return out


def _shuffled_counts(r: Readout, rng: random.Random) -> str:
    """Valid but not canonical, in the count form: classes and weights in
    random order, default separators."""
    obj = json.loads(emit_readout(r))
    items = [(k, list(weights.items())) for k, weights in obj["counts"].items()]
    rng.shuffle(items)
    for _, weights in items:
        rng.shuffle(weights)
    return json.dumps({"counts": {k: dict(w) for k, w in items}, "n": obj["n"]})


_BAD_SCALARS = (-1, 1.5, "1", None, [1], {"z": 1}, 2 ** 70, True, False, 1.0)


_MALFORMED_COUNTS = (
    '{"n":3}', '{"n":3,"counts":{},"classes":{}}',
    '{"n":3,"classes":{"1":[[1,0]]},"counts":{"1":{"0":1}}}',
    '{"counts":{}}', '{"n":0,"counts":{}}', '{"n":256,"counts":{}}',
    '{"n":true,"counts":{}}', '{"n":3.0,"counts":{}}',
    '{"n":3,"counts":[]}', '{"n":3,"counts":null}', '{"n":3,"counts":5}',
    # class keys: out of range, not ints, repeated before or after int()
    '{"n":3,"counts":{"0":{}}}', '{"n":3,"counts":{"4":{}}}',
    '{"n":3,"counts":{"x":{}}}', '{"n":3,"counts":{"":{}}}',
    '{"n":3,"counts":{"1.5":{}}}', '{"n":3,"counts":{"99999999999":{}}}',
    '{"n":3,"counts":{"1":{"0":1},"1":{"1":1}}}',
    '{"n":3,"counts":{"1":{"0":1},"01":{"1":1}}}',
    # a class value that is no object of weight counts
    '{"n":3,"counts":{"1":[[1,0]]}}', '{"n":3,"counts":{"1":[]}}',
    '{"n":3,"counts":{"1":null}}', '{"n":3,"counts":{"1":1}}',
    '{"n":3,"counts":{"1":"0"}}',
    # weight keys: out of range, not ints, repeated before or after int()
    '{"n":3,"counts":{"1":{"2":1}}}', '{"n":3,"counts":{"1":{"-1":1}}}',
    '{"n":3,"counts":{"3":{"4":1}}}', '{"n":3,"counts":{"2":{"x":1}}}',
    '{"n":3,"counts":{"2":{"":1}}}', '{"n":3,"counts":{"2":{"0.0":1}}}',
    '{"n":3,"counts":{"2":{"99999999999":1}}}',
    '{"n":3,"counts":{"2":{"0":1,"0":1}}}',
    '{"n":3,"counts":{"2":{"00":1,"0":1}}}',
    '{"n":3,"counts":{"2":{"0":1,"00":1}}}',
    '{"n":3,"counts":{"2":{"1":1,"+1":2}}}',
    # counts: zero, negative, a bool, a float, a string, a list, null
    '{"n":3,"counts":{"1":{"0":0}}}', '{"n":3,"counts":{"1":{"0":-1}}}',
    '{"n":3,"counts":{"1":{"0":true}}}', '{"n":3,"counts":{"1":{"0":false}}}',
    '{"n":3,"counts":{"1":{"0":1.0}}}', '{"n":3,"counts":{"1":{"0":1e0}}}',
    '{"n":3,"counts":{"1":{"0":1e400}}}', '{"n":3,"counts":{"1":{"0":"1"}}}',
    '{"n":3,"counts":{"1":{"0":[1]}}}', '{"n":3,"counts":{"1":{"0":null}}}',
    '{"n":3,"counts":{"1":{"0":{}}}}',
    '{"n":3,"counts":{"1":{"0":1},"2":{"1":-2}}}',
)

def _fuzzed_counts(rng: random.Random, count: int) -> list[str]:
    """One seeded mutation each of small full readouts in the count form:
    a bad, shifted or added weight key, a bad count, a bad class key, a
    bad class value or a bad n."""
    bases = [json.loads(emit_readout(full_readout(s)))
             for s in ("001010111", "0110100110010110")]
    out = []
    for _ in range(count):
        obj = json.loads(json.dumps(rng.choice(bases)))
        n, classes = obj["n"], obj["counts"]
        key = rng.choice(sorted(classes))
        weights = classes[key]
        wkey = rng.choice(sorted(weights))
        what = rng.randrange(6)
        if what == 0:
            bad = rng.choice(("-1", str(int(key) + 1), "x", "", "1.5",
                              f"0{wkey}", f" {wkey} "))
            weights[bad] = weights.pop(wkey)
        elif what == 1:
            weights[wkey] = rng.choice(_BAD_SCALARS + (0, 2))
        elif what == 2:
            weights[str(rng.randrange(-1, int(key) + 2))] = rng.randrange(-1, 3)
        elif what == 3:
            bad = rng.choice(("0", str(n + 1), "x", "1.5", "-2", "", f" {key} "))
            classes[bad] = classes.pop(key)
        elif what == 4:
            classes[key] = rng.choice(([], 3, "x", None, [[0, int(key)]]))
        else:
            obj["n"] = rng.choice((0, -1, 1.0, "9", None, 256, n - 1, n + 1))
        out.append(json.dumps(obj, separators=(",", ":")))
    return out


def _outcome(parse, text):
    """The parsed readout, or the type of the ValueError raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc)


def test_emit_readout_matches_reference():
    for r in _wire_readouts():
        assert emit_readout(r) == _reference_emit_counts(r)


def test_parse_refuses_the_entry_list_form():
    # a file in the older entry-list form fails with an error that names
    # the count form, with or without a "counts" beside its "classes"
    for r in _wire_readouts():
        legacy = _reference_emit_readout(r)
        both = legacy[:-1] + emit_readout(r).replace('{"n":%d' % r.n, "", 1)
        for text in (legacy, both):
            with pytest.raises(ParseError, match="'counts'"):
                parse_readout(text)


# JSON whitespace, then three characters str.strip() removes and JSON does not
_PADDINGS = (" \t\n\r", "\x0b", "\x1c", "\xa0")
_KEY_ALIASES = ("01", "+1", " 1", "\u0661")  # int() reads each as 1


def _near_canonical_counts(text: str) -> list[str]:
    """Texts one step from the count form ``text``: a class or weight key
    written another way, or a count swapped for ``true`` or a float."""
    out = [text.replace('"1":', f'"{alias}":') for alias in _KEY_ALIASES]
    out.append(text.replace('"10":', '"1_0":'))
    count = re.search(r'("\d+":)(\d+)', text)
    if count:
        for swap in ("true", "false", f"{count[2]}.0", "0", "-1", "null"):
            out.append(text[:count.start()] + count[1] + swap
                       + text[count.end():])
    return out


def test_parse_count_form_matches_reference():
    rng = random.Random(8)
    texts = list(_MALFORMED_COUNTS) + _fuzzed_counts(rng, 600)
    for r in _wire_readouts():
        text = emit_readout(r)
        pretty = json.dumps(json.loads(text), indent=4)  # json.tool's
        texts += [text, _shuffled_counts(r, rng), pretty]
        texts += [pad + text + pad for pad in _PADDINGS]
        texts += _near_canonical_counts(text)
        assert parse_readout(text) == parse_readout(pretty) == r
    accepted = rejected = 0
    for text in texts:
        expected = _outcome(_reference_parse_counts, text)
        assert _outcome(parse_readout, text) == expected, text
        if isinstance(expected, Readout):
            accepted += 1
        else:
            rejected += 1
    assert accepted > 100 and rejected > 300


def test_parsed_sizes_and_weights_match_the_vectors():
    # parse_readout sums each class's size and weight as it reads the
    # counts; a readout built from the same vectors sums them on first
    # use, and the two agree on every fact read from them
    rng = random.Random(38)
    compared = 0
    for r in _wire_readouts():
        text = emit_readout(r)
        reference = Readout(r.n, dict(r.classes))
        for variant in [text, _shuffled_counts(r, rng),
                        *_near_canonical_counts(text)]:
            try:
                parsed = parse_readout(variant)
            except ParseError:
                continue
            assert parsed == r
            assert {"_sizes", "_weights"} <= vars(parsed).keys()
            for k in r.classes:
                assert parsed.class_size(k) == reference.class_size(k), (k, variant)
                assert parsed.weight(k) == reference.weight(k), (k, variant)
            assert parsed.is_full() == reference.is_full()
            assert parsed.outweighed_classes() == reference.outweighed_classes()
            assert parsed.untrusted_classes() == reference.untrusted_classes()
            compared += 1
    assert compared > 100


def test_parse_readout_never_emits(monkeypatch):
    # parse_readout reads a text once; no emit_readout checks its result,
    # so a trace of a parse counts no emitted bytes
    texts = [(emit_readout(r), r) for r in _wire_readouts()]

    def refuse(*args, **kwargs):
        raise AssertionError("emit_readout called by parse_readout")

    monkeypatch.setattr(formats, "emit_readout", refuse)
    for text, r in texts:
        assert parse_readout(text + "\n") == r


def test_parse_readout_bounds_before_allocating():
    # a class key, weight key or n far out of range is refused before any
    # vector of that size exists
    texts = ('{"n":255,"counts":{"99999999999":{}}}',
             '{"n":99999999999,"counts":{"99999999998":{}}}',
             '{"n":255,"counts":{"1":{"99999999999":1}}}')
    tracemalloc.start()
    try:
        for text in texts:
            with pytest.raises(ParseError):
                parse_readout(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_emit_readout_golden_digest_corrupted_n255():
    # sha256 of the readout text of apply(full_readout(s), e) + "\n" for
    # three seeded s of length 255 and each model in _CORRUPTIONS with
    # seeds 0..2; each text parses back to its readout
    rng = random.Random(255)
    counts = hashlib.sha256()
    for seed in range(3):
        full = full_readout(format(rng.getrandbits(255), "0255b"))
        for model, count in _CORRUPTIONS:
            r = apply(full, ErrorSpec(model, count=count, seed=seed))
            text = emit_readout(r)
            assert parse_readout(text) == r
            counts.update(text.encode() + b"\n")
    assert counts.hexdigest() == \
        "844ef27c0ef2e691b8c21997ce0e52f115c4e48a079e3341fa0968bebb3a25f5"


def test_wire_path_matches_reference_on_dense_n255():
    # heavy classes reach weights near k only when ones dominate
    rng = random.Random(90)
    for s in ("1" * 255, "".join(rng.choice("0111111111") for _ in range(255))):
        full = full_readout(s)
        for r in (full, apply(full, ErrorSpec("insert", count=3, seed=1))):
            text = emit_readout(r)
            assert text == _reference_emit_counts(r)
            assert parse_readout(text) == _reference_parse_counts(text) == r


def _explicit_specs(r: Readout, rng: random.Random) -> list[ErrorSpec]:
    """Explicit targets of each model against r, some of which apply()
    refuses: a class out of range or already absent, an entry absent
    from its class."""
    n = r.n
    k = rng.randrange(1, n + 1)
    w = rng.randrange(1, k + 1)
    i = rng.randrange(1, n // 2 + 1)
    return [ErrorSpec("asym_delete", targets=(k,)),
            ErrorSpec("asym_delete", targets=(n + 1,)),
            ErrorSpec("sym_pair_delete", targets=((i, n - i + 1),)),
            ErrorSpec("insert", targets=((k, (k - w, w)),)),
            ErrorSpec("insert", targets=((n + 1, (n + 1, 0)),)),
            ErrorSpec("skew", targets=((k, (k - w, w), (k, 0)),))]


def _builder_cases() -> list[tuple]:
    """(builder, args) for every library builder that hands its vectors
    to Readout._from_valid, over the wire corpora and seeded channels."""
    rng = random.Random(23)
    texts = list(_MALFORMED_COUNTS) + _fuzzed_counts(rng, 300)
    texts += [emit_readout(r) for r in _wire_readouts()]
    cases = [(parse_readout, (text,)) for text in texts]
    strings = [format(x, f"0{n}b") for n in range(1, 11) for x in range(2 ** n)]
    cases += [(full_readout, (s,)) for s in strings]
    for n in (5, 8, 9, 12, 255):
        for _ in range(2):
            s = format(rng.getrandbits(n), f"0{n}b")
            full = full_readout(s)
            cases += [(full_readout, (s,)),
                      (Readout.restrict, (full, rng.sample(range(n + 3), 3)))]
            for seed, model in enumerate(MODELS):
                for count in (1, 2):
                    spec = ErrorSpec(model, count=count, seed=seed)
                    cases.append((apply, (full, spec)))
                    # a corruption of a corrupted readout: missing and
                    # oversized classes, and skews over them
                    cases += [(apply, (apply(full, spec), e))
                              for e in _explicit_specs(full, rng)]
    witness = find_confusable_pair(6, "sym_pair_delete", 2)
    cases.append((insertion_witness_readouts, (witness,)))
    return cases


def _built(build, args):
    """The readout built, as its value, repr and pickle, or the domain
    error raised.  A plain ValueError is Readout(...) refusing what a
    builder handed it unchecked, and fails the test."""
    try:
        out = build(*args)
    except CompCodesError as exc:  # ParseError, InvalidErrorSpecError
        return type(exc), str(exc)
    readouts = out if isinstance(out, tuple) else (out,)
    return [(r, repr(r), pickle.dumps(r)) for r in readouts]


def test_library_builders_hand_over_only_valid_readouts(monkeypatch):
    # every builder, run again with _from_valid swapped for the checked
    # Readout(...), raises no ValueError and builds the same readouts
    cases = _builder_cases()
    unchecked = [_built(build, args) for build, args in cases]
    # a builder's class sizes and weights, when it hands them over, are
    # those the checked readout sums from its own vectors
    handed = []

    def checked_readout(cls, n, classes, sizes=None, weights=None):
        r = cls(n, classes)
        if sizes is not None or weights is not None:
            assert (sizes, weights) == (r._sizes, r._weights), (n, classes)
            handed.append(n)
        return r

    monkeypatch.setattr(Readout, "_from_valid", classmethod(checked_readout))
    checked = [_built(build, args) for build, args in cases]
    for (build, args), got, want in zip(cases, unchecked, checked):
        assert got == want, (build.__name__, args)
    refused = sum(type(outcome) is tuple for outcome in checked)
    assert refused > 300 and len(cases) - refused > 2100
    # every readout parse_readout accepts hands them over
    assert len(handed) == sum(build is parse_readout and type(outcome) is list
                              for (build, _), outcome in zip(cases, checked))
    assert len(handed) > 90
