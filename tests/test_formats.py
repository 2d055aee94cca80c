"""Serialization: canonical bytes, round trips, parse failures."""

import hashlib

import pytest

from compcodes.channel import ErrorSpec
from compcodes.codebooks import CodebookSpec
from compcodes.core import Composition, full_readout
from compcodes.errors import ParseError
from compcodes.formats import (
    config_hash,
    emit_error_spec,
    emit_readout,
    emit_report,
    emit_spec,
    parse_error_spec,
    parse_readout,
    parse_spec,
)
from compcodes.reconstructor import DecodeReport
from conftest import EXAMPLE_S


def test_emit_readout_canonical_example():
    assert emit_readout(full_readout("01")) == \
        '{"n":2,"classes":{"1":[[1,0],[0,1]],"2":[[1,1]]}}'


def test_emit_readout_golden_digest():
    # sha256 of emit_readout(full_readout(s)) + "\n" for every s with
    # 2 <= len(s) <= 10 in length-then-lexicographic order; recorded once
    h = hashlib.sha256()
    for n in range(2, 11):
        for x in range(2 ** n):
            h.update(emit_readout(full_readout(format(x, f"0{n}b"))).encode() + b"\n")
    assert h.hexdigest() == \
        "ebd1e03084b8af555df01a4d19d84b7f5403f11792a73a4602e5e42bc065bdc4"


def test_readout_roundtrip():
    r = full_readout(EXAMPLE_S)
    assert parse_readout(emit_readout(r)) == r


def test_emit_is_canonical_under_input_order():
    r = full_readout(EXAMPLE_S)
    shuffled = r.restrict(set())  # copy
    text1 = emit_readout(r)
    # reinsert classes in reverse order; bytes must not change
    shuffled.classes = dict(sorted(shuffled.classes.items(), reverse=True))
    assert emit_readout(shuffled) == text1


def test_parse_flags_size_anomalies_without_rejecting():
    r = full_readout(EXAMPLE_S)
    corrupted = parse_readout(emit_readout(r).replace(
        '"7":[[4,3],[3,4],[2,5]]', '"7":[[4,3],[3,4],[2,5],[1,6]]'))
    assert corrupted.oversized_classes() == (7,)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_readout("not json")
    with pytest.raises(ParseError):
        parse_readout('{"classes":{}}')
    with pytest.raises(ParseError):
        parse_readout('{"n":2,"classes":{"1":[[1,-1]]}}')
    with pytest.raises(ParseError):
        parse_readout('{"n":2,"classes":{"1":[[1,1]]}}')  # length mismatch
    with pytest.raises(ParseError):
        parse_readout('{"n":2,"classes":{"5":[[4,1]]}}')  # class beyond n


def test_spec_roundtrip_and_compact_form():
    spec = CodebookSpec("SDA", 12, t=2)
    assert emit_spec(spec) == '{"family":"SDA","n":12,"t":2,"a":0}'
    assert parse_spec(emit_spec(spec)) == spec
    assert parse_spec("SDA:12,t=2") == spec
    assert parse_spec("SDS2:10,a=3") == CodebookSpec("SDS2", 10, a=3)
    assert parse_spec("SR:9") == CodebookSpec("SR", 9)
    for bad in ("SR", "SR:", "XX:9", "SR:9,q=1", '{"family":"SR"}'):
        with pytest.raises(ParseError):
            parse_spec(bad)


def test_error_spec_roundtrips():
    specs = [
        ErrorSpec("asym_delete", targets=(3,)),
        ErrorSpec("sym_pair_delete", targets=((3, 7),)),
        ErrorSpec("insert", targets=((7, Composition(1, 6)),)),
        ErrorSpec("skew", targets=((7, Composition(2, 5), Composition(3, 4)),)),
        ErrorSpec("asym_delete", count=2, seed=7),
    ]
    for e in specs:
        assert parse_error_spec(emit_error_spec(e)) == e


def test_report_emission():
    rep = DecodeReport("01", dropped_classes=(2,), backtracks=1,
                       max_backtrack_span=1)
    assert emit_report(rep) == ('{"result":"01","dropped_classes":[2],'
                                '"backtracks":1,"max_backtrack_span":1}')


def test_config_hash_is_order_insensitive():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
