"""No call on a hot path leaves a reference cycle behind.

The decoder's walks are loops, but the codebook enumeration's walk is a
recursive closure whose cell holds the closure itself.  Unless that
self-reference is dropped when the walk ends, every enumeration is
cyclic garbage that only the cyclic GC frees, and its collections land
inside whatever runs next; a closure brought back into a walk would do
the same to every decode.
Each test runs its call once to warm caches, collects, runs it again with
the GC disabled, and asserts that a collection then finds nothing.
"""

import contextlib
import gc
import io
import json
import sys

import pytest

from compcodes import cli, codebooks, oracle
from compcodes.codebooks import CodebookSpec, enumerate_codebook
from compcodes.core import full_readout
from compcodes.errors import ResourceCapError, UndecodableError
from compcodes.experiment import ExperimentConfig, record_line, run_experiment
from compcodes.reconstructor import (brute_force_decode, decode_deletions,
                                     reconstruct)

from conftest import EXAMPLE_S

SR9 = CodebookSpec("SR", 9)


def _cyclic_garbage(call) -> int:
    """Objects a collection finds after ``call()``, run with the GC off
    after a warm-up call; the GC's state is restored afterwards."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _decode_ok():
    r = full_readout(EXAMPLE_S).restrict({3})
    assert decode_deletions(r, SR9).result == EXAMPLE_S


def _decode_undecodable():
    # both members collide once classes 3 and 4 are deleted
    try:
        decode_deletions(full_readout("001101").restrict({3, 4}),
                         CodebookSpec("SR", 6))
    except UndecodableError as exc:
        assert set(exc.candidates) == {"001101", "010011"}
    else:
        pytest.fail("no UndecodableError")


def _decode_n255():
    # the walk at full size, one class deleted
    s = "0" * 128 + "1" * 127
    r = full_readout(s).restrict({7})
    assert decode_deletions(r, CodebookSpec("SR", 255)).result == s


def _decode_over_budget():
    # the walk is unpruned with the upper half deleted, and the budget
    # stops it deep inside the recursion
    r = full_readout("0" * 128 + "1" * 127).restrict(set(range(129, 256)))
    try:
        decode_deletions(r, CodebookSpec("SR", 255))
    except ResourceCapError:
        pass
    else:
        pytest.fail("no ResourceCapError")


def _reconstruct():
    assert reconstruct(full_readout(EXAMPLE_S)).result == EXAMPLE_S


def _brute_force():
    r = full_readout(EXAMPLE_S).restrict({3})
    assert brute_force_decode(r, SR9).result == EXAMPLE_S


def _campaign():
    # three symmetric pairs on SR:10 fail some trials; n <= 12 cross-checks
    cfg = ExperimentConfig(CodebookSpec("SR", 10), "sym_pair_delete",
                           errors=3, trials=20, seed=7)
    records = list(run_experiment(cfg))
    for record in records:
        record_line(record)
    assert {r["outcome"] for r in records} == {"decoded",
                                               "failed:UndecodableError"}
    assert {r["crosscheck"] for r in records} == {"ok"}


def _run_cli(argv, stdin_text=""):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    finally:
        sys.stdin = saved
    return out.getvalue()


def _cli_pipeline():
    readout = _run_cli(["compose", EXAMPLE_S])
    corrupted = _run_cli(["corrupt", "--model", "sym_pair_delete", "--count",
                          "1", "--seed", "5"], readout)
    decoded = _run_cli(["decode", "--spec", "SR:9"], corrupted)
    assert json.loads(decoded)["result"] == EXAMPLE_S


def _verify_with_witness():
    witness = oracle.verify_code_property(CodebookSpec("SR", 6),
                                          "sym_pair_delete", 2)
    assert witness is not None and witness.verify()


def _colliding_pairs():
    assert list(oracle.colliding_pairs(CodebookSpec("SR", 10),
                                       "sym_pair_delete", 2))


def _count_classes():
    assert oracle.count_classes(8)[0] > 0


def _fresh_enumeration():
    codebooks._members.cache_clear()
    assert enumerate_codebook(CodebookSpec("SDS2", 14, a=3))


@pytest.mark.parametrize("call", [
    _decode_ok, _decode_undecodable, _decode_n255, _decode_over_budget,
    _reconstruct, _brute_force, _campaign, _cli_pipeline,
    _verify_with_witness, _colliding_pairs, _count_classes,
    _fresh_enumeration,
], ids=lambda f: f.__name__.lstrip("_"))
def test_call_leaves_no_cyclic_garbage(call):
    assert _cyclic_garbage(call) == 0

