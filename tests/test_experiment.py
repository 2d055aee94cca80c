"""Campaign runner: determinism, replayability, cross-checking."""

import hashlib

import pytest

from compcodes.codebooks import CodebookSpec
from compcodes.errors import InvalidErrorSpecError
from compcodes.experiment import (
    ExperimentConfig,
    record_line,
    run_experiment,
    strip_wall_time,
)
from compcodes.formats import parse_spec


def run_lines(cfg):
    return [record_line(rec) for rec in run_experiment(cfg)]


def test_replay_is_byte_identical_without_wall_time():
    cfg = ExperimentConfig(CodebookSpec("SR", 9), "asym_delete",
                           errors=1, trials=20, seed=42)
    first = [strip_wall_time(line) for line in run_lines(cfg)]
    second = [strip_wall_time(line) for line in run_lines(cfg)]
    assert first == second


# (spec, model, errors) -> (config hash, sha256 of the 25 replay lines
# without wall time, joined by newlines), seed 11.  Recorded once so that
# codeword draws, corruption draws and record bytes are pinned across
# versions, not only between two runs of one version.
GOLDEN_CAMPAIGNS = {
    ("SDA:12,t=2", "skew", 2): (
        "4e48278a9ac672f5",
        "575013aa838e176caecfb77fc5a2cb0ec63088069027f752865f3597b7fbca3e"),
    ("SR:11", "insert", 1): (
        "23825a122943f8d4",
        "d0bb43cc012663f639e9bed77396ce0b4208c0b962d0544348f6c9666be703b9"),
    ("SR:9", "asym_delete", 1): (
        "3b46735d63e8abcf",
        "3b41d6b8667d50b6a054a7aa3e16c02e2c50d1497361ad034efe9316861b0aac"),
    ("SDS2:12", "sym_pair_delete", 2): (
        "4dca524417cb927d",
        "5c5181e774edfd42d6c923459720183d30b9f1562d7a38e06bc26c915b26b8f0"),
}


def test_replay_lines_match_golden_digests():
    for (spec, model, errors), (cfg_hash, digest) in GOLDEN_CAMPAIGNS.items():
        cfg = ExperimentConfig(parse_spec(spec), model, errors=errors,
                               trials=25, seed=11)
        assert cfg.hash() == cfg_hash, spec
        lines = [strip_wall_time(line) for line in run_lines(cfg)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, spec


def test_config_refuses_errors_no_trial_can_draw():
    # asym_delete absorbs at most 4 deletions at n = 9; the config is
    # refused where it is built, even when it has no trials to draw
    for model, errors in (("asym_delete", 0), ("asym_delete", 5),
                          ("asym_delete", 9), ("erase", 1)):
        with pytest.raises(InvalidErrorSpecError):
            ExperimentConfig(CodebookSpec("SR", 9), model, errors=errors,
                             trials=0, seed=1)


def test_config_refuses_non_integer_trials_and_cap():
    # 2.5 and None fail only inside run_experiment, and True would run
    # one trial with "trials": true in the config hash
    for field, value in (("trials", 2.5), ("trials", True),
                         ("cross_check_cap", None), ("cross_check_cap", 12.0)):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(CodebookSpec("SR", 9), "asym_delete", errors=1,
                             seed=1, **{"trials": 3, field: value})


def test_different_seeds_differ():
    base = dict(spec=CodebookSpec("SR", 9), model="asym_delete",
                errors=1, trials=10)
    a = [strip_wall_time(x) for x in run_lines(ExperimentConfig(seed=1, **base))]
    b = [strip_wall_time(x) for x in run_lines(ExperimentConfig(seed=2, **base))]
    assert a != b


def test_config_hash_recorded_in_every_row():
    cfg = ExperimentConfig(CodebookSpec("SR", 9), "sym_pair_delete",
                           errors=1, trials=5, seed=3)
    for rec in run_experiment(cfg):
        assert rec["config_hash"] == cfg.hash()


def test_guaranteed_regimes_always_decode():
    cases = [
        (CodebookSpec("SR", 9), "asym_delete", 1),
        (CodebookSpec("SR", 9), "sym_pair_delete", 1),
        (CodebookSpec("SR", 9), "insert", 1),
        (CodebookSpec("SDA", 12, t=2), "skew", 2),
        (CodebookSpec("SDA", 12, t=2), "asym_delete", 2),
        (CodebookSpec("SDS2", 10, a=0), "sym_pair_delete", 2),
    ]
    for spec, model, errors in cases:
        cfg = ExperimentConfig(spec, model, errors=errors, trials=30, seed=7)
        for rec in run_experiment(cfg):
            assert rec["outcome"] == "decoded", rec
            assert rec["match"], rec
            assert rec["crosscheck"] == "ok", rec


def test_hundred_single_deletion_trials_all_succeed():
    cfg = ExperimentConfig(CodebookSpec("SR", 9), "asym_delete",
                           errors=1, trials=100, seed=13)
    outcomes = [rec["match"] for rec in run_experiment(cfg)]
    assert outcomes == [True] * 100


def test_beyond_guarantee_patterns_fail_per_trial_without_aborting():
    # two or three symmetric pairs on SR, and two skews on SR:11 (a centre
    # skew that no weight comparison flags is retried with the centre
    # dropped): a trial decodes or fails on its own, and the reference
    # agrees with every outcome
    failed = 0
    for spec, model, errors, seed in (("SR:12", "sym_pair_delete", 2, 4),
                                      ("SR:10", "sym_pair_delete", 3, 7),
                                      ("SR:11", "skew", 2, 7)):
        cfg = ExperimentConfig(parse_spec(spec), model, errors=errors,
                               trials=20, seed=seed)
        records = list(run_experiment(cfg))
        assert len(records) == 20
        for rec in records:
            assert rec["outcome"] in ("decoded", "failed:UndecodableError"), rec
            assert rec["match"] == (rec["outcome"] == "decoded"), rec
            assert rec["crosscheck"] == "ok", rec
            failed += rec["outcome"] != "decoded"
    assert failed > 0


def test_cross_check_cap_skips_brute_force():
    cfg = ExperimentConfig(CodebookSpec("SR", 13), "asym_delete",
                           errors=1, trials=3, seed=1, cross_check_cap=12)
    for rec in run_experiment(cfg):
        assert rec["crosscheck"] == "skipped"
        assert rec["match"]
