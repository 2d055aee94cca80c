"""The benchmark's three workloads.

Each workload is driven from one process with no threads.  ``setup``
enumerates every codebook the workload uses (cold, in a fresh
interpreter); ``prepare`` generates the inputs from the seed and is not
timed; ``run_pass`` runs the workload's trial list once and times each
trial, and every pass of a run repeats the same list, so each input gets
several timings; ``mark`` is called between trials, never inside a timed
region; ``check`` verifies the outputs of a pass afterwards, so
checking is never inside a timed region.

All calls into compcodes go through module attributes looked up at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from dataclasses import dataclass, field

from compcodes import channel, cli, codebooks, experiment, oracle
from compcodes.codebooks import CodebookSpec
from compcodes.formats import parse_spec


@dataclass
class PassResult:
    """Timings of one pass plus the raw outputs that ``check`` verifies.

    ``trial_s[i]`` is the time of trial i, in the same order every pass,
    and ``trial_t0[i]`` its start on ``time.perf_counter``; ``codec``
    holds (batch key, operations, start, seconds) of each timed batch of
    codec operations.
    """

    trial_s: list[float] = field(default_factory=list)
    trial_t0: list[float] = field(default_factory=list)
    codec: list[tuple[str, int, float, float]] = field(default_factory=list)
    outputs: list = field(default_factory=list)


def _no_mark(trial_id: str) -> None:
    pass


def _draw_indices(rng: channel.SplitMix64, size: int, count: int) -> list[int]:
    return [rng.below(size) for _ in range(count)]


def _round_trips(specs, indices, res: PassResult, mark, trial_id: str) -> list[list[int]]:
    """rank(unrank(i)) for every index, one timed batch per codebook."""
    got = []
    for spec, idx in zip(specs, indices):
        mark(trial_id)
        start = time.perf_counter()
        got.append([codebooks.rank(spec, codebooks.unrank(spec, i)) for i in idx])
        res.codec.append((str(spec.key()), 2 * len(idx), start, time.perf_counter() - start))
    return got


def _check_round_trips(specs, indices, got) -> tuple[int, list[str]]:
    failures = []
    for spec, idx, back in zip(specs, indices, got):
        bad = sum(a != b for a, b in zip(idx, back))
        if bad:
            failures.append(f"{spec}: {bad} rank(unrank(i)) != i")
    return sum(len(idx) for idx in indices), failures


class Workload:
    name = ""

    def __init__(self, profile: str):
        self.mark = _no_mark

    def specs(self) -> list[CodebookSpec]:
        return []

    def setup(self) -> None:
        for spec in self.specs():
            codebooks.enumerate_codebook(spec)

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, p: int) -> PassResult:
        raise NotImplementedError

    def check(self, p: int, res: PassResult) -> tuple[int, list[str]]:
        """Attempted operations and failure messages for one pass."""
        raise NotImplementedError


# --------------------------------------------------------------------------
# cli-n255: compose | corrupt | decode through compcodes.cli.main, in-process.

# (spec, corruption model, error count); "consecutive" is SDSprime's
# guarantee, passed as explicit targets (two adjacent symmetric pairs).
CLI_CASES = (
    ("SR:{n}", "asym_delete", 1),
    ("SDA:{n},t=2", "skew", 2),
    ("SDS2:{n}", "sym_pair_delete", 2),
    ("SDSprime:{n},t=2", "consecutive", 2),
    ("SR:{n}", "insert", 1),
)


def _run_cli(argv: list[str], stdin_text: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


class CliWorkload(Workload):
    name = "cli-n255"

    def __init__(self, profile: str):
        super().__init__(profile)
        self.n = 255 if profile == "full" else 63
        self.per_case = 1  # codewords per case: short passes, many repetitions

    def prepare(self, seed: int) -> None:
        rng = channel.SplitMix64(seed)
        self.trials = []
        for template, model, count in CLI_CASES:
            spec_text = template.format(n=self.n)
            spec = parse_spec(spec_text)
            for _ in range(self.per_case):
                codeword = self._draw_member(spec, rng)
                self.trials.append((spec_text, codeword, self._corrupt_args(rng, model, count)))

    def _draw_member(self, spec: CodebookSpec, rng: channel.SplitMix64) -> str:
        """Seeded rejection sampling against is_member (endpoints fixed 0...1)."""
        inner = self.n - 2
        while True:
            bits = "".join(format(rng.next_u64(), "064b") for _ in range(inner // 64 + 1))
            s = "0" + bits[:inner] + "1"
            if codebooks.is_member(spec, s):
                return s

    def _corrupt_args(self, rng: channel.SplitMix64, model: str, count: int) -> list[str]:
        if model == "consecutive":
            i = 1 + rng.below(self.n // 2 - 1)
            pairs = [[i, self.n + 1 - i], [i + 1, self.n - i]]
            return ["--targets", json.dumps({"model": "sym_pair_delete", "targets": pairs})]
        return ["--model", model, "--count", str(count), "--seed", str(rng.below(1 << 31))]

    def run_pass(self, p: int) -> PassResult:
        res = PassResult()
        for t, (spec_text, codeword, corrupt_args) in enumerate(self.trials):
            self.mark(f"{p}:{t}")
            t0 = time.perf_counter()
            rc1, readout = _run_cli(["compose", codeword], "")
            t1 = time.perf_counter()
            rc2, corrupted = _run_cli(["corrupt", *corrupt_args], readout)
            t2 = time.perf_counter()
            rc3, decoded = _run_cli(["decode", "--spec", spec_text], corrupted)
            t3 = time.perf_counter()
            res.trial_s.append(t3 - t0)
            res.trial_t0.append(t0)
            res.codec.append((str(t), 2, t0, (t1 - t0) + (t3 - t2)))  # compose and decode
            res.outputs.append((spec_text, codeword, corrupt_args, (rc1, rc2, rc3), decoded))
        return res

    def check(self, p: int, res: PassResult) -> tuple[int, list[str]]:
        failures = []
        for spec_text, codeword, corrupt_args, codes, decoded in res.outputs:
            try:
                result = json.loads(decoded).get("result")
            except ValueError:
                result = None
            if codes != (0, 0, 0) or result != codeword:
                failures.append(f"{spec_text} {' '.join(corrupt_args)}: exit codes "
                                f"{codes}, decoded {result!r} != {codeword}")
        return len(res.outputs), failures


# --------------------------------------------------------------------------
# campaign: experiment.run_experiment campaigns plus rank/unrank round trips.

# (spec, model, errors).  n <= 12 campaigns are cross-checked by
# brute_force_decode (experiment.DEFAULT_CROSS_CHECK_CAP); the last one
# is not, and its cold enumeration dominates set-up.
_CROSS_CHECKED = (("SR:12", "skew", 1), ("SDA:12,t=2", "asym_delete", 2),
                  ("SDS2:12", "sym_pair_delete", 2), ("SR:11", "insert", 1))
CAMPAIGNS = {
    "full": _CROSS_CHECKED + (("SDS2:20", "sym_pair_delete", 2),),
    "smoke": _CROSS_CHECKED + (("SDS2:14", "sym_pair_delete", 2),),
}


class CampaignWorkload(Workload):
    name = "campaign"

    def __init__(self, profile: str):
        super().__init__(profile)
        self.campaigns = CAMPAIGNS[profile]
        self.trials_per_campaign = 200 if profile == "full" else 10  # per pass
        self.round_trips = 500 if profile == "full" else 20  # per codebook per pass

    def specs(self) -> list[CodebookSpec]:
        return [parse_spec(spec) for spec, _, _ in self.campaigns]

    def prepare(self, seed: int) -> None:
        rng = channel.SplitMix64(seed)
        self.configs = [
            experiment.ExperimentConfig(spec=parse_spec(spec), model=model, errors=errors,
                                        trials=self.trials_per_campaign,
                                        seed=rng.next_u64())
            for spec, model, errors in self.campaigns]
        self.codec_specs = self.specs()
        self.indices = [_draw_indices(rng, len(codebooks.enumerate_codebook(spec)),
                                      self.round_trips)
                        for spec in self.codec_specs]
        self.first_lines = None

    def run_pass(self, p: int) -> PassResult:
        res = PassResult()
        for c, cfg in enumerate(self.configs):
            records = experiment.run_experiment(cfg)
            t = 0
            while True:
                self.mark(f"{p}:{c}:{t}")
                t0 = time.perf_counter()
                try:
                    record = next(records)
                except StopIteration:
                    break
                line = experiment.record_line(record)
                res.trial_s.append(time.perf_counter() - t0)
                res.trial_t0.append(t0)
                res.outputs.append((c, record, line))
                t += 1
        res.outputs.append(("codec", _round_trips(self.codec_specs, self.indices, res,
                                                  self.mark, f"{p}:codec")))
        return res

    def check(self, p: int, res: PassResult) -> tuple[int, list[str]]:
        failures = []
        attempted = 0
        lines = []
        for item in res.outputs:
            if item[0] == "codec":
                n, bad = _check_round_trips(self.codec_specs, self.indices, item[1])
                attempted += n
                failures += bad
                continue
            c, record, line = item
            attempted += 1
            if not record["match"] or record["crosscheck"] == "mismatch":
                failures.append(f"{self.campaigns[c]}: trial {record['trial']} "
                                f"outcome {record['outcome']} crosscheck {record['crosscheck']}")
            lines.append(experiment.strip_wall_time(line))
        # every pass replays the same configurations, so its lines must
        # equal the first pass's byte for byte
        if self.first_lines is None:
            self.first_lines = lines
        elif lines != self.first_lines:
            diff = sum(a != b for a, b in zip(lines, self.first_lines))
            diff += abs(len(lines) - len(self.first_lines))
            failures.append(f"replay of pass {p}: {diff} lines differ from pass 0")
        return attempted, failures


# --------------------------------------------------------------------------
# oracle-n16: a fixed sweep list, plus rank/unrank round trips timed apart.

def _witness(w) -> list | None:
    return None if w is None else [w.s, w.v, sorted(w.deleted_classes)]


# Results pinned at the seed commit (629794f).  count_classes is pinned
# as (count, first 16 hex digits of sha256 of the newline-joined reps).
# The sweep runs at n=16 (count_classes at 14): at n=18 its calls take
# 0.3-5 s, too long to repeat often enough within a run to reject the
# host's slow periods.
ORACLE_SWEEPS = {
    "full": {
        "verify_n": 16, "find_n": 16, "classes_n": 14,
        "verify": [None, None, None, None, None],
        "find": ["0000000001000001", "0000000010000001", [7, 8, 9, 10]],
        "classes": [8244, "f39e8b1799590281"],
    },
    # n=10 holds the paper's SDSprime modulus falsification (a = 2, 3)
    "smoke": {
        "verify_n": 10, "find_n": 10, "classes_n": 10,
        "verify": [None, None, ["0100111011", "0110010111", [4, 5, 6, 7]],
                   ["0001011001", "0010001101", [4, 5, 6, 7]], None],
        "find": ["0001001011", "0010001101", [3, 4, 7, 8]],
        "classes": [528, "2050e218da2cbe0e"],
    },
}


class OracleWorkload(Workload):
    name = "oracle-n16"

    def __init__(self, profile: str):
        super().__init__(profile)
        self.pinned = ORACLE_SWEEPS[profile]
        self.round_trips = 1500 if profile == "full" else 20

    def specs(self) -> list[CodebookSpec]:
        n = self.pinned["verify_n"]
        return [CodebookSpec("SR", self.pinned["find_n"])] + [
            CodebookSpec("SDSprime", n, 2, a) for a in range(len(self.pinned["verify"]))]

    def prepare(self, seed: int) -> None:
        # the sweep list is fixed; the seed picks the round-trip indices
        rng = channel.SplitMix64(seed)
        self.codec_specs = self.specs()
        self.indices = [_draw_indices(rng, len(codebooks.enumerate_codebook(spec)),
                                      self.round_trips)
                        for spec in self.codec_specs]
        n = self.pinned["verify_n"]
        self.sweep = [(f"verify SDSprime:{n},t=2,a={spec.a}",
                       lambda spec=spec: oracle.verify_code_property(
                           spec, "consecutive_sym_pair_delete", 2, cap=n))
                      for spec in self.codec_specs[1:]]
        fn = self.pinned["find_n"]
        self.sweep.append((f"find_confusable_pair {fn}",
                           lambda: oracle.find_confusable_pair(fn, "sym_pair_delete", 2, cap=fn)))
        cn = self.pinned["classes_n"]
        self.sweep.append((f"count_classes {cn}", lambda: oracle.count_classes(cn)))

    def run_pass(self, p: int) -> PassResult:
        res = PassResult()
        for t, (label, call) in enumerate(self.sweep):
            self.mark(f"{p}:{t}")
            t0 = time.perf_counter()
            result = call()
            res.trial_s.append(time.perf_counter() - t0)
            res.trial_t0.append(t0)
            res.outputs.append((label, result))
        # round trips after the sweep, timed apart from it, in as many
        # rounds as the sweep has calls
        for r in range(len(self.sweep)):
            res.outputs.append(("codec", _round_trips(self.codec_specs, self.indices, res,
                                                      self.mark, f"{p}:{r}:codec")))
        return res

    def check(self, p: int, res: PassResult) -> tuple[int, list[str]]:
        pinned = self.pinned
        expected = iter(list(pinned["verify"]) + [pinned["find"]])
        failures = []
        attempted = 0
        for label, result in res.outputs:
            if label == "codec":
                n, bad = _check_round_trips(self.codec_specs, self.indices, result)
                attempted += n
                failures += bad
                continue
            attempted += 1
            if label.startswith("count_classes"):
                count, reps = result
                digest = hashlib.sha256("\n".join(reps).encode()).hexdigest()[:16]
                if [count, digest] != pinned["classes"]:
                    failures.append(f"{label}: {[count, digest]} != pinned {pinned['classes']}")
                continue
            want = next(expected)
            if _witness(result) != want:
                failures.append(f"{label}: {_witness(result)} != pinned {want}")
            elif result is not None and not result.verify():
                failures.append(f"{label}: witness fails ConfusabilityWitness.verify()")
        return attempted, failures


WORKLOADS = {w.name: w for w in (CliWorkload, CampaignWorkload, OracleWorkload)}
