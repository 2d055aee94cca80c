"""Seeded decode campaigns with JSONL persistence.

A campaign is a pure function of its configuration: codeword choices and
corruption draws all derive from the seed, so a run can be replayed and
compared byte for byte (the wall-time field is the one exception and is
ignored by the replay check).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from . import channel, reconstructor
from .codebooks import CodebookSpec, enumerate_codebook
from .core import full_readout
from .errors import CompCodesError, UndecodableError
from .formats import config_hash, error_spec_to_dict

DEFAULT_CROSS_CHECK_CAP = 12

# every channel model reduces to one drop set, so one decoder serves all
_DECODERS = dict.fromkeys(channel.MODELS, reconstructor.decode_deletions)


@dataclass(frozen=True)
class ExperimentConfig:
    spec: CodebookSpec
    model: str
    errors: int
    trials: int
    seed: int
    cross_check_cap: int = DEFAULT_CROSS_CHECK_CAP

    def __post_init__(self):
        # errors and seed are checked as exact ints by channel below
        for field in ("trials", "cross_check_cap"):
            value = getattr(self, field)
            if type(value) is not int:
                raise ValueError(f"{field} must be an integer, got {value!r}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        # each trial draws this spec under its own seed, so a model or
        # count that no draw takes is refused here, even with no trials
        channel.random_error(self.model, self.errors, self.seed, self.spec.n)

    def payload(self) -> dict:
        return {"spec": asdict(self.spec), "model": self.model,
                "errors": self.errors, "trials": self.trials, "seed": self.seed,
                "cross_check_cap": self.cross_check_cap}

    def hash(self) -> str:
        return config_hash(self.payload())


def run_experiment(cfg: ExperimentConfig):
    """Yield one record dict per trial, in trial order."""
    members = enumerate_codebook(cfg.spec)
    if not members:
        raise CompCodesError(f"codebook {cfg.spec} is empty")
    decoder = _DECODERS[cfg.model]
    cfg_hash = cfg.hash()
    rng = channel.SplitMix64(cfg.seed)
    for trial in range(cfg.trials):
        rank_idx = rng.below(len(members))
        trial_seed = rng.next_u64()
        codeword = members[rank_idx]
        readout = full_readout(codeword)
        err = channel.random_error(cfg.model, cfg.errors, trial_seed, cfg.spec.n)
        resolved = channel.resolve(readout, err)
        corrupted = channel.apply(readout, resolved)
        record = {"trial": trial, "config_hash": cfg_hash, "rank": rank_idx,
                  "codeword": codeword,
                  "error": error_spec_to_dict(resolved)}
        start = time.perf_counter()
        try:
            rep = decoder(corrupted, cfg.spec)
            record.update(outcome="decoded", decoded=rep.result,
                          match=rep.result == codeword,
                          dropped=list(rep.dropped_classes),
                          backtracks=rep.backtracks)
        except CompCodesError as exc:
            record.update(outcome=f"failed:{type(exc).__name__}",
                          decoded=None, match=False, dropped=[], backtracks=0)
        if cfg.spec.n > cfg.cross_check_cap:
            record["crosscheck"] = "skipped"
        else:
            try:
                bf = reconstructor.brute_force_decode(corrupted, cfg.spec)
                agree = bf.result == record["decoded"]
            except UndecodableError:
                agree = record["decoded"] is None
            record["crosscheck"] = "ok" if agree else "mismatch"
        record["wall_ms"] = round((time.perf_counter() - start) * 1000, 3)
        yield record


def record_line(record: dict) -> str:
    """Canonical JSONL line; field order fixed, wall time last."""
    ordered = {k: record[k] for k in
               ("trial", "config_hash", "rank", "codeword", "error", "outcome",
                "decoded", "match", "dropped", "backtracks", "crosscheck",
                "wall_ms")}
    return json.dumps(ordered, separators=(",", ":"))


def strip_wall_time(line: str) -> str:
    """Replay comparison key: the record without its timing field."""
    obj = json.loads(line)
    obj.pop("wall_ms", None)
    return json.dumps(obj, separators=(",", ":"))
