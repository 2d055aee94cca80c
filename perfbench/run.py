"""compcodes benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

  python3 perfbench/run.py --workload cli-n255 --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with
no instrumentation on the pure-Python kernel.  --trace 1 runs the same
work untraced and traced (per-layer metrics, tracing overhead), then
again on the compiled kernel built from src/compcodes/_ckernel.c.
--smoke runs every workload at tiny sizes in both modes and checks that
every metric of BENCHMARK.json is emitted with its unit.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the full record, with provenance, goes to
perfbench/results/.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

from refclock import REFERENCE_S, scaler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BUILD = HERE / "build"
CKERNEL_SOURCE = SRC / "compcodes" / "_ckernel.c"

WORKLOADS = ("cli-n255", "campaign", "oracle-n16")
# Fresh-interpreter set-up samples per run, besides the measured worker's.
SETUP_PROBES = {"cli-n255": 7, "campaign": 3, "oracle-n16": 5}
# Passes of a traced run, each run once untraced and once traced; fixed
# so that exact counts repeat run to run.
TRACE_PASSES = {"cli-n255": 6, "campaign": 4, "oracle-n16": 6}
TAIL_BEYOND = 10
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A worker failed or the checkout cannot be benchmarked."""


class Runner:
    """Starts workers one at a time within the run's time budget."""

    def __init__(self, workload: str, profile: str):
        self.workload = workload
        self.profile = profile
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def worker(self, mode: str, *, seed: int = 0, seconds: float = 0.0,
               passes: int = 1, compiled: Path | None = None,
               spans_out: Path | None = None) -> dict:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        if compiled is None:
            env["COMPCODES_PURE"] = "1"
        else:
            env.pop("COMPCODES_PURE", None)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--profile", self.profile, "--mode", mode, "--seed", str(seed),
               "--seconds", str(seconds), "--passes", str(passes)]
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
        if compiled is not None:
            cmd += ["--compiled-kernel", str(compiled)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted before starting a worker")
        cmd += ["--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {mode} worker exceeded the run budget") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{self.workload} {mode} worker exited with {proc.returncode}")
        return json.loads(lines[-1])


# -- statistics -------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  The value is the sample
    with exactly TAIL_BEYOND larger ones; with fewer samples it is the
    maximum, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def best_of_passes(timings: dict) -> dict:
    """Each input's best time over the passes of a run, unscaled.

    Every pass repeats the same inputs, so column i of the per-pass
    trial times belongs to one input.  The traced run compares kinds of
    pass (untraced, traced, pure kernel) run in ABBA order in one worker,
    so the host's drift hits each kind alike, and the best time rejects
    its swings.  ``sweep_s`` is the time of one pass with every trial at
    its best; each codec batch likewise counts with its best time.
    """
    trials = [min(col) for col in zip(*timings["trial_s"])]
    codec: dict[str, tuple[int, float]] = {}
    for key, ops, _, sec in timings["codec"]:
        if key not in codec or sec < codec[key][1]:
            codec[key] = (ops, sec)
    return {"trial_s": trials, "sweep_s": sum(trials),
            "codec_ops": sum(ops for ops, _ in codec.values()),
            "codec_s": sum(sec for _, sec in codec.values())}


def scaled_medians(rep: dict) -> dict:
    """Each input's median time over the passes, scaled to the reference.

    Every pass repeats the same inputs, so column i of the per-pass trial
    times belongs to one input.  Each time is first scaled by the
    reference loop timed next to it (refclock.py), which removes the
    host's swings in speed; the median over passes then drops the times
    a swing in mid-trial left mis-scaled.  ``sweep_s`` is one pass with
    every trial at its median; each codec batch likewise counts with its
    median.
    """
    scale = scaler(rep["reference"])
    trials = [statistics.median(map(scale, starts, secs))
              for starts, secs in zip(zip(*rep["trial_t0"]), zip(*rep["trial_s"]))]
    batches: dict[str, tuple[int, list[float]]] = {}
    for key, ops, t0, sec in rep["codec"]:
        batches.setdefault(key, (ops, []))[1].append(scale(t0, sec))
    return {"trial_s": trials, "sweep_s": sum(trials),
            "codec_ops": sum(ops for ops, _ in batches.values()),
            "codec_s": sum(statistics.median(secs) for _, secs in batches.values())}


def end_to_end(rep: dict, setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced worker, plus their details.

    ``setups`` are the reports of the run's fresh interpreters.  Every
    time is scaled to the reference loop (refclock.py): a set-up time by
    the reference timed in its own process just before and after it.
    Unscaled figures stand beside the metrics in the details.
    """
    scaled = scaled_medians(rep)
    setup_s = statistics.median(
        s["setup_s"] * REFERENCE_S / s["setup_reference_s"] for s in setups)
    trials = scaled["trial_s"]
    tail_s, tail_pct, n = tail(trials)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rep["peak_rss_mb"], "MB"),
        "trials_per_s": (len(trials) / sum(trials), "1/s"),
        "trial_ms_p50": (statistics.median(trials) * 1e3, "ms"),
        "trial_ms_tail": (tail_s * 1e3, "ms"),
        "codec_ops_per_s": (scaled["codec_ops"] / scaled["codec_s"], "1/s"),
        "sweep_s": (scaled["sweep_s"], "s"),
        "ok_ratio": ((rep["attempted"] - rep["failed"]) / rep["attempted"], "ratio"),
    }
    raw = best_of_passes(rep)
    detail = {"trial_ms_tail_percentile": round(tail_pct, 3), "trial_inputs": n,
              "passes": rep["passes"], "measured_s": rep["measured_s"],
              "setup_samples_s": [s["setup_s"] for s in setups],
              "setup_references_s": [s["setup_reference_s"] for s in setups],
              "reference_s": REFERENCE_S,
              "reference_samples": len(rep["reference"]["seconds"]),
              "reference_median_s": statistics.median(rep["reference"]["seconds"]),
              "unscaled_best": {"trial_ms_p50": statistics.median(raw["trial_s"]) * 1e3,
                                "sweep_s": raw["sweep_s"],
                                "codec_ops_per_s": raw["codec_ops"] / raw["codec_s"]},
              "pass_wall_s": rep["pass_s"], "codec_ops_per_pass": scaled["codec_ops"]}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


# -- compiled kernel --------------------------------------------------------

def build_compiled_kernel() -> tuple[Path | None, dict]:
    """Build the committed _ckernel.c into perfbench/build (cached by digest)."""
    if not CKERNEL_SOURCE.exists():
        return None, {"error": "src/compcodes/_ckernel.c not present"}
    include = sysconfig.get_paths()["include"]
    flags = ["-O2", "-shared", "-fPIC", f"-I{include}"]
    key = hashlib.sha256(CKERNEL_SOURCE.read_bytes()
                         + sys.version.encode() + " ".join(flags).encode()).hexdigest()[:16]
    out = BUILD / f"_ckernel-{key}{sysconfig.get_config_var('EXT_SUFFIX') or '.so'}"
    if out.exists():
        return out, {"cached": True, "path": str(out.relative_to(ROOT))}
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    start = time.perf_counter()
    try:
        proc = subprocess.run(["gcc", *flags, str(CKERNEL_SOURCE), "-o", str(tmp)],
                              capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return None, {"error": f"gcc: {exc}"}
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        return None, {"error": proc.stderr.strip()[-2000:]}
    os.replace(tmp, out)
    return out, {"cached": False, "build_s": time.perf_counter() - start,
                 "path": str(out.relative_to(ROOT))}


# -- provenance -------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """sha256 over src/compcodes/*.py, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "compcodes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(backends: list[str]) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "backends": backends, "git_sha": _git_sha(), "src_sha256": _src_digest()}


# -- the two kinds of run ---------------------------------------------------

def run_untraced(workload: str, seed: int, seconds: float, profile: str) -> dict:
    runner = Runner(workload, profile)
    setups = [runner.worker("setup") for _ in range(SETUP_PROBES[workload])]
    rep = runner.worker("timed", seed=seed, seconds=seconds)
    metrics, detail = end_to_end(rep, setups + [rep])
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics, "detail": detail,
            "provenance": provenance([rep["backend"]])}


def _trial_ms_p50(timings: dict) -> float:
    return statistics.median(best_of_passes(timings)["trial_s"]) * 1e3


def run_traced(workload: str, seed: int, profile: str) -> dict:
    """Per-layer metrics, tracing overhead, and both kernel backends."""
    runner = Runner(workload, profile)
    passes = TRACE_PASSES[workload]
    RESULTS.mkdir(parents=True, exist_ok=True)
    spans = {backend: RESULTS / f"spans-{workload}-{backend}.jsonl"
             for backend in ("pure", "compiled")}
    reports = {"pure": runner.worker("traced", seed=seed, passes=passes,
                                     spans_out=spans["pure"])}
    kernel, build = build_compiled_kernel()
    if kernel is not None:
        reports["compiled"] = runner.worker("traced", seed=seed, passes=passes,
                                            compiled=kernel, spans_out=spans["compiled"])
    pure = reports["pure"]
    sweep = best_of_passes(pure)["sweep_s"]
    traced_sweep = best_of_passes(pure["traced"])["sweep_s"]
    metrics = dict(pure["layers"])
    metrics["trace.overhead_ratio"] = {"value": traced_sweep / sweep, "unit": "ratio"}

    backends = {}
    for backend, rep in reports.items():
        backends[backend] = {
            "backend": rep["backend"],
            "kernel.us_per_call": rep["layers"]["kernel.us_per_call"]["value"],
            "kernel.calls": rep["layers"]["kernel.calls"]["value"],
            "sweep_s": best_of_passes(rep)["sweep_s"],
            "trial_ms_p50": _trial_ms_p50(rep),
            "spans": rep["spans"],
            "spans_file": str(spans[backend].relative_to(ROOT))}
    compiled = backends.get("compiled")
    detail = {
        "passes": passes,
        "tracing_overhead": {
            "sweep_s_untraced": sweep, "sweep_s_traced": traced_sweep,
            "trial_ms_p50_untraced": _trial_ms_p50(pure),
            "trial_ms_p50_traced": _trial_ms_p50(pure["traced"])},
        "backends": backends,
        "compiled_build": build,
        # both kernels timed in the compiled worker, pass by pass
        "sweep_s_compiled_over_pure": (
            compiled["sweep_s"] / best_of_passes(reports["compiled"]["pure_kernel"])["sweep_s"]
            if compiled else None),
        "kernel_us_per_call_pure_over_compiled": (
            backends["pure"]["kernel.us_per_call"] / compiled["kernel.us_per_call"]
            if compiled else None),
    }
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "detail": detail,
            "provenance": provenance(sorted(r["backend"] for r in reports.values()))}


def run(workload: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    if not (SRC / "compcodes" / "__init__.py").exists():
        raise BenchError(f"no compcodes package under {SRC}")
    if trace:
        return run_traced(workload, seed, profile)
    return run_untraced(workload, seed, seconds, profile)


def _summary(result: dict) -> str:
    rows = [f"  {name:<34} {m['value']:>14.6g} {m['unit']}"
            for name, m in result["metrics"].items()]
    return "\n".join(rows)


def _final_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def smoke() -> int:
    """Every workload, both modes, tiny sizes; every declared metric present."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = run(workload, seed=1, seconds=1.0, trace=trace, profile="smoke")
            missing = [m["name"] for m in declared
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            status = "ok" if result["correct"] and not missing else "FAIL"
            ok = ok and status == "ok"
            print(f"smoke {workload} trace={int(trace)}: {status} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  + (f" missing={missing}" if missing else ""))
    print(json.dumps({"smoke": "ok" if ok else "FAIL"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace, **result},
                              indent=1) + "\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"backends={result['provenance']['backends']}")
    print(_summary(result))
    print(f"details: {out.relative_to(ROOT)}")
    print(_final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
