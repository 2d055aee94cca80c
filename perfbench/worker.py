"""One benchmark process: set up, optionally run a workload, report JSON.

Started by run.py in a fresh interpreter, with PYTHONPATH pointing at the
checkout's ``src``.  Prints exactly one JSON object on its last stdout line.

  --mode setup   import compcodes and enumerate the workload's codebooks
  --mode timed   then run whole passes until --seconds have elapsed,
                 timing the reference loop of refclock.py between trials
  --mode traced  trace the set-up, then run each of --passes passes twice,
                 untraced and traced, in ABBA order; the traced work is
                 fixed, so exact counts repeat run to run.  With
                 --compiled-kernel each pass also runs a third time on the
                 pure kernel, so both kernels are timed in one process
"""

from __future__ import annotations

import argparse
import gc
import importlib.machinery
import importlib.util
import json
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_TIMED_PASSES = 2
# Reference loops timed just before and just after the set-up.
SETUP_REFERENCES = 3
MAX_REPORTED_FAILURES = 20


def _load_compiled_kernel(path: str) -> None:
    """Register a prebuilt extension as compcodes._ckernel before import."""
    name = "compcodes._ckernel"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--spans-out")
    parser.add_argument("--compiled-kernel", help="path of a built _ckernel extension")
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC time at which the parent spawned us")
    args = parser.parse_args()

    # the set-up is bracketed by reference loops on the same core;
    # importing refclock (which builds its tables) and the first bracket
    # are not set-up time
    bracket_start = time.perf_counter()
    from refclock import RefClock, reference_times
    reference_before = reference_times(SETUP_REFERENCES)
    bracket_s = time.perf_counter() - bracket_start

    if args.compiled_kernel:
        _load_compiled_kernel(args.compiled_kernel)
    import compcodes

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(compcodes.__file__).resolve().parent.parent != src:
        print(f"imported compcodes from {compcodes.__file__}, not {src}", file=sys.stderr)
        return 2

    from layertrace import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        tracer.enable()
    workload = WORKLOADS[args.workload](args.profile)
    workload.setup()
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) / 1e9 - bracket_s
    reference_after = reference_times(SETUP_REFERENCES)
    report = {"setup_s": setup_s, "backend": compcodes.BACKEND,
              "setup_reference_s": statistics.fmean((statistics.median(reference_before),
                                                     statistics.median(reference_after)))}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    if tracer is not None:
        tracer.disable()

        def mark(trial_id: str) -> None:
            tracer.trial = trial_id

        workload.mark = mark
    clock = RefClock()
    if args.mode == "timed":
        workload.mark = clock.tick
    workload.prepare(args.seed)

    kinds = ["untraced"]
    if tracer is not None:
        kinds.append("traced")
        if args.compiled_kernel:
            kinds.append("pure_kernel")
    runs = {kind: _Totals() for kind in kinds}
    failures: list[str] = []
    start = time.perf_counter()
    p = 0
    while True:
        for kind in kinds if p % 2 == 0 else reversed(kinds):
            if kind == "traced":
                tracer.enable()
            elif kind == "pure_kernel":
                # every caller looks the kernel up on the module at call time
                compiled_signature = compcodes.kernel.full_signature
                compcodes.kernel.full_signature = compcodes._pykernel.full_signature
            gc.collect()
            if args.mode == "timed":
                clock.sample()
            pass_start = time.perf_counter()
            res = workload.run_pass(p)
            pass_s = time.perf_counter() - pass_start
            if args.mode == "timed":
                clock.sample()
            if kind == "traced":
                tracer.disable()
            elif kind == "pure_kernel":
                compcodes.kernel.full_signature = compiled_signature
            attempted, pass_failures = workload.check(p, res)
            runs[kind].add(res, pass_s, attempted)
            failures.extend(pass_failures)
        p += 1
        if tracer is not None:
            if p >= args.passes:
                break
        elif p >= MIN_TIMED_PASSES and time.perf_counter() - start >= args.seconds:
            break
    measured_s = time.perf_counter() - start

    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(totals.attempted for totals in runs.values())
    report.update(runs.pop("untraced").as_dict())
    report.update(
        passes=p, measured_s=measured_s, attempted=attempted, failed=len(failures),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if args.mode == "timed":
        report["reference"] = clock.as_dict()
    for kind, totals in runs.items():
        report[kind] = totals.as_dict()
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    print(json.dumps(report))
    return 0


class _Totals:
    """Per-pass timings of one kind of pass (traced or not)."""

    def __init__(self):
        self.trial_s: list[list[float]] = []
        self.trial_t0: list[list[float]] = []
        self.pass_s: list[float] = []
        self.codec: list[tuple[str, int, float, float]] = []
        self.attempted = 0

    def add(self, res, pass_s: float, attempted: int) -> None:
        self.trial_s.append(res.trial_s)
        self.trial_t0.append(res.trial_t0)
        self.pass_s.append(pass_s)
        self.codec.extend(res.codec)
        self.attempted += attempted

    def as_dict(self) -> dict:
        return {"trial_s": self.trial_s, "trial_t0": self.trial_t0, "pass_s": self.pass_s,
                "codec": self.codec}


if __name__ == "__main__":
    sys.exit(main())
