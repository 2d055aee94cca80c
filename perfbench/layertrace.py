"""In-memory span tracer installed at the layer boundaries of compcodes.

Each wrap point replaces one public function at the binding its caller
resolves: a module attribute that callers look up at call time, or an
entry of a dispatch table filled at import.  Nothing under ``src/`` is
edited, and ``disable`` puts every original back, so untraced work
executes the package exactly as shipped.

A span records a name, start, end, parent span and trial id.  Spans stay
in memory and are written out once, when the run ends.  A layer's
``busy_s`` is the summed duration of its outermost spans (a layer that
calls itself, as ``channel.apply`` calls ``channel.resolve``, is not
counted twice); its ``self_s`` is the summed duration of its spans minus
the time of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, layer).  The module attribute is the binding the
# caller resolves: cli and experiment import full_readout by name, the
# decoders import is_member and enumerate_codebook by name, and every
# other caller goes through the module object (``kernel.full_signature``,
# ``formats.parse_readout``, ``channel.apply``, ``reconstructor.X``).
WRAP_POINTS = (
    ("compcodes.kernel", "full_signature", "kernel"),
    ("compcodes.cli", "full_readout", "core.full_readout"),
    ("compcodes.experiment", "full_readout", "core.full_readout"),
    ("compcodes.formats", "parse_readout", "formats.parse_readout"),
    ("compcodes.formats", "emit_readout", "formats.emit_readout"),
    ("compcodes.channel", "resolve", "channel.apply"),
    ("compcodes.channel", "apply", "channel.apply"),
    ("compcodes.reconstructor", "reconstruct", "reconstructor.decode"),
    ("compcodes.reconstructor", "decode_deletions", "reconstructor.decode"),
    ("compcodes.reconstructor", "decode_insertions", "reconstructor.decode"),
    ("compcodes.reconstructor", "decode_skewed", "reconstructor.decode"),
    ("compcodes.reconstructor", "brute_force_decode", "reconstructor.brute_force"),
    ("compcodes.reconstructor", "is_member", "codebooks.is_member"),
    ("compcodes.codebooks", "enumerate_codebook", "codebooks.enumerate"),
    ("compcodes.reconstructor", "enumerate_codebook", "codebooks.enumerate"),
    ("compcodes.oracle", "enumerate_codebook", "codebooks.enumerate"),
    ("compcodes.experiment", "enumerate_codebook", "codebooks.enumerate"),
    ("compcodes.codebooks", "rank", "codebooks.rank_unrank"),
    ("compcodes.codebooks", "unrank", "codebooks.rank_unrank"),
    ("compcodes.cli", "main", "cli"),
    ("compcodes.oracle", "verify_code_property", "oracle.scan"),
    ("compcodes.oracle", "find_confusable_pair", "oracle.scan"),
    ("compcodes.oracle", "count_classes", "oracle.count_classes"),
)
# experiment.run_experiment picks its decoder from this table, whose
# values were bound when the module was imported.
DECODER_TABLE = ("compcodes.experiment", "_DECODERS", "reconstructor.decode")
# A generator: one "experiment" span per trial it yields.
GENERATOR_POINT = ("compcodes.experiment", "run_experiment", "experiment")
# A generator of deletion patterns: counted, not timed.
PATTERN_POINT = ("compcodes.oracle", "deletion_patterns")

# Per-layer metrics reported by a traced run: name -> (layer, field, unit).
LAYER_METRICS = {
    "kernel.calls": ("kernel", "calls", "count"),
    "kernel.busy_s": ("kernel", "busy_s", "s"),
    "core.full_readout.calls": ("core.full_readout", "calls", "count"),
    "core.full_readout.busy_s": ("core.full_readout", "busy_s", "s"),
    "formats.parse_readout.busy_s": ("formats.parse_readout", "busy_s", "s"),
    "formats.emit_readout.busy_s": ("formats.emit_readout", "busy_s", "s"),
    "channel.apply.busy_s": ("channel.apply", "busy_s", "s"),
    "reconstructor.decode.calls": ("reconstructor.decode", "calls", "count"),
    "reconstructor.decode.self_s": ("reconstructor.decode", "self_s", "s"),
    "reconstructor.brute_force.calls": ("reconstructor.brute_force", "calls", "count"),
    "reconstructor.brute_force.self_s": ("reconstructor.brute_force", "self_s", "s"),
    "codebooks.is_member.calls": ("codebooks.is_member", "calls", "count"),
    "codebooks.is_member.busy_s": ("codebooks.is_member", "busy_s", "s"),
    "codebooks.enumerate.busy_s": ("codebooks.enumerate", "busy_s", "s"),
    "codebooks.rank_unrank.busy_s": ("codebooks.rank_unrank", "busy_s", "s"),
    "experiment.self_s": ("experiment", "self_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
    "oracle.scan.self_s": ("oracle.scan", "self_s", "s"),
    "oracle.count_classes.busy_s": ("oracle.count_classes", "busy_s", "s"),
}
# Counters kept at the wrap points: name -> unit.
COUNTERS = {
    "formats.readout_bytes": "bytes",
    "reconstructor.backtracks": "count",
    "codebooks.members": "count",
    "oracle.patterns": "count",
    "oracle.member_patterns": "count",
}


class Tracer:
    """Span recorder over the wrap points; ``enable`` installs the wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.trial = "setup"
        self._swaps: list[tuple] = []  # (container, key, original, wrapper)
        self.counters: dict[str, int] = defaultdict(int)
        self.layers = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        self._stack: list[int] = []
        self._child_time: dict[int, float] = {}
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._enumerated: dict[tuple, int] = {}
        self._members_in_scan = 0
        self.origin = time.perf_counter()

    # -- span bookkeeping -------------------------------------------------
    def _enter(self, layer: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._depth[layer] += 1
        return sid, parent

    def _exit(self, sid, parent, t0: float, t1: float, name: str, layer: str) -> bool:
        self._stack.pop()
        depth = self._depth[layer]
        self._depth[layer] = depth - 1
        dur = t1 - t0
        agg = self.layers[layer]
        agg["self_s"] += dur - self._child_time.pop(sid, 0.0)
        if parent is not None:
            self._child_time[parent] = self._child_time.get(parent, 0.0) + dur
        outermost = depth == 1
        if outermost:
            agg["calls"] += 1
            agg["busy_s"] += dur
        self.spans.append((sid, parent, self.trial, name, t0, t1))
        return outermost

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, fn, name: str, layer: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = tracer._enter(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                outermost = tracer._exit(sid, parent, t0, t1, name, layer)
            if on_result is not None:
                on_result(outermost, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid, parent = tracer._enter(layer)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit(sid, parent, t0, time.perf_counter(), name, layer)
                yield item

        return traced

    def _count_patterns(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for pattern in fn(*args, **kwargs):
                tracer.counters["oracle.patterns"] += 1
                tracer.counters["oracle.member_patterns"] += tracer._members_in_scan
                yield pattern

        return counted

    # -- result hooks -----------------------------------------------------
    def _on_parse(self, outermost, args, result):
        if outermost:
            self.counters["formats.readout_bytes"] += len(args[0])

    def _on_emit(self, outermost, args, result):
        if outermost:
            self.counters["formats.readout_bytes"] += len(result)

    def _on_decode(self, outermost, args, result):
        if outermost:
            self.counters["reconstructor.backtracks"] += result.backtracks

    def _on_enumerate(self, outermost, args, result):
        self._enumerated[args[0].key()] = len(result)
        self._members_in_scan = len(result)

    _HOOKS = {
        "formats.parse_readout": "_on_parse",
        "formats.emit_readout": "_on_emit",
        "reconstructor.decode": "_on_decode",
        "codebooks.enumerate": "_on_enumerate",
    }

    def _prepare_swaps(self) -> None:
        swaps = []
        for module_name, attr, layer in WRAP_POINTS:
            module = importlib.import_module(module_name)
            hook = self._HOOKS.get(layer)
            on_result = getattr(self, hook) if hook else None
            fn = getattr(module, attr)
            swaps.append((module, attr, fn,
                          self._wrap(fn, f"{module_name}.{attr}", layer, on_result)))
        module_name, attr, layer = DECODER_TABLE
        table = getattr(importlib.import_module(module_name), attr)
        for model, fn in table.items():
            swaps.append((table, model, fn, self._wrap(
                fn, f"{module_name}.{attr}[{model!r}]", layer, self._on_decode)))
        module_name, attr, layer = GENERATOR_POINT
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        swaps.append((module, attr, fn,
                      self._wrap_generator(fn, f"{module_name}.{attr}", layer)))
        module_name, attr = PATTERN_POINT
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        swaps.append((module, attr, fn, self._count_patterns(fn)))
        self._swaps = swaps

    @staticmethod
    def _put(container, key, value) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def enable(self) -> None:
        """Install a wrapper at every wrap point."""
        if not self._swaps:
            self._prepare_swaps()
        for container, key, _, wrapper in self._swaps:
            self._put(container, key, wrapper)

    def disable(self) -> None:
        """Put every original function back."""
        for container, key, original, _ in self._swaps:
            self._put(container, key, original)

    # -- results ----------------------------------------------------------
    def metrics(self) -> dict[str, dict]:
        out = {}
        for name, (layer, field, unit) in LAYER_METRICS.items():
            out[name] = {"value": self.layers[layer][field], "unit": unit}
        kernel = self.layers["kernel"]
        out["kernel.us_per_call"] = {
            "value": kernel["busy_s"] / kernel["calls"] * 1e6 if kernel["calls"] else 0.0,
            "unit": "us"}
        counts = dict(self.counters)
        counts["codebooks.members"] = sum(self._enumerated.values())
        for name, unit in COUNTERS.items():
            out[name] = {"value": counts.get(name, 0), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: id, parent, trial, name, start_us, end_us."""
        origin = self.origin
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "parent", "trial", "name", "start_us", "end_us"]) + "\n")
            for sid, parent, trial, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, trial, name,
                                     round((t0 - origin) * 1e6, 3),
                                     round((t1 - origin) * 1e6, 3)]) + "\n")
