"""Bit-exact JSON formats for readouts, specs, error specs and reports.

Emission is canonical: classes ascend by length, entries within a class
ascend by weight, JSON uses compact separators.  Identical multisets
therefore always produce identical bytes, which makes log hashes
meaningful.
"""

from __future__ import annotations

import hashlib
import json
from itertools import compress

from .channel import ErrorSpec
from .codebooks import FAMILIES, CodebookSpec
from .core import Composition, Readout
from .errors import ParseError
from .reconstructor import DecodeReport


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def emit_readout(r: Readout) -> str:
    classes = {}
    for k in sorted(r.classes):
        counts = r.classes[k]
        entries = []
        for w in compress(range(k + 1), counts):  # occupied weights only
            entries += [[k - w, w]] * counts[w]
        classes[str(k)] = entries
    return _compact({"n": r.n, "classes": classes})


def parse_readout(text: str) -> Readout:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "classes" not in obj:
        raise ParseError("readout JSON needs 'n' and 'classes'")
    n = obj["n"]
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"invalid n: {n!r}")
    if not isinstance(obj["classes"], dict):
        raise ParseError("'classes' must be an object of class lists")
    classes: dict[int, tuple[int, ...]] = {}
    for key, entries in obj["classes"].items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"invalid class key {key!r}") from None
        if not 1 <= k <= n:
            raise ParseError(f"class {k} outside [1, {n}]")
        if not isinstance(entries, list):
            raise ParseError(f"class {k} must be a list of entries")
        counts = [0] * (k + 1)
        for entry in entries:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or not all(isinstance(x, int) for x in entry)):
                raise ParseError(f"bad entry {entry!r} in class {k}")
            z, w = entry
            if z < 0 or w < 0:
                raise ParseError(f"negative counts in entry {entry!r}")
            if z + w != k:
                raise ParseError(f"entry {entry!r} has length {z + w} != {k}")
            counts[w] += 1
        classes[k] = tuple(counts)
    return Readout(n, classes)


def emit_spec(spec: CodebookSpec) -> str:
    return _compact({"family": spec.family, "n": spec.n,
                     "t": spec.t, "a": spec.a})


def parse_spec(text: str) -> CodebookSpec:
    """Accept canonical JSON or the compact CLI form FAMILY:n[,t=..][,a=..]."""
    text = text.strip()
    try:
        if text.startswith("{"):
            obj = json.loads(text)
            return CodebookSpec(obj["family"], int(obj["n"]),
                                int(obj.get("t", 1)), int(obj.get("a", 0)))
        head, _, rest = text.partition(":")
        if head not in FAMILIES:
            raise ParseError(f"unknown family {head!r} (one of {FAMILIES})")
        fields = rest.split(",") if rest else []
        if not fields or not fields[0]:
            raise ParseError("missing codeword length, e.g. SR:9")
        n = int(fields[0])
        kwargs = {}
        for item in fields[1:]:
            key, _, value = item.partition("=")
            if key not in ("t", "a") or not value:
                raise ParseError(f"bad spec field {item!r}")
            kwargs[key] = int(value)
        return CodebookSpec(head, n, **kwargs)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid spec {text!r}: {exc}") from None


def emit_error_spec(e: ErrorSpec) -> str:
    if e.is_seeded():
        return _compact({"model": e.model, "count": e.count, "seed": e.seed})
    if e.model == "asym_delete":
        targets = list(e.targets)
    elif e.model == "sym_pair_delete":
        targets = [list(p) for p in e.targets]
    elif e.model == "insert":
        targets = [[k, [c.z, c.w]] for k, c in e.targets]
    else:
        targets = [[k, [old.z, old.w], [new.z, new.w]]
                   for k, old, new in e.targets]
    return _compact({"model": e.model, "targets": targets})


def parse_error_spec(text: str) -> ErrorSpec:
    try:
        obj = json.loads(text)
        model = obj["model"]
        if "targets" in obj:
            raw = obj["targets"]
            if model == "asym_delete":
                targets = tuple(int(k) for k in raw)
            elif model == "sym_pair_delete":
                targets = tuple((int(i), int(j)) for i, j in raw)
            elif model == "insert":
                targets = tuple((int(k), Composition(*map(int, comp)))
                                for k, comp in raw)
            elif model == "skew":
                targets = tuple(
                    (int(k), Composition(*map(int, old)), Composition(*map(int, new)))
                    for k, old, new in raw)
            else:
                raise ParseError(f"unknown model {model!r}")
            return ErrorSpec(model, targets=targets)
        return ErrorSpec(model, count=int(obj["count"]), seed=int(obj["seed"]))
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"invalid error spec: {exc}") from None


def report_to_dict(rep: DecodeReport) -> dict:
    out = {"result": rep.result,
           "dropped_classes": list(rep.dropped_classes),
           "backtracks": rep.backtracks,
           "max_backtrack_span": rep.max_backtrack_span}
    if rep.reason is not None:
        out["reason"] = rep.reason
    if rep.consistent_set is not None:
        out["consistent_set"] = list(rep.consistent_set)
    return out


def emit_report(rep: DecodeReport) -> str:
    return _compact(report_to_dict(rep))


def config_hash(payload: dict) -> str:
    """Stable 64-bit hex digest of a canonical-JSON configuration."""
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
