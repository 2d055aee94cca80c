"""Bit-exact JSON formats for readouts, specs, error specs and reports.

Emission is canonical: classes ascend by length, entries within a class
ascend by weight, JSON uses compact separators.  Identical multisets
therefore always produce identical bytes, which makes log hashes
meaningful.

``emit_readout`` and the canonical reader do Python-level work per
class and per occupied weight, not per entry.  ``emit_readout`` writes
the canonical text directly, one ``[z,w]`` string per occupied weight repeated by its count.
``parse_readout`` has two paths, and the text alone picks one:

* the canonical reader splits the text on ``"`` into class keys and
  bodies and counts each class's runs of equal entries with one regular
  expression.  It keeps its result only if ``emit_readout`` of that
  result gives back the text exactly (less JSON whitespace around it), so
  it accepts only what ``emit_readout`` writes, and on such a text the
  JSON path would build the same readout;
* every other text (shuffled, pretty-printed, hand-written or malformed)
  goes to the JSON path, which is also the reference for the errors.  It
  counts each class's entries in one loop that checks every entry: a list
  of two exact ints z, w with 0 <= w <= k and z = k - w (JSON ``true`` is
  not 1, nor is ``1.0``).  The first entry that fails is named in the
  error.  A key may not repeat in an object or, for class keys, after
  ``int()``.

An error spec's JSON carries the ``ErrorSpec`` fields, its targets as
nested lists of wire pairs.  ``parse_error_spec`` hands the decoded fields
to ``ErrorSpec`` unchanged, so the wire and the Python API accept the same
specs, and ``error_spec_to_dict`` turns the spec's tuples back into lists.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import asdict
from itertools import compress

from .channel import ErrorSpec
from .codebooks import FAMILIES, CodebookSpec
from .core import MAX_LENGTH, Readout
from .errors import CompCodesError, ParseError
from .reconstructor import DecodeReport


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key is an error, not an overwrite."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, c in Counter(k for k, _ in pairs).items() if c > 1)
        raise ParseError(f"repeated key {key!r}")
    return obj


def emit_readout(r: Readout) -> str:
    return '{"n":%d,"classes":{%s}}' % (r.n, ",".join(
        f'"{k}":[{_class_text(k, r.classes[k])}]' for k in sorted(r.classes)))


def _class_text(k: int, counts: tuple[int, ...]) -> str:
    """Entries of class k, ascending by weight, without the outer brackets."""
    return "".join(f"[{k - w},{w}]," * counts[w]
                   for w in compress(range(k + 1), counts))[:-1]


_JSON_SPACE = " \t\n\r"
# a run of equal entries, ASCII digits only: (the run, z, w)
_RUN = re.compile(r"(\[([0-9]+),([0-9]+)\](?:,\[\2,\3\])*)")


def _canonical_readout(text: str) -> Readout | None:
    """The readout whose ``emit_readout`` is ``text`` less the JSON
    whitespace around it, or None if there is no such readout."""
    if not isinstance(text, str):  # json.loads also reads bytes
        return None
    text = text.strip(_JSON_SPACE)
    parts = text.split('"')  # '{', 'n', ':N,', 'classes', ':{', key, body, ...
    try:
        n = int(parts[2][1:-1])
        if not 1 <= n <= MAX_LENGTH:
            return None
        classes = {}
        for key, body in zip(parts[5::2], parts[6::2]):
            k = int(key)
            if not 1 <= k <= n:  # before the vector is allocated
                return None
            counts = [0] * (k + 1)
            for run, z, w in _RUN.findall(body):
                # m entries "[z,w]" joined by "," are m*(len(z)+len(w)+4)-1 chars
                counts[int(w)] = (len(run) + 1) // (len(z) + len(w) + 4)
            classes[k] = tuple(counts)
        r = Readout(n, classes)
    except (ValueError, IndexError):
        return None
    return r if emit_readout(r) == text else None


def parse_readout(text: str) -> Readout:
    r = _canonical_readout(text)
    if r is not None:
        return r
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "classes" not in obj:
        raise ParseError("readout JSON needs 'n' and 'classes'")
    n = obj["n"]
    if type(n) is not int or not 1 <= n <= MAX_LENGTH:
        raise ParseError(f"invalid n: {n!r}, not an int in [1, {MAX_LENGTH}]")
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
        if k in classes:
            raise ParseError(f"class {k} repeats (key {key!r})")
        if not isinstance(entries, list):
            raise ParseError(f"class {k} must be a list of entries")
        counts = [0] * (k + 1)
        for entry in entries:
            if type(entry) is list and len(entry) == 2:
                z, w = entry
                # exact ints only (JSON true and 1.0 equal 1); z = k - w,
                # so both are non-negative iff 0 <= w <= k
                if type(z) is int and type(w) is int \
                        and 0 <= w <= k and z == k - w:
                    counts[w] += 1
                    continue
            raise ParseError(_bad_entry_message(k, entry))
        classes[k] = tuple(counts)
    return Readout(n, classes)


def _bad_entry_message(k: int, entry) -> str:
    """Why ``entry`` is no entry of class k (error path)."""
    if (type(entry) is not list or len(entry) != 2
            or {*map(type, entry)} != {int}):
        return f"bad entry {entry!r} in class {k}"
    z, w = entry
    if z < 0 or w < 0:
        return f"negative counts in entry {entry!r} in class {k}"
    return f"entry {entry!r} in class {k} has length {z + w}"


def emit_spec(spec: CodebookSpec) -> str:
    return _compact(asdict(spec))


def parse_spec(text: str) -> CodebookSpec:
    """Accept canonical JSON or the compact CLI form FAMILY:n[,t=..][,a=..]."""
    text = text.strip()
    try:
        if text.startswith("{"):
            obj = json.loads(text, object_pairs_hook=_unique_keys)
            return CodebookSpec(obj["family"], obj["n"], obj.get("t", 1),
                                obj.get("a", 0))
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
            if key in kwargs:
                raise ParseError(f"repeated spec field {key!r}")
            kwargs[key] = int(value)
        return CodebookSpec(head, n, **kwargs)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ParseError(f"invalid spec {text!r}: {exc}") from None


def emit_error_spec(e: ErrorSpec) -> str:
    return _compact(error_spec_to_dict(e))


def _lists(value):
    """value with every tuple in it, at any depth, turned into a list."""
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def error_spec_to_dict(e: ErrorSpec) -> dict:
    """The JSON object ``emit_error_spec`` writes, as Python values."""
    if e.is_seeded():
        return {"model": e.model, "count": e.count, "seed": e.seed}
    return {"model": e.model, "targets": _lists(e.targets)}


def parse_error_spec(text: str) -> ErrorSpec:
    """The spec a JSON object names; ``ErrorSpec`` validates its fields,
    and a JSON null counts as an absent field."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
        return ErrorSpec(obj["model"], obj.get("targets"), obj.get("count"),
                         obj.get("seed"))
    except (KeyError, TypeError, ValueError, RecursionError,
            CompCodesError) as exc:
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
