"""Bit-exact JSON formats for readouts, specs, error specs and reports.

Emission is canonical: fields come in a fixed order, readout keys
ascend numerically and JSON uses compact separators.  Identical
multisets therefore always produce identical bytes, which makes log
hashes meaningful.

A length-k composition is fixed by its weight, so a readout goes on the
wire as its weight counts, ``{"n":N,"counts":{"k":{"w":c,...},...}}``:
classes ascend by k, weights ascend within a class, and only non-zero
counts are written.  A class present with no entries is ``"k":{}``, which
differs from a missing class.  ``emit_readout`` does Python-level work
per class and per occupied weight, not per composition.

``parse_readout`` reads the count form only, through ``json.loads``,
where a key may not repeat in an object.  The entry-list form of older
files, each class a list of ``[z,w]`` entries under ``"classes"``, is
refused with a ``ParseError`` that names ``"counts"``, with or without a
``"counts"`` beside it.  A class or weight key goes through ``int()`` and
may not repeat after it, k <= n is checked before any vector is
allocated, a weight lies in [0, k], and a count is an exact int >= 1
(JSON ``true`` is not 1, nor is ``1.0``).  The first weight or count that
fails is named in the error.  These checks are the whole check of a wire
readout: they refuse, with a ``ParseError``, everything ``Readout(...)``
would refuse, so the vectors they build go into the ``Readout``
unchecked again.  The same loop sums each class's size and weight, and
the ``Readout`` takes them too, so its trust set reads them instead of
summing every vector again; readouts from the other builders sum theirs
on first use.

An error spec's JSON carries the ``ErrorSpec`` fields, its targets as
nested lists of wire pairs.  ``parse_error_spec`` hands the decoded fields
to ``ErrorSpec`` unchanged, so the wire and the Python API accept the same
specs, and ``error_spec_to_dict`` turns the spec's tuples back into lists.
Spec and error-spec JSON refuse any key outside their fields.
"""

from __future__ import annotations

import hashlib
import json
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


def _json_fields(text: str, fields: tuple[str, ...]) -> dict:
    """The JSON object in ``text``; a key outside ``fields`` is an error."""
    obj = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, not {type(obj).__name__}")
    unknown = [key for key in obj if key not in fields]
    if unknown:
        raise ParseError(f"unknown field {unknown[0]!r} "
                         f"(fields are {', '.join(fields)})")
    return obj


def emit_readout(r: Readout) -> str:
    return '{"n":%d,"counts":{%s}}' % (r.n, ",".join(
        '"%d":{%s}' % (k, _weight_counts(r.classes[k])) for k in sorted(r.classes)))


def _weight_counts(counts: tuple[int, ...]) -> str:
    """``"w":c`` for each occupied weight w, ascending, without the braces."""
    return ",".join(f'"{w}":{counts[w]}'
                    for w in compress(range(len(counts)), counts))


def parse_readout(text: str) -> Readout:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except ParseError:
        raise
    # ValueError: a JSONDecodeError, or an int over Python's digit limit
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if (not isinstance(obj, dict) or "n" not in obj or "counts" not in obj
            or "classes" in obj):
        raise ParseError("readout JSON needs 'n' and 'counts' (weight counts); "
                         "the entry-list form under 'classes' is not read")
    n = obj["n"]
    if type(n) is not int or not 1 <= n <= MAX_LENGTH:
        raise ParseError(f"invalid n: {n!r}, not an int in [1, {MAX_LENGTH}]")
    if not isinstance(obj["counts"], dict):
        raise ParseError("'counts' must be an object keyed by class")
    classes: dict[int, tuple[int, ...]] = {}
    sizes: dict[int, int] = {}
    weights: dict[int, int] = {}
    for key, value in obj["counts"].items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ParseError(f"invalid class key {key!r}") from None
        if not 1 <= k <= n:  # before the vector is allocated
            raise ParseError(f"class {k} outside [1, {n}]")
        if k in classes:
            raise ParseError(f"class {k} repeats (key {key!r})")
        classes[k], sizes[k], weights[k] = _read_counts(k, value)
    return Readout._from_valid(n, classes, sizes, weights)


def _read_counts(k: int, occupied) -> tuple[tuple[int, ...], int, int]:
    """Class k's vector from its ``{"w": count}`` object, with its size
    (the sum of the counts) and its weight (the sum of w * count)."""
    if not isinstance(occupied, dict):
        raise ParseError(f"class {k} must be an object of weight counts")
    counts = [0] * (k + 1)
    size = weight = 0
    for key, count in occupied.items():
        try:
            w = int(key)
        except ValueError:
            raise ParseError(f"invalid weight key {key!r} "
                             f"in class {k}") from None
        if not 0 <= w <= k:
            raise ParseError(f"weight {w} outside [0, {k}] in class {k}")
        if counts[w]:  # every count set so far is at least 1
            raise ParseError(f"weight {w} repeats in class {k} (key {key!r})")
        # exact ints only: JSON true and 1.0 equal 1
        if type(count) is not int or count < 1:
            raise ParseError(f"count {count!r} of weight {w} in class {k} "
                             f"is not an int >= 1")
        counts[w] = count
        size += count
        weight += w * count
    return tuple(counts), size, weight


def emit_spec(spec: CodebookSpec) -> str:
    return _compact(asdict(spec))


def parse_spec(text: str) -> CodebookSpec:
    """Accept canonical JSON or the compact CLI form FAMILY:n[,t=..][,a=..]."""
    text = text.strip()
    try:
        if text.startswith("{"):
            obj = _json_fields(text, ("family", "n", "t", "a"))
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
        obj = _json_fields(text, ("model", "targets", "count", "seed"))
        return ErrorSpec(obj["model"], obj.get("targets"), obj.get("count"),
                         obj.get("seed"))
    except (KeyError, TypeError, ValueError, RecursionError,
            CompCodesError) as exc:
        raise ParseError(f"invalid error spec: {exc}") from None


def report_to_dict(rep: DecodeReport) -> dict:
    return {"result": rep.result,
            "dropped_classes": list(rep.dropped_classes),
            "backtracks": rep.backtracks,
            "max_backtrack_span": rep.max_backtrack_span}


def emit_report(rep: DecodeReport) -> str:
    return _compact(report_to_dict(rep))


def config_hash(payload: dict) -> str:
    """Stable 64-bit hex digest of a canonical-JSON configuration."""
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
