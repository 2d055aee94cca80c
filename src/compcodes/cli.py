"""Command-line front door.

Exit codes: 0 success / property holds, 1 witness or decode failure,
2 usage or parse error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import lru_cache

from . import channel, codebooks, experiment, formats, oracle, reconstructor
from .core import full_readout
from .errors import (CompCodesError, ParseError, ResourceCapError,
                     UndecodableError)

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _read_input(args) -> str:
    if args.input and args.input != "-":
        with open(args.input) as fh:
            return fh.read()
    return sys.stdin.read()


def _write_output(args, text: str):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_compose(args) -> int:
    _write_output(args, formats.emit_readout(full_readout(args.string)))
    return EXIT_OK


def _failure(args, exc: CompCodesError) -> int:
    """Report a decode failure as a null result with its reason and the
    consistent codewords the error names (none but an UndecodableError's)."""
    _write_output(args, json.dumps(
        {"result": None, "reason": f"{type(exc).__name__}: {exc}",
         "candidates": list(getattr(exc, "candidates", ()))},
        separators=(",", ":")))
    return EXIT_WITNESS


def cmd_reconstruct(args) -> int:
    r = formats.parse_readout(_read_input(args))
    try:
        rep = reconstructor.reconstruct(r)
    except CompCodesError as exc:
        return _failure(args, exc)
    _write_output(args, formats.emit_report(rep))
    return EXIT_OK


def cmd_corrupt(args) -> int:
    if args.targets and (args.count, args.seed) != (None, None):
        raise ParseError("--count and --seed go with --model; "
                         "--targets names the errors itself")
    r = formats.parse_readout(_read_input(args))
    if args.targets:
        err = formats.parse_error_spec(args.targets)
    else:
        err = channel.random_error(args.model,
                                   1 if args.count is None else args.count,
                                   0 if args.seed is None else args.seed, r.n)
    resolved = channel.resolve(r, err)
    corrupted = channel.apply(r, resolved)
    if args.show_error:
        print(formats.emit_error_spec(resolved), file=sys.stderr)
    _write_output(args, formats.emit_readout(corrupted))
    return EXIT_OK


def cmd_decode(args) -> int:
    r = formats.parse_readout(_read_input(args))
    spec = formats.parse_spec(args.spec)
    decode = (reconstructor.brute_force_decode if args.mode == "brute"
              else reconstructor.decode_deletions)
    try:
        rep = decode(r, spec)
    except UndecodableError as exc:
        return _failure(args, exc)
    _write_output(args, formats.emit_report(rep))
    return EXIT_OK


def cmd_enumerate(args) -> int:
    spec = formats.parse_spec(args.spec)
    for s in codebooks.enumerate_codebook(spec):
        print(s)
    return EXIT_OK


def cmd_rank(args) -> int:
    spec = formats.parse_spec(args.spec)
    print(codebooks.rank(spec, args.string))
    return EXIT_OK


def cmd_unrank(args) -> int:
    spec = formats.parse_spec(args.spec)
    print(codebooks.unrank(spec, args.index))
    return EXIT_OK


def cmd_verify(args) -> int:
    spec = formats.parse_spec(args.spec)
    witness = oracle.verify_code_property(spec, args.model, args.t,
                                          cap=args.cap)
    payload = {"spec": asdict(spec),
               "model": args.model, "t": args.t, "ok": witness is None}
    if witness is not None:
        payload["witness"] = {"s": witness.s, "v": witness.v,
                              "deleted_classes": sorted(witness.deleted_classes)}
        payload["reverified"] = witness.verify()
    _write_output(args, json.dumps(payload, separators=(",", ":")))
    return EXIT_OK if witness is None else EXIT_WITNESS


def cmd_bounds(args) -> int:
    spec = formats.parse_spec(args.spec)
    count = codebooks.size(spec)
    payload = {
        "spec": asdict(spec),
        "size": count,
        # JSON has no infinity: an empty codebook's redundancy is null
        "measured_redundancy": (None if count == 0 else round(
            codebooks.measured_redundancy(spec), 6)),
        "redundancy_bound": round(codebooks.redundancy_bound(spec), 6),
    }
    if spec.family == "SDA" and spec.n % 2 == 0:
        payload["size_lower_bound"] = codebooks.size_lower_bound(spec)
    _write_output(args, json.dumps(payload, separators=(",", ":")))
    return EXIT_OK


def cmd_classes(args) -> int:
    count, reps = oracle.count_classes(args.n, cap=args.cap)
    payload = {"n": args.n, "classes": count,
               "bound": oracle.max_code_bound(args.n),
               "achieves_bound": count == oracle.max_code_bound(args.n)}
    if args.reps:
        payload["representatives"] = reps
    _write_output(args, json.dumps(payload, separators=(",", ":")))
    return EXIT_OK


def cmd_experiment(args) -> int:
    spec = formats.parse_spec(args.spec)
    cfg = experiment.ExperimentConfig(
        spec=spec, model=args.model, errors=args.t, trials=args.trials,
        seed=args.seed, cross_check_cap=args.cross_check_cap)
    failures = 0
    sink = open(args.out, "w") if args.out else sys.stdout
    try:
        for record in experiment.run_experiment(cfg):
            sink.write(experiment.record_line(record) + "\n")
            if not record["match"] or record["crosscheck"] == "mismatch":
                failures += 1
    finally:
        if args.out:
            sink.close()
    print(f"trials={cfg.trials} failures={failures} config={cfg.hash()}",
          file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_WITNESS


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="compcodes",
        description="String reconstruction from composition multisets and "
                    "codes correcting multiset deletions, insertions and "
                    "skewed substitutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, needs_input=True):
        if needs_input:
            p.add_argument("-i", "--input", default="-",
                           help="readout JSON file ('-' for stdin)")
        p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("compose", help="full readout of a binary string")
    p.add_argument("string")
    add_io(p, needs_input=False)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("reconstruct",
                       help="a string consistent with an uncorrupted readout")
    add_io(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("corrupt", help="apply a channel error to a readout")
    error = p.add_mutually_exclusive_group(required=True)
    error.add_argument("--model", choices=channel.MODELS)
    error.add_argument("--targets", help="explicit error-spec JSON")
    p.add_argument("--count", type=int,
                   help="errors to draw with --model (default 1)")
    p.add_argument("--seed", type=int, help="seed of the draw with --model "
                                            "(default 0)")
    p.add_argument("--show-error", action="store_true",
                   help="print the resolved error spec to stderr")
    add_io(p)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("decode", help="decode a (possibly corrupted) readout")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", default="auto", choices=("auto", "brute"),
                   help="the decoder or the brute-force reference")
    add_io(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("enumerate", help="list codebook members")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("rank", help="index of a codeword")
    p.add_argument("--spec", required=True)
    p.add_argument("string")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("unrank", help="codeword at an index")
    p.add_argument("--spec", required=True)
    p.add_argument("index", type=int)
    p.set_defaults(func=cmd_unrank)

    p = sub.add_parser("verify", help="exhaustively check a code property")
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True, choices=oracle.PROPERTY_MODELS)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    add_io(p, needs_input=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="redundancy accounting for a codebook")
    p.add_argument("--spec", required=True)
    add_io(p, needs_input=False)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("classes", help="equicomposability classes of {0,1}^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=oracle.DEFAULT_CAP)
    p.add_argument("--reps", action="store_true",
                   help="include one representative per class")
    add_io(p, needs_input=False)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("experiment", help="seeded decode campaign to JSONL")
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True, choices=channel.MODELS)
    p.add_argument("--t", type=int, default=1, help="errors per trial")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", help="JSONL output path (default stdout)")
    p.add_argument("--cross-check-cap", type=int,
                   default=experiment.DEFAULT_CROSS_CHECK_CAP)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:  # OSError: an unreadable -i or --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (CompCodesError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
