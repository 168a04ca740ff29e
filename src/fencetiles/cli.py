"""Command-line front end.

Thin adapters only: every subcommand calls straight into the library.
Exit status 0 on success / all-pass, 1 on verification failure, 2 on
usage, input or I/O errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable

from . import bijection, identities, sequences
from .core import enumerate_tilings, validate
from .render import FORMATS, render


def _at_most(what: str, n: int, cap: int) -> None:
    if n > cap:
        raise ValueError(f"{what}: n must be at most {cap}, got {n}")


#: Streams are written in chunks of about this many characters: one write
#: per chunk, not two per line, even when stdout passes every write on to
#: the OS (PYTHONUNBUFFERED).
_CHUNK = 1 << 16


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line and a newline to stdout, a chunk at a time; a line
    at least a chunk long is written as soon as it is made."""
    chunk: list[str] = []
    size = 0
    for line in lines:
        chunk.append(line)
        size += len(line) + 1
        if size >= _CHUNK:
            sys.stdout.write("\n".join(chunk) + "\n")
            chunk, size = [], 0
    if chunk:
        sys.stdout.write("\n".join(chunk) + "\n")


def _cmd_count(args) -> int:
    _at_most("count", args.n, sequences.MAX_COUNT_N)
    if args.seq == "hsq":
        value = sequences.count_halfsquare_square(args.n)
    else:
        value = sequences.TABLES[args.seq].value(args.n)
    print(sequences.decimal(value))
    return 0


def _cmd_enumerate(args) -> int:
    if args.filter == "none":
        _at_most("enumerate", args.n, sequences.MAX_COUNT_N)
    else:
        _at_most(f"enumerate --filter {args.filter}", args.n, sequences.MAX_FILTERED_N)
    allowed = sequences.RESTRICTIONS[args.filter].allowed
    if args.format == "jsonl":
        import json  # deferred: most processes print no JSON

    def lines():
        # not islice: --limit 0 must still start the walk, which rejects n < 0
        for emitted, t in enumerate(enumerate_tilings(args.n, allowed)):
            if args.limit is not None and emitted >= args.limit:
                return
            if args.format == "jsonl":
                record = {
                    "n": args.n,
                    "encoding": t.encoding,
                    "metatiles": list(t.pieces),
                }
                yield json.dumps(record)
            else:
                yield t.encoding

    _write_lines(lines())
    return 0


def _cmd_decompose(args) -> int:
    for piece in validate(args.encoding).pieces:
        print(piece)
    return 0


def _cmd_verify(args) -> int:
    ids = identities._IDENTITIES if args.identity == "all" else [int(args.identity)]
    modes = (False, True) if args.combinatorial else (False,)
    reports = [identities.verify(i, args.max_n, c) for c in modes for i in ids]
    ok = True
    for report in reports:
        print(report.table())
        ok = ok and report.all_pass
    print("all pass" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_bijection(args) -> int:
    n = args.n
    if args.audit:
        _at_most("bijection --audit", n, bijection.MAX_AUDIT_N)
        audit = bijection.cassini_audit(n)
        print(
            f"n={audit.n} lhs={audit.lhs} rhs={audit.rhs} "
            f"exceptions={audit.exception_count} on {audit.exception_side} side"
        )
        print("balanced" if audit.balanced else "UNBALANCED")
        if not audit.balanced:
            print(audit.failure, file=sys.stderr)
        return 0 if audit.balanced else 1
    _at_most("bijection", n, sequences.MAX_COUNT_N)

    def lines():
        for t, ci, companion in bijection.cassini_sources(n):
            source = t.encoding or "(empty)"  # the 0-board companion at n = 2
            if ci.exception is not None:
                yield f"{source} -> {ci.exception.value}"
            else:
                tag = " (companion)" if companion else ""
                yield f"{source} -> copy {ci.target_copy.value} {ci.image}{tag}"

    _write_lines(lines())
    return 0


def _cmd_render(args) -> int:
    text = render(validate(args.encoding), args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fencetiles",
        description="Tilings of n-boards by half-squares and half-gap fences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate a sequence value")
    p.add_argument("--seq", required=True, choices=[*sequences.TABLES, "hsq"])
    p.add_argument("--n", required=True, type=non_negative_int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream tilings of an n-board")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--filter", default="none", choices=sorted(sequences.RESTRICTIONS))
    p.add_argument("--limit", type=non_negative_int, default=None)
    p.add_argument("--format", default="text", choices=["text", "jsonl"])
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("decompose", help="split an encoding into metatiles")
    p.add_argument("encoding")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="check the identities")
    p.add_argument(
        "--identity",
        required=True,
        choices=[*map(str, identities._IDENTITIES), "all"],
    )
    p.add_argument("--max-n", required=True, type=int)
    p.add_argument("--combinatorial", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bijection", help="print or audit the near-bijection")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--audit", action="store_true")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("render", help="draw a tiling")
    p.add_argument("encoding")
    p.add_argument("--format", default="ascii", choices=FORMATS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader has gone: send what is still buffered to devnull, so
            # that the flush at interpreter exit raises nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
