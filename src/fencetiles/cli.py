"""Command-line front end.

Thin adapters only: every subcommand calls straight into the library.
One table, `_commands`, defines the subcommands and their arguments.
`main` reads a plain command line straight from it; any other (help, an
abbreviation, a usage error) goes to the argparse parser built from the
same table, so only those import argparse.

Exit status 0 on success / all-pass, 1 on verification failure, 2 on
usage, input or I/O errors.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable
from types import SimpleNamespace

from . import core, identities, sequences
from .core import validate
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


def _encodings(tails: tuple) -> tuple[str, ...]:
    """The text census of a tail set: each tail's encoding."""
    return tuple(map("".join, tails))


def _listed(pieces: tuple[str, ...]) -> str:
    """The metatiles as JSON strings, each led by ", "."""
    return "".join(f', "{p}"' for p in pieces)


def _records(tails: tuple) -> tuple[tuple[str, str], ...]:
    """The jsonl census of a tail set: each tail's encoding and _listed
    metatiles."""
    return tuple(("".join(t), _listed(t)) for t in tails)


def _cmd_enumerate(args) -> int:
    """Write the tilings a block at a time: a line is the block's joined
    prefix and a tail's text, the tail's made once per tail set.  A jsonl
    line is what json.dumps writes for {"n", "encoding", "metatiles"}, as
    encodings, over h, L and R, need no escaping.  Once --limit lines are
    out no further block is asked for, but --limit 0 still starts the walk,
    which rejects n < 0."""
    _at_most("enumerate", args.n, sequences.MAX_COUNT_N)
    allowed = sequences.RESTRICTIONS[args.filter].allowed
    jsonl = args.format == "jsonl"
    blocks = core._censused(
        core._blocks(args.n, allowed), _records if jsonl else _encodings
    )

    def lines():
        left = args.limit
        for prefix, head, tails in blocks:
            if left is not None:
                tails = tails[:left]
                left -= len(tails)
            if jsonl:
                start = f'{{"n": {args.n}, "encoding": "{head}'
                listed = _listed(prefix)
                for e, m in tails:
                    yield f'{start}{e}", "metatiles": [{(listed + m)[2:]}]}}'
            else:
                yield from map(head.__add__, tails)
            if left == 0:
                return

    _write_lines(lines())
    return 0


def _cmd_decompose(args) -> int:
    _write_lines(validate(args.encoding).pieces)
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
    from . import bijection  # deferred: no other command runs it

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
        import argparse  # deferred: only a usage error needs it

        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _commands() -> tuple:
    """The subcommands, as (name, help, handler, arguments) with each
    argument the (name, keywords) of one `add_argument` call.  Built when
    `main` runs, so the choices are those of the tables at that moment."""
    return (
        ("count", "evaluate a sequence value", _cmd_count, (
            ("--seq", dict(required=True, choices=[*sequences.TABLES, "hsq"])),
            ("--n", dict(required=True, type=non_negative_int)),
        )),
        ("enumerate", "stream tilings of an n-board", _cmd_enumerate, (
            ("--n", dict(required=True, type=int)),
            ("--filter", dict(default="none", choices=sorted(sequences.RESTRICTIONS))),
            ("--limit", dict(type=non_negative_int, default=None)),
            ("--format", dict(default="text", choices=["text", "jsonl"])),
        )),
        ("decompose", "split an encoding into metatiles", _cmd_decompose, (
            ("encoding", {}),
        )),
        ("verify", "check the identities", _cmd_verify, (
            ("--identity", dict(
                required=True, choices=[*map(str, identities._IDENTITIES), "all"]
            )),
            ("--max-n", dict(required=True, type=int)),
            ("--combinatorial", dict(action="store_true")),
        )),
        ("bijection", "print or audit the near-bijection", _cmd_bijection, (
            ("--n", dict(required=True, type=int)),
            ("--audit", dict(action="store_true")),
        )),
        ("render", "draw a tiling", _cmd_render, (
            ("encoding", {}),
            ("--format", dict(default="ascii", choices=FORMATS)),
            ("--out", dict(default=None)),
        )),
    )


def build_parser() -> argparse.ArgumentParser:
    import argparse  # deferred: only help and usage errors need it

    parser = argparse.ArgumentParser(
        prog="fencetiles",
        description="Tilings of n-boards by half-squares and half-gap fences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func, arguments in _commands():
        p = sub.add_parser(name, help=summary)
        for argument, keywords in arguments:
            p.add_argument(argument, **keywords)
        p.set_defaults(func=func)
    return parser


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` gives, for a plain command
    line; None for any other, which is left to argparse.

    Plain means a command and then its arguments, each option spelled in
    full, given at most once and followed by its value; no value starts
    with "-", each passes its type and choices, and every required argument
    is given.  So help, "--", abbreviations, `--opt=value` and every usage
    error go to argparse, the one authority on messages and exit codes."""
    rows = {row[0]: row for row in _commands()}
    if not argv or argv[0] not in rows:
        return None
    name, _, func, arguments = rows[argv[0]]
    spec = dict(arguments)
    positionals = [a for a in spec if not a.startswith("-")]
    given: dict[str, str | bool] = {}
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            if not positionals:
                return None
            given[positionals.pop(0)] = word
        elif word in spec and word not in given:
            flag = spec[word].get("action") == "store_true"
            given[word] = True if flag else next(words, "-")
        else:
            return None
    args = SimpleNamespace(command=name, func=func)
    for argument, keywords in arguments:
        value = given.get(argument)
        if value is None:
            if keywords.get("required") or not argument.startswith("-"):
                return None
            flag = keywords.get("action") == "store_true"
            value = keywords.get("default", False if flag else None)
        elif value is not True:
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except Exception:  # whatever a type raises, argparse reports it
                return None
            if value not in keywords.get("choices", [value]):
                return None
        setattr(args, argument.lstrip("-").replace("-", "_"), value)
    return args


def main(argv: Iterable[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
