import argparse
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fencetiles
from fencetiles import bijection, cli, core, identities, sequences
from fencetiles.cli import main
from fencetiles.core import enumerate_tilings, validate
from fencetiles.sequences import count_A


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def per_tiling_lines(n, name, fmt, limit):
    """enumerate's output as the per-tiling path writes it, a Tiling (and
    for jsonl a json.dumps) per line: the oracle of the per-block writer."""
    allowed = sequences.RESTRICTIONS[name].allowed
    tilings = itertools.islice(enumerate_tilings(n, allowed), limit)
    if fmt == "jsonl":
        lines = (
            json.dumps({"n": n, "encoding": t.encoding, "metatiles": list(t.pieces)})
            for t in tilings
        )
    else:
        lines = (t.encoding for t in tilings)
    return "".join(line + "\n" for line in lines)


def cli_command(*argv):
    """The argv and environment that run the CLI from this checkout in a
    fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return [sys.executable, "-m", "fencetiles.cli", *argv], env


class TestCount:
    def test_count_A_10(self, capsys):
        status, out, _ = run(capsys, "count", "--seq", "A", "--n", "10")
        assert status == 0
        assert out == "7921\n"

    def test_count_fib(self, capsys):
        status, out, _ = run(capsys, "count", "--seq", "fib", "--n", "10")
        assert (status, out) == (0, "55\n")

    def test_count_halfsquare_square(self, capsys):
        status, out, _ = run(capsys, "count", "--seq", "hsq", "--n", "4")
        assert (status, out) == (0, "34\n")

    def test_halfsquare_square_is_capped(self, capsys):
        status, out, err = run(capsys, "count", "--seq", "hsq", "--n", "600")
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and "at most 16" in err
        status, out, _ = run(capsys, "count", "--seq", "hsq", "--n", "12")
        assert (status, out) == (0, "75025\n")

    @pytest.mark.parametrize("seq", ["fib", "A", "S", "C", "T", "hsq"])
    @pytest.mark.parametrize("n", [sequences.MAX_COUNT_N + 1, 10**11])
    def test_n_beyond_the_cap_is_usage_error(self, capsys, seq, n):
        # A_n has about 0.42 n digits: an unbounded n would run for ever
        start = time.perf_counter()
        status, out, err = run(capsys, "count", "--seq", seq, "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (2, "")
        assert err == f"error: count: n must be at most 1000000, got {n}\n"

    def test_the_cap_itself_is_counted(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences, "MAX_COUNT_N", 10)
        assert run(capsys, "count", "--seq", "A", "--n", "10")[:2] == (0, "7921\n")
        assert run(capsys, "count", "--seq", "A", "--n", "11")[:2] == (2, "")

    @pytest.mark.parametrize("seq", ["fib", "A", "S", "C", "T", "hsq"])
    def test_negative_n_is_usage_error(self, capsys, seq):
        # the tables read 0 below n = 0 (F_{-1} is 1), which is no answer
        status, out, err = run(capsys, "count", "--seq", seq, "--n", "-1")
        assert (status, out) == (2, "")
        assert "must be non-negative" in err and "Traceback" not in err

    @pytest.mark.parametrize("seq, n", [("fib", 30000), ("A", 12000)])
    def test_count_prints_values_beyond_the_digit_limit(self, capsys, seq, n):
        a, b = 0, 1
        for _ in range(n + (seq == "A")):
            a, b = b, a + b
        value = a * a if seq == "A" else a
        # decimal text by repeated division into base-10^9 limbs
        limbs = []
        while value:
            value, limb = divmod(value, 10**9)
            limbs.append(limb)
        expected = str(limbs[-1]) + "".join(f"{x:09d}" for x in reversed(limbs[:-1]))
        limit = sys.get_int_max_str_digits()
        status, out, err = run(capsys, "count", "--seq", seq, "--n", str(n))
        assert (status, err) == (0, "")
        assert out == expected + "\n"
        assert len(expected) > limit
        assert sys.get_int_max_str_digits() == limit


class TestEnumerate:
    def test_text_output(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--n", "2")
        assert status == 0
        assert out.splitlines() == ["LLRR", "LhRh", "hLhR", "hhhh"]

    def test_limit(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "3", "--limit", "2")
        assert len(out.splitlines()) == 2

    def test_negative_limit_is_usage_error(self, capsys):
        status, out, err = run(capsys, "enumerate", "--n", "3", "--limit", "-1")
        assert (status, out) == (2, "")
        assert "usage" in err and "--limit" in err

    def test_closed_reader_is_io_error(self):
        # the reader stops after one line, as `| head -1` does; 54,289
        # tilings overfill the pipe, so the writer meets the closed end
        argv, env = cli_command("enumerate", "--n", "12")
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"LLRR" * 6 + b"\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in err.decode()
        assert err.decode().startswith("error: ")

    def test_long_board_first_tiling(self, capsys):
        start = time.perf_counter()
        status, out, _ = run(capsys, "enumerate", "--n", "2000", "--limit", "1")
        assert time.perf_counter() - start < 10
        assert status == 0
        (line,) = out.splitlines()
        assert len(validate(line).encoding) // 2 == 2000

    @pytest.mark.parametrize(
        "name", ["none", "no-free-bifence", "no-bifence", "odd-metatiles"]
    )
    def test_n_beyond_the_cap_is_usage_error(self, capsys, name):
        # the walk keeps a frame per metatile: an unbounded n would run out
        # of memory, under any filter
        for n in (1000001, 10**11):
            start = time.perf_counter()
            status, out, err = run(
                capsys, "enumerate", "--n", str(n), "--filter", name, "--limit", "1"
            )
            assert time.perf_counter() - start < 1.0
            assert (status, out) == (2, "")
            assert err == f"error: enumerate: n must be at most 1000000, got {n}\n"

    def test_the_caps_themselves_are_enumerated(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences, "MAX_COUNT_N", 3)
        firsts = {"none": "LLRRhh", "no-free-bifence": "LhRLhR",
                  "no-bifence": "LhRLhR", "odd-metatiles": "LhRLhR"}
        assert sorted(firsts) == sorted(sequences.RESTRICTIONS)
        for name, first in firsts.items():
            filtered = ("--filter", name, "--limit", "1")
            assert run(capsys, "enumerate", "--n", "3", *filtered)[:2] == (0, first + "\n")
            assert run(capsys, "enumerate", "--n", "4", *filtered)[:2] == (2, "")

    def test_a_filtered_board_at_the_cap_is_enumerated(self, capsys):
        # the walk builds no rejected metatile, so the first kept tiling of
        # the longest board costs O(n) under every filter
        n = sequences.MAX_COUNT_N
        for name, restriction in sequences.RESTRICTIONS.items():
            status, out, err = run(
                capsys, "enumerate", "--n", str(n), "--filter", name, "--limit", "1"
            )
            assert (status, err) == (0, ""), name
            tiling = validate(out.rstrip("\n"))
            assert len(tiling.encoding) == 2 * n
            assert all(map(restriction.allowed, tiling.pieces)), name

    @pytest.mark.parametrize(
        "name, first",
        [
            ("none", "LLRR" * 15),
            ("no-free-bifence", "LhR" + "LLRR" * 14 + "h"),
            ("no-bifence", "LhRLhR" * 10),
            ("odd-metatiles", "LhR" + "LLRR" * 13 + "LhR" + "hh"),
        ],
    )
    def test_first_filtered_tiling_of_a_long_board(self, name, first):
        # the walk never builds a tiling holding a forbidden metatile, so the
        # first kept one costs no scan of the tilings before it
        argv, env = cli_command("enumerate", "--n", "30", "--filter", name, "--limit", "1")
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == first + "\n"

    def test_filter(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "2", "--filter", "no-bifence")
        assert out.splitlines() == ["LhRh", "hLhR", "hhhh"]

    def test_jsonl_records(self, capsys):
        _, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "jsonl")
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0] == {"n": 2, "encoding": "LLRR", "metatiles": ["LLRR"]}
        assert records[-1] == {"n": 2, "encoding": "hhhh", "metatiles": ["hh", "hh"]}

    def test_the_empty_board_is_one_record(self, capsys):
        status, out, _ = run(capsys, "enumerate", "--n", "0", "--format", "jsonl")
        assert status == 0
        assert out == '{"n": 0, "encoding": "", "metatiles": []}\n'
        assert json.loads(out) == {"n": 0, "encoding": "", "metatiles": []}

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    @pytest.mark.parametrize("n", range(11))
    def test_matches_the_per_tiling_path(self, capsys, n, fmt):
        for name in sequences.RESTRICTIONS:
            for limit in (None, 0, 1, 7, 40):
                argv = ["enumerate", "--n", str(n), "--filter", name, "--format", fmt]
                if limit is not None:
                    argv += ["--limit", str(limit)]
                status, out, err = run(capsys, *argv)
                assert (status, err) == (0, ""), argv
                # split, so that a mismatch is reported by its first line
                want = per_tiling_lines(n, name, fmt, limit)
                assert out.split("\n") == want.split("\n"), argv

    @pytest.mark.parametrize("name", ["none", "no-bifence"])
    def test_limit_asks_for_no_block_beyond_it(self, capsys, monkeypatch, name):
        # --limit k stops once k lines are out, before the walk is asked for
        # another block; --limit 0 still starts it, for one block
        allowed = sequences.RESTRICTIONS[name].allowed
        sizes = [len(tails) for _, tails in core._blocks(9, allowed) if tails]
        ends = list(itertools.accumulate(sizes))
        assert len(ends) > 3
        pulled = []
        blocks = core._blocks

        def counted(*args, **kwargs):
            for block in blocks(*args, **kwargs):
                pulled.append(block)
                yield block

        monkeypatch.setattr(core, "_blocks", counted)
        for limit in (0, 1, ends[0], ends[0] + 1, ends[2], ends[-1]):
            pulled.clear()
            argv = ("enumerate", "--n", "9", "--filter", name, "--limit", str(limit))
            assert run(capsys, *argv)[0] == 0
            needed = next(i for i, end in enumerate(ends, 1) if end >= limit)
            assert len(pulled) == needed, limit

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--n", "4")
        _, second, _ = run(capsys, "enumerate", "--n", "4")
        assert first == second


class TestDecompose:
    def test_single_metatile(self, capsys):
        status, out, _ = run(capsys, "decompose", "hLLRRh")
        assert (status, out) == (0, "hLLRRh\n")

    def test_multiple_segments(self, capsys):
        _, out, _ = run(capsys, "decompose", "hhLLRR")
        assert out.splitlines() == ["hh", "LLRR"]

    def test_invalid_encoding_is_usage_error(self, capsys):
        status, _, err = run(capsys, "decompose", "LRh")
        assert status == 2
        assert "error" in err


class TestVerify:
    def test_identity_7_passes(self, capsys):
        status, out, _ = run(capsys, "verify", "--identity", "7", "--max-n", "30")
        assert status == 0
        assert out.rstrip().endswith("all pass")

    def test_all_identities(self, capsys):
        status, out, _ = run(capsys, "verify", "--identity", "all", "--max-n", "12")
        assert status == 0
        assert out.rstrip().endswith("all pass")

    def test_combinatorial_flag(self, capsys):
        status, out, _ = run(
            capsys, "verify", "--identity", "4", "--max-n", "8", "--combinatorial"
        )
        assert status == 0
        assert "combinatorial" in out

    @pytest.mark.parametrize("ident", ["1", "7"])
    def test_identities_1_and_7_print_a_combinatorial_block(self, capsys, ident):
        status, out, _ = run(
            capsys, "verify", "--identity", ident, "--max-n", "4", "--combinatorial"
        )
        assert status == 0
        headers = [line for line in out.splitlines() if line.startswith("identity")]
        n_min = identities._IDENTITIES[int(ident)].n_min
        assert headers == [
            f"identity {ident} ({mode}), n = {n_min}..4"
            for mode in ("numeric", "combinatorial")
        ]

    def test_all_combinatorial_output_is_pinned(self, capsys):
        # 7 numeric and 7 combinatorial reports, every row byte for byte;
        # without the identity 1 and 7 combinatorial blocks it is the stdout
        # the per-tiling scan printed for identities 2-6
        status, out, _ = run(
            capsys, "verify", "--identity", "all", "--max-n", "12", "--combinatorial"
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "371554985ea5883ca4656001269c15c529469fa5a28200de64ecbe044334721e"
        )
        blocks = re.split(r"(?m)^(?=identity |all pass$)", out)
        new = [b for b in blocks if re.match(r"identity [17] \(combinatorial\)", b)]
        assert len(new) == 2
        earlier = "".join(b for b in blocks if b not in new)
        assert hashlib.sha256(earlier.encode()).hexdigest() == (
            "5dc221af47bc5531193af522dae6a54dcf54eedf1934640a74e71fb6875bc40e"
        )

    def test_numeric_max_n_beyond_the_bound_is_usage_error(self, capsys):
        status, out, err = run(
            capsys, "verify", "--identity", "2", "--max-n", "100000000"
        )
        assert (status, out) == (2, "")
        assert "n_max must be at most 6000" in err and "Traceback" not in err

    def test_each_report_is_written_before_the_next_is_built(self, monkeypatch):
        # so only one report's rows are held at a time
        events = []
        verify = identities.verify

        def recording(identity_id, n_max, combinatorial=False):
            events.append(("build", (identity_id, n_max, combinatorial)))
            return verify(identity_id, n_max, combinatorial)

        class Out(io.StringIO):
            def write(self, text):
                events.append(("write", text))
                return super().write(text)

        out = Out()
        monkeypatch.setattr(identities, "verify", recording)
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["verify", "--identity", "all", "--max-n", "6", "--combinatorial"]) == 0
        calls = [(i, 6, c) for c in (False, True) for i in identities._IDENTITIES]
        written = []
        for kind, value in events:
            if kind == "build":
                assert value == calls[len(written)]
                written.append("")
            else:
                written[-1] += value
        assert len(written) == len(calls)
        tables = [verify(*call).table() + "\n" for call in calls]
        assert written == tables[:-1] + [tables[-1] + "all pass\n"]
        assert out.getvalue() == "".join(tables) + "all pass\n"

    @pytest.mark.parametrize(
        "max_n, message",
        [
            ("-3", "identity 1 needs n_max >= 2"),
            ("1", "identity 1 needs n_max >= 2"),
            ("6001", "numeric mode: n_max must be at most 6000, got 6001"),
        ],
    )
    @pytest.mark.parametrize("combinatorial", [False, True], ids=["numeric", "both"])
    def test_an_error_in_any_report_prints_no_table(
        self, capsys, monkeypatch, max_n, message, combinatorial
    ):
        # reports are written as they are built, so the first report built
        # must be the one that fails: no call runs before it
        calls = []
        verify = identities.verify

        def recording(*call):
            calls.append(call)
            return verify(*call)

        monkeypatch.setattr(identities, "verify", recording)
        argv = ["verify", "--identity", "all", "--max-n", max_n]
        if combinatorial:
            argv.append("--combinatorial")
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert calls == [(1, int(max_n), False)]

    @staticmethod
    def fib_pair(n: int) -> tuple[int, int]:
        """(F_n, F_{n+1}) by fast doubling."""
        if n == 0:
            return 0, 1
        a, b = TestVerify.fib_pair(n // 2)
        c, d = a * (2 * b - a), a * a + b * b
        return (d, c + d) if n % 2 else (c, d)

    @staticmethod
    def by_limbs(value: int) -> str:
        """Decimal text by repeated division into base-10^9 limbs."""
        limbs = []
        while value:
            value, limb = divmod(value, 10**9)
            limbs.append(limb)
        return str(limbs[-1]) + "".join(f"{x:09d}" for x in reversed(limbs[:-1]))

    def test_rows_beyond_the_digit_limit(self, capsys):
        # identity 3's last row at n = 5200 is F_{10402}^2 on both sides
        expected = self.by_limbs(self.fib_pair(10402)[0] ** 2)
        limit = sys.get_int_max_str_digits()
        assert len(expected) > limit
        status, out, err = run(capsys, "verify", "--identity", "3", "--max-n", "5200")
        assert (status, err) == (0, "")
        assert f"  n=5200 lhs={expected} rhs={expected} pass" in out.splitlines()
        row = json.loads(identities.verify(3, 5200).to_json())["rows"][-1]
        assert row == {"n": 5200, "lhs": expected, "rhs": expected, "pass": True}
        assert sys.get_int_max_str_digits() == limit


class TestBijection:
    def test_mapping_table(self, capsys):
        status, out, _ = run(capsys, "bijection", "--n", "3")
        assert status == 0
        lines = out.splitlines()
        assert f"{'hLhRhh'} -> copy 1 hLhR" in lines
        # every n-board tiling appears once
        assert sum(1 for l in lines if not l.endswith("(companion)")) >= count_A(3)

    def test_companion_lines(self, capsys):
        status, out, _ = run(capsys, "bijection", "--n", "4")
        assert status == 0
        assert out.splitlines()[-5:] == [
            "hhhhhhhh -> copy 1 hhhhhh",
            "LLRR -> all-bifence-source",
            "LhRh -> copy 3 LhRLhR (companion)",
            "hLhR -> copy 3 hhLLRR (companion)",
            "hhhh -> copy 3 hhhLhR (companion)",
        ]

    def test_empty_companion_is_named(self, capsys):
        status, out, _ = run(capsys, "bijection", "--n", "2")
        assert status == 0
        assert out.splitlines() == [
            "LLRR -> all-bifence-source",
            "LhRh -> copy 3 hh",
            "hLhR -> copy 2 hh",
            "hhhh -> copy 1 hh",
            "(empty) -> all-bifence-source",
        ]

    @pytest.mark.parametrize("n", [sequences.MAX_COUNT_N + 1, 10**11])
    def test_listing_beyond_the_cap_is_usage_error(self, capsys, n):
        # the listing walks an n-board with a frame per metatile
        start = time.perf_counter()
        status, out, err = run(capsys, "bijection", "--n", str(n))
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (2, "")
        assert err == f"error: bijection: n must be at most 1000000, got {n}\n"

    def test_the_listing_cap_itself_is_listed(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences, "MAX_COUNT_N", 2)
        status, out, _ = run(capsys, "bijection", "--n", "2")
        assert (status, out.splitlines()[0]) == (0, "LLRR -> all-bifence-source")
        assert run(capsys, "bijection", "--n", "3")[:2] == (2, "")

    def test_audit_balanced(self, capsys):
        status, out, err = run(capsys, "bijection", "--n", "5", "--audit")
        assert status == 0
        assert "balanced" in out
        assert err == ""

    @pytest.mark.parametrize(
        "n, line",
        [
            ("1", "n=1 lhs=1 rhs=1 exceptions=2 on target side"),
            ("2", "n=2 lhs=5 rhs=5 exceptions=2 on source side"),
        ],
    )
    def test_audit_of_the_smallest_boards(self, capsys, n, line):
        status, out, err = run(capsys, "bijection", "--n", n, "--audit")
        assert (status, out, err) == (0, f"{line}\nbalanced\n", "")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_audit_below_one_cell_is_usage_error(self, capsys, n):
        status, out, err = run(capsys, "bijection", "--n", n, "--audit")
        assert (status, out) == (2, "")
        assert err == "error: audit needs n >= 1\n"

    @pytest.mark.parametrize("n", [bijection.MAX_AUDIT_N + 1, 10**6])
    def test_audit_beyond_the_cap_is_usage_error(self, capsys, n):
        # the audit's time grows about 6.8-fold per 2 cells: an unbounded n
        # would run for ever
        start = time.perf_counter()
        status, out, err = run(capsys, "bijection", "--n", str(n), "--audit")
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (2, "")
        assert err == f"error: bijection --audit: n must be at most 18, got {n}\n"

    def test_the_audit_cap_itself_is_audited(self, capsys, monkeypatch):
        monkeypatch.setattr(bijection, "MAX_AUDIT_N", 7)
        status, out, _ = run(capsys, "bijection", "--n", "7", "--audit")
        assert (status, out.splitlines()[-1]) == (0, "balanced")
        assert run(capsys, "bijection", "--n", "8", "--audit")[:2] == (2, "")


class TestRender:
    def test_ascii_stdout(self, capsys):
        status, out, _ = run(capsys, "render", "LLRR")
        assert status == 0
        assert out.splitlines()[0] == "[[]]"

    def test_svg_to_file(self, capsys, tmp_path):
        target = tmp_path / "tiling.svg"
        status, out, _ = run(
            capsys, "render", "hLhR", "--format", "svg", "--out", str(target)
        )
        assert status == 0
        assert out == ""
        assert target.read_text().startswith('<?xml version="1.0"')

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        status, out, err = run(capsys, "render", "hh", "--out", str(target))
        assert (status, out) == (2, "")
        assert err.startswith("error: ")

    def test_invalid_encoding(self, capsys):
        status, _, err = run(capsys, "render", "LLR")
        assert status == 2
        assert "error" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        status, _, err = run(capsys, "nonsense")
        assert status == 2
        assert "usage" in err

    def test_unknown_flag(self, capsys):
        status, _, _ = run(capsys, "count", "--seq", "A", "--n", "3", "--bogus")
        assert status == 2

    @pytest.mark.parametrize(
        "command, expected",
        [
            (
                "count",
                """usage: fencetiles count [-h] --seq {fib,A,S,C,T,hsq} --n N

options:
  -h, --help            show this help message and exit
  --seq {fib,A,S,C,T,hsq}
  --n N
""",
            ),
            (
                "render",
                """usage: fencetiles render [-h] [--format {ascii,svg}] [--out OUT] encoding

positional arguments:
  encoding

options:
  -h, --help            show this help message and exit
  --format {ascii,svg}
  --out OUT
""",
            ),
            (
                "enumerate",
                """usage: fencetiles enumerate [-h] --n N
                            [--filter {no-bifence,no-free-bifence,none,odd-metatiles}]
                            [--limit LIMIT] [--format {text,jsonl}]

options:
  -h, --help            show this help message and exit
  --n N
  --filter {no-bifence,no-free-bifence,none,odd-metatiles}
  --limit LIMIT
  --format {text,jsonl}
""",
            ),
            (
                "decompose",
                """usage: fencetiles decompose [-h] encoding

positional arguments:
  encoding

options:
  -h, --help  show this help message and exit
""",
            ),
            (
                "verify",
                """usage: fencetiles verify [-h] --identity {1,2,3,4,5,6,7,all} --max-n MAX_N
                         [--combinatorial]

options:
  -h, --help            show this help message and exit
  --identity {1,2,3,4,5,6,7,all}
  --max-n MAX_N
  --combinatorial
""",
            ),
            (
                "bijection",
                """usage: fencetiles bijection [-h] --n N [--audit]

options:
  -h, --help  show this help message and exit
  --n N
  --audit
""",
            ),
            (
                "",
                """usage: fencetiles [-h] {count,enumerate,decompose,verify,bijection,render} ...

Tilings of n-boards by half-squares and half-gap fences.

positional arguments:
  {count,enumerate,decompose,verify,bijection,render}
    count               evaluate a sequence value
    enumerate           stream tilings of an n-board
    decompose           split an encoding into metatiles
    verify              check the identities
    bijection           print or audit the near-bijection
    render              draw a tiling

options:
  -h, --help            show this help message and exit
""",
            ),
        ],
    )
    def test_subcommand_help_is_pinned(self, capsys, monkeypatch, command, expected):
        # the parser is built from cli._commands, and the choices from
        # sequences.TABLES, sequences.RESTRICTIONS, identities._IDENTITIES
        # and render.FORMATS; "" is the top-level help
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *command.split(), "--help") == (0, expected, "")

    def test_help_exits_zero(self, capsys):
        status, out, _ = run(capsys, "--help")
        assert status == 0
        assert "usage" in out

    def test_a_key_error_in_a_subcommand_propagates(self, monkeypatch):
        # no parsed input reaches a KeyError, so one is a fault, not a usage
        # error: it is not turned into exit 2
        def fault(args):
            raise KeyError("x")

        monkeypatch.setattr(cli, "_cmd_decompose", fault)
        with pytest.raises(KeyError, match="x"):
            main(["decompose", "h"])

    def test_verify_identity_choices_are_the_identities(self, capsys, monkeypatch):
        def identity_choices():
            parser = cli.build_parser()
            subparsers = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            )
            verify = subparsers.choices["verify"]
            return next(a for a in verify._actions if a.dest == "identity").choices

        assert identity_choices() == [*map(str, identities._IDENTITIES), "all"]
        assert identity_choices() == ["1", "2", "3", "4", "5", "6", "7", "all"]
        fewer = {i: identities._IDENTITIES[i] for i in (2, 7)}
        monkeypatch.setattr(identities, "_IDENTITIES", fewer)
        assert identity_choices() == ["2", "7", "all"]
        status, _, err = run(capsys, "verify", "--identity", "4", "--max-n", "3")
        assert status == 2
        assert "invalid choice: '4'" in err


class TestImport:
    def test_import_leaves_no_young_collection_pending(self):
        # the package collects its import-time objects itself, so the first
        # call after `import fencetiles` does not walk them
        argv, env = cli_command()
        code = "import gc, fencetiles; print(gc.get_count()[1])"
        proc = subprocess.run(
            [argv[0], "-c", code], capture_output=True, text=True, env=env, timeout=20
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n")

    def test_import_loads_no_heavy_stdlib_module(self):
        # none of these is needed to start the CLI (the tables are derived
        # in ints, without fractions or decimal); -S keeps site-packages'
        # .pth files, which may import any of them, out of the process
        argv, env = cli_command()
        heavy = {
            "dataclasses", "inspect", "typing", "json", "argparse", "gettext",
            "fractions", "decimal",
        }
        code = f"import sys, fencetiles.cli; print(sorted({heavy} & set(sys.modules)))"
        proc = subprocess.run(
            [argv[0], "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")

    def test_a_plain_command_line_loads_no_argparse(self):
        # main reads a plain command line itself; only help and usage errors
        # build the argparse parser
        argv, env = cli_command()
        code = (
            "import sys; from fencetiles.cli import main; "
            "status = main(['count', '--seq', 'A', '--n', '10']); "
            "print(status, sorted({'argparse', 'gettext'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [argv[0], "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "7921\n0 []\n")

    @pytest.mark.parametrize(
        "command",
        [
            ("count", "--seq", "A", "--n", "10"),
            ("enumerate", "--n", "4", "--format", "jsonl"),
            ("decompose", "hLLRRh"),
            ("render", "LhRLLRRh", "--format", "svg"),
            ("verify", "--identity", "all", "--max-n", "12"),
        ],
        ids=lambda command: command[0],
    )
    def test_only_the_bijection_command_loads_the_bijection(self, command):
        # fencetiles.bijection loads on first use, and enumerate writes its
        # JSON by hand
        argv, env = cli_command()
        code = (
            "import io, sys; from fencetiles.cli import main; sys.stdout = io.StringIO(); "
            f"status = main({list(command)!r}); sys.stdout = sys.__stdout__; "
            "print(status, sorted({'fencetiles.bijection', 'json'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [argv[0], "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0 []\n")

    def test_the_bijection_command_loads_it(self):
        argv, env = cli_command()
        code = (
            "import sys; from fencetiles.cli import main; "
            "status = main(['bijection', '--n', '3', '--audit']); "
            "print(status, 'fencetiles.bijection' in sys.modules)"
        )
        proc = subprocess.run(
            [argv[0], "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 True"

    def test_import_leaves_the_bijection_unloaded_and_sets_no_hook(self):
        # a package __getattr__ would keep CPython from specializing every
        # lookup on the package; the bijection's names are read from
        # fencetiles.bijection
        argv, env = cli_command()
        code = (
            "import sys, fencetiles; "
            "print('fencetiles.bijection' in sys.modules, "
            "'__getattr__' in vars(fencetiles), hasattr(fencetiles, 'b_map'))"
        )
        proc = subprocess.run(
            [argv[0], "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False False False\n")

    def test_the_package_audit_is_the_bijection_audit_and_loads_it(self):
        argv, env = cli_command()
        code = (
            "import sys, fencetiles; "
            "audits = [repr(fencetiles.cassini_audit(n)) for n in range(1, 10)]; "
            "loaded = 'fencetiles.bijection' in sys.modules; "
            "from fencetiles import bijection; "
            "print(loaded, audits == [repr(bijection.cassini_audit(n)) for n in range(1, 10)])"
        )
        proc = subprocess.run(
            [argv[0], "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "True True\n")

    def test_the_package_audit_looks_the_bijection_audit_up_on_each_call(
        self, monkeypatch
    ):
        # the traced benchmark wraps bijection.cassini_audit, and the
        # package's audit must reach the wrapper
        monkeypatch.setattr(bijection, "cassini_audit", lambda n: ("wrapped", n))
        assert fencetiles.cassini_audit(5) == ("wrapped", 5)


#: The probe of a process's exit: an atexit handler, which must print after
#: the command's whole output, and an object whose finalizer prints if the
#: interpreter tears the __main__ module down.
EXIT_PROBE = """\
import atexit, sys
class Teardown:
    def __del__(self):
        print("torn down")
probe = Teardown()
atexit.register(print, "atexit")
sys.argv[1:] = {argv!r}
"""


class TestProcessEntry:
    """A CLI process runs its atexit handlers and flushes its output once
    its command is done, then ends with os._exit, skipping the
    interpreter's teardown; main, which tests, the benchmark and library
    callers run in process, neither ends the process nor touches the
    collector."""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (("count", "--seq", "A", "--n", "10"), 0),
            (("enumerate", "--n", "4", "--format", "jsonl"), 0),
            (("decompose", "hLLRRh"), 0),
            (("verify", "--identity", "7", "--max-n", "6", "--combinatorial"), 0),
            (("bijection", "--n", "6", "--audit"), 0),
            (("render", "LhRLLRRh", "--format", "svg"), 0),
            (("count", "--seq", "A"), 2),  # a usage error: argparse exits
            (("render", "LLX"), 2),  # a ValueError
        ],
        ids=lambda value: value[0] if isinstance(value, tuple) else str(value),
    )
    def test_main_never_freezes(self, capsys, argv, status):
        before = gc.get_freeze_count()
        assert run(capsys, *argv)[0] == status
        assert gc.get_freeze_count() == before

    @staticmethod
    def script_target() -> str:
        """The installed script's entry, read from pyproject.toml as text
        (tomllib is not in Python 3.10)."""
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        table = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        (target,) = re.findall(r'^fencetiles = "([\w.:]+)"$', table, re.MULTILINE)
        return target

    def test_the_installed_script_runs_the_process_entry(self):
        assert self.script_target() == "fencetiles.cli:run"

    @pytest.mark.parametrize(
        "argv, status, out, err",
        [
            (["count", "--seq", "A", "--n", "10"], 0, "7921\n", ""),
            # about 57 kB, several buffers of stdout
            (["enumerate", "--n", "9"], 0, per_tiling_lines(9, "none", "text", None), ""),
            (["render", "LLX"], 2, "", "error: encoding length 3 is odd\n"),
            (["count", "--seq", "A"], 2, "", "the following arguments are required"),
        ],
        ids=["pass", "stream", "input-error", "usage-error"],
    )
    @pytest.mark.parametrize("entry", ["__main__", "script", "main"])
    def test_the_process_entry_skips_only_the_teardown(
        self, argv, status, out, err, entry
    ):
        # as `python -m fencetiles.cli`, as the installed script calls its
        # target, and, as the control whose teardown finalizes the probe,
        # main alone
        module, _, name = self.script_target().partition(":")
        code = EXIT_PROBE.format(argv=argv) + {
            "__main__": "import runpy; runpy.run_module('fencetiles.cli', "
            "run_name='__main__')",
            "script": f"import {module}; sys.exit({module}.{name}())",
            "main": "import fencetiles.cli; sys.exit(fencetiles.cli.main())",
        }[entry]
        python, env = cli_command()
        proc = subprocess.run(
            [python[0], "-c", code], capture_output=True, text=True, env=env, timeout=20
        )
        assert proc.returncode == status
        teardown = "torn down\n" if entry == "main" else ""
        assert proc.stdout == f"{out}atexit\n{teardown}"
        assert err in proc.stderr and "Traceback" not in proc.stderr

    def test_a_failed_final_flush_exits_2(self, capsys, monkeypatch):
        # the reader goes away after main's own flush: the flush of run,
        # after the atexit handlers, fails, and the status is the exit
        # contract's I/O error, not the interpreter's 120
        events = []

        class Gone(io.StringIO):
            def flush(self):
                if events:
                    raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Gone())
        monkeypatch.setattr(sys, "argv", ["fencetiles", "count", "--seq", "A", "--n", "10"])
        monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: events.append("atexit"))
        monkeypatch.setattr(cli.os, "_exit", events.append)
        cli.run()
        assert events == ["atexit", 2]
        assert sys.stdout.getvalue() == "7921\n"
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_a_file_written_by_the_process_is_whole(self, tmp_path, fmt):
        # os._exit runs no finalizer, so none may be what closes a file:
        # the process must close --out itself
        target = tmp_path / f"tiling.{fmt}"
        argv, env = cli_command("render", "LhRLLRRhhh", "--format", fmt)
        to_file = subprocess.run(
            [*argv, "--out", str(target)], capture_output=True, env=env, timeout=20
        )
        to_stdout = subprocess.run(argv, capture_output=True, env=env, timeout=20)
        assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert target.read_bytes() == to_stdout.stdout != b""


def reader_pieces(arguments):
    """Argv fragments for one subcommand's arguments: each option with valid
    and invalid values, bare, abbreviated and as --opt=value, and the words
    a plain command line never holds."""
    pieces = [("-h",), ("--help",), ("--",), ("",), ("-1",), ("hh",), ("LLRR",)]
    for argument, keywords in arguments:
        if not argument.startswith("-"):
            continue  # "hh" and "LLRR" fill positionals
        pieces += [(argument,), (argument[:-1],), (argument + "=1",)]
        if keywords.get("action") == "store_true":
            continue
        if "choices" in keywords:
            choices = [str(c) for c in keywords["choices"]]
            valid, invalid = [choices[0], choices[-1]], ["Z"]
        elif "type" in keywords:
            valid, invalid = ["0", "12"], ["x", " -1", "1.5"]
        else:
            valid, invalid = ["out.txt"], []
        pieces += [(argument, v) for v in valid + invalid]
        pieces += [(argument[:-1], valid[0]), (f"{argument}={valid[0]}",)]
    return pieces


def canonical_unit(argument, keywords):
    """An argument as a plain command line gives it: its first valid value."""
    if not argument.startswith("-"):
        return ("hh",)
    if keywords.get("action") == "store_true":
        return (argument,)
    return (argument, str(keywords.get("choices", ["0"])[0]))


class TestPlainReader:
    """cli._read_plain against argparse, its reference: whenever the reader
    gives a namespace, build_parser().parse_args gives an equal one."""

    COMMANDS = [row[0] for row in cli._commands()]

    @staticmethod
    def agree(parser, argv):
        args = cli._read_plain(argv)
        if args is None:
            return False
        try:
            expected = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"the reader read {argv!r}, which argparse rejects")
        assert vars(args) == vars(expected), argv
        return True

    @pytest.mark.parametrize("name", COMMANDS)
    def test_reads_only_what_argparse_reads_alike(self, name, capsys):
        (arguments,) = [row[3] for row in cli._commands() if row[0] == name]
        parser = cli.build_parser()
        pieces = reader_pieces(arguments)
        read = 0
        for length in range(4):
            for chosen in itertools.product(pieces, repeat=length):
                read += self.agree(parser, [name, *itertools.chain(*chosen)])
        rng = random.Random(2024)
        for _ in range(500):
            chosen = rng.choices(pieces, k=rng.randint(4, 8))
            read += self.agree(parser, [name, *itertools.chain(*chosen)])
        assert read > 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("name", COMMANDS)
    def test_every_canonical_form_is_read(self, name):
        # each optional argument present or not, in every order
        (arguments,) = [row[3] for row in cli._commands() if row[0] == name]
        parser = cli.build_parser()
        units = {a: canonical_unit(a, kw) for a, kw in arguments}
        needed = [a for a, kw in arguments if kw.get("required") or a[0] != "-"]
        optional = [a for a in units if a not in needed]
        for k in range(len(optional) + 1):
            for extra in itertools.combinations(optional, k):
                for order in itertools.permutations(needed + list(extra)):
                    argv = [name, *itertools.chain(*(units[a] for a in order))]
                    assert self.agree(parser, argv), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--seq", "A", "--n=-1"],
            ["enumerate", "--lim", "-1", "--n", "3"],
            ["count", "--seq", "A", "--n", " -1"],
            ["count", "--seq", "A", "--n", "3", "--n", "4"],
            ["decompose", "--", "-h"],
            ["verify", "--identity", "8", "--max-n", "3"],
            [],
            ["count", "--help"],
        ],
    )
    def test_leaves_other_spellings_to_argparse(self, argv):
        assert cli._read_plain(argv) is None
