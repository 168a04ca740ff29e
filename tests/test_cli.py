import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fencetiles import bijection, identities, sequences
from fencetiles.cli import main
from fencetiles.core import validate
from fencetiles.sequences import count_A


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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

    def test_all_combinatorial_output_is_pinned(self, capsys):
        # the stdout the per-tiling scan printed: 7 numeric and 5
        # combinatorial reports, every row byte for byte
        status, out, _ = run(
            capsys, "verify", "--identity", "all", "--max-n", "12", "--combinatorial"
        )
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "5dc221af47bc5531193af522dae6a54dcf54eedf1934640a74e71fb6875bc40e"
        )

    def test_numeric_max_n_beyond_the_bound_is_usage_error(self, capsys):
        status, out, err = run(
            capsys, "verify", "--identity", "2", "--max-n", "100000000"
        )
        assert (status, out) == (2, "")
        assert "n_max must be at most 6000" in err and "Traceback" not in err

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

    def test_audit_balanced(self, capsys):
        status, out, err = run(capsys, "bijection", "--n", "5", "--audit")
        assert status == 0
        assert "balanced" in out
        assert err == ""

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
        ],
    )
    def test_subcommand_help_is_pinned(self, capsys, monkeypatch, command, expected):
        # the choices come from sequences.TABLES and render.FORMATS
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, command, "--help") == (0, expected, "")

    def test_help_exits_zero(self, capsys):
        status, out, _ = run(capsys, "--help")
        assert status == 0
        assert "usage" in out


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
        # none of these is needed to start the CLI; -S keeps site-packages'
        # .pth files, which may import any of them, out of the process
        argv, env = cli_command()
        heavy = {"dataclasses", "inspect", "typing", "json"}
        code = f"import sys, fencetiles.cli; print(sorted({heavy} & set(sys.modules)))"
        proc = subprocess.run(
            [argv[0], "-S", "-c", code],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")
