"""Run one op and record its latency and whether its output checked out.

Only the call itself is timed; checks run after the clock stops.  A
record's "scaled_s" is its latency scaled by the references around it
(speed.py).
"""

from __future__ import annotations

import io
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from speed import BARE_ARGV, REFERENCE_S, reference, scale, scale_process
from workloads import Op, check_cli_output

CLI_TIMEOUT_S = 120


def _record(op: Op, latency: float, error: str | None, **extra) -> dict:
    return {"name": op.name, "latency_s": latency, "ok": error is None,
            "error": error, "tilings": op.tilings, **extra}


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:300]


def run_call(op: Op) -> dict:
    before = reference()
    error = None
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # the program failed: record it, keep going
        error = _describe(exc)
    latency = time.perf_counter() - t0
    ref = (before + reference()) / 2
    if error is None:
        try:
            op.check(result)
        except Exception as exc:
            error = _describe(exc)
    return _record(op, latency, error, ref_s=ref,
                   scaled_s=scale(latency, ref, REFERENCE_S))


def _check_cli(op: Op, latency: float, code: int, out: bytes, err: bytes,
               goldens: dict, **extra) -> dict:
    extra.update(sub=op.argv[0], stdout_bytes=len(out), exit=code)
    try:
        check_cli_output(op, code, out, goldens)
    except Exception as exc:
        detail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return _record(op, latency, f"{_describe(exc)} {detail[0]}"[:300], **extra)
    return _record(op, latency, None, **extra)


def run_process(argv, env: dict, cwd):
    """Run one process to completion, draining its output; return
    (latency, CompletedProcess) or (latency, TimeoutExpired)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=cwd,
                              timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return time.perf_counter() - t0, exc
    return time.perf_counter() - t0, proc


def bare_start(env: dict, cwd) -> float:
    latency, proc = run_process(BARE_ARGV, env, cwd)
    if not isinstance(proc, subprocess.CompletedProcess) or proc.returncode:
        raise RuntimeError(f"{BARE_ARGV} failed")
    return latency


def cli_argv(op: Op) -> list[str]:
    return [sys.executable, "-m", "fencetiles.cli", *op.argv]


def check_invocation(op: Op, latency: float, proc, goldens: dict, **extra) -> dict:
    if not isinstance(proc, subprocess.CompletedProcess):
        return _record(op, latency, _describe(proc), **extra)
    return _check_cli(op, latency, proc.returncode, proc.stdout, proc.stderr,
                      goldens, **extra)


def run_cli_pass(ops, env: dict, cwd, goldens: dict, between=None) -> list[dict]:
    """Each op as a fresh `python -m fencetiles.cli` process, one after
    another, each bracketed by bare interpreter starts and reference
    kernels; between(i) runs before op i.  Outputs are checked once the
    pass is over."""
    bare, refs = [bare_start(env, cwd)], [reference()]
    done = []
    for i, op in enumerate(ops):
        if between is not None:
            between(i)
            bare[-1], refs[-1] = bare_start(env, cwd), reference()
        done.append(run_process(cli_argv(op), env, cwd))
        bare.append(bare_start(env, cwd))
        refs.append(reference())
    records = []
    for i, (op, (latency, proc)) in enumerate(zip(ops, done)):
        b, r = (bare[i] + bare[i + 1]) / 2, (refs[i] + refs[i + 1]) / 2
        records.append(check_invocation(
            op, latency, proc, goldens, bare_s=b, ref_s=r,
            scaled_s=scale_process(latency, b, r)))
    return records


def run_cli_inprocess(op: Op, main, goldens: dict) -> dict:
    """fencetiles.cli.main(argv) in this process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(op.argv))
    except Exception as exc:
        return _record(op, time.perf_counter() - t0, _describe(exc))
    latency = time.perf_counter() - t0
    return _check_cli(op, latency, code, out.getvalue().encode("utf-8"),
                      err.getvalue().encode("utf-8"), goldens)
