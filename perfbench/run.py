"""The fencetiles benchmark.

    python3 perfbench/run.py --workload oracle|bigint|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from the
checkout's src/; the benchmark fails (exit 2, no result) if it is missing.

--trace 0 measures the end-to-end metrics with tracing off: the fixed job
list of the workload is run again and again, each pass in a fresh process
(for cli, one fresh process per invocation), until the next pass would end
after S seconds; at least one pass always runs.  Every op is bracketed by
reference timings and its latency scaled to the reference speed
(speed.py).  wall_s is the median pass; an op's latency is its median over
the passes, and cmd_p50_ms/cmd_p90_ms are percentiles over the ops (for
oracle and bigint an op is one library call, for cli one process).
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it carries the run's context (interpreter, cores, commit,
seed, sample counts, quartiles, failures).  Both are also written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from runner import bare_start, check_invocation, cli_argv, run_process, run_cli_pass
from speed import reference, scale_process
from stats import percentile, summary
from workloads import build, known_failure_ops, load_goldens

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("oracle", "bigint", "cli")
SETUP_PROBES_PER_PASS = 3
CLI_PROBE_EVERY = 7  # cli: one set-up probe before every 7th invocation
IMPORT_PROBES = 7
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failure of an op)."""


def timed_process(argv, env, cwd) -> float:
    latency, proc = run_process(argv, env, cwd)
    if not isinstance(proc, subprocess.CompletedProcess) or proc.returncode:
        raise BenchError(f"{argv} failed: {proc}")
    return latency


def run_child(workload, seed, src, env, cwd, spans=None) -> dict:
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--src", str(src)]
    if spans is not None:
        argv += ["--trace", str(spans)]
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed: {proc.stderr.decode(errors='replace')}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def wall(records, key="latency_s") -> float:
    """Time to solution of one pass: the sum of its ops' latencies."""
    return sum(r[key] for r in records)


def measure(workload, seed, seconds, src, env, cwd) -> tuple[dict, dict, list]:
    """Passes until the next one would end after `seconds`; set-up probes
    are spread over the run so they sample the same stretch of time."""
    entry = "fencetiles.cli" if workload == "cli" else "fencetiles"
    import_argv = [sys.executable, "-c", f"import {entry}"]
    timed_process(import_argv, env, cwd)  # warms the bytecode cache
    setup: list[tuple[float, float, float, float]] = []  # import, scaled, bare, ref

    def probe() -> None:
        bare, ref = bare_start(env, cwd), reference()
        t = timed_process(import_argv, env, cwd)
        setup.append((t, scale_process(t, bare, ref), bare, ref))

    cli_ops, goldens = (build("cli", seed), load_goldens()) if workload == "cli" else (None, None)
    passes, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if workload == "cli":
            passes.append(run_cli_pass(
                cli_ops, env, cwd, goldens,
                between=lambda i: i % CLI_PROBE_EVERY == 0 and probe()))
        else:
            for _ in range(SETUP_PROBES_PER_PASS):
                probe()
            passes.append(run_child(workload, seed, src, env, cwd)["records"])
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break

    records = [r for p in passes for r in p]
    tilings = sum(r["tilings"] for r in passes[0])

    def timings(key, setup_index):
        # one latency sample per op, its median over the passes: the sample
        # set is then the same however many passes fit in the run
        per_op: dict[str, list[float]] = {}
        for r in records:
            per_op.setdefault(r["name"], []).append(1000 * r[key])
        latencies_ms = [statistics.median(v) for v in per_op.values()]
        walls = [wall(p, key) for p in passes]
        p50, p90 = percentile(latencies_ms, 50), percentile(latencies_ms, 90)
        return {
            "setup_s": statistics.median(s[setup_index] for s in setup),
            "wall_s": statistics.median(walls),
            "tilings_per_s": tilings / statistics.median(walls),
            "cmd_p50_ms": p50.value,
            "cmd_p90_ms": p90.value,
        }, walls, (p50, p90)

    metrics, scaled_walls, (p50, p90) = timings("scaled_s", 1)
    unscaled, walls, _ = timings("latency_s", 0)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    info = {
        "passes": len(passes),
        "tilings_per_pass": tilings,
        "pass_wall_s": walls,
        "pass_scaled_wall_s": scaled_walls,
        "wall_s": summary(walls),
        "setup_s": summary([s[0] for s in setup]),
        "unscaled": unscaled,
        "setup_samples": setup,
        "cmd_p50_ms": {"samples": p50.samples, "beyond": p50.beyond},
        "cmd_p90_ms": {"samples": p90.samples, "beyond": p90.beyond},
    }
    return metrics, info, records


def measure_traced(workload, seed, src, env, cwd) -> tuple[dict, dict, list]:
    from layers import main_ms

    cli_import = []
    for _ in range(IMPORT_PROBES):
        bare = bare_start(env, cwd)
        cli_import.append(timed_process([sys.executable, "-c", "import fencetiles.cli"],
                                        env, cwd) - bare)
    goldens = load_goldens()
    probes = [check_invocation(op, *run_process(cli_argv(op), env, cwd), goldens)
              for op in known_failure_ops()]

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    spans = results / f"spans-{workload}-seed{seed}.jsonl"
    untraced = run_child(workload, seed, src, env, cwd)["records"]
    traced_run = run_child(workload, seed, src, env, cwd, spans=spans)
    traced = traced_run["records"]

    metrics = dict(traced_run["layers"])
    metrics["cli.import_ms"] = 1000 * statistics.median(cli_import)
    metrics.update(main_ms(untraced if workload == "cli" else []))
    metrics["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0) for r in traced)
    metrics["cli.known_failures"] = sum(not p["ok"] for p in probes)
    metrics["trace.wall_s"] = wall(traced)
    metrics["trace.untraced_wall_s"] = wall(untraced)
    metrics["trace.overhead_s"] = wall(traced) - wall(untraced)
    info = {
        "spans": str(spans.relative_to(cwd)),
        "tracing_overhead_s": metrics["trace.overhead_s"],
        "layer_self_sum_s": metrics["trace.self_sum_s"],
        "traced_wall_s": metrics["trace.wall_s"],
        "known_failures": [{"op": p["name"], "error": p["error"]} for p in probes],
        "cli_mode": "in-process main(argv)" if workload == "cli" else None,
    }
    return metrics, info, untraced + traced


def commit(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "fencetiles" / "__init__.py").is_file():
        print(f"error: no fencetiles sources under {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    try:
        if args.trace:
            metrics, info, records = measure_traced(
                args.workload, args.seed, src, env, root)
        else:
            metrics, info, records = measure(
                args.workload, args.seed, args.seconds, src, env, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1

    failed = [r for r in records if not r["ok"]]
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "commit": commit(root),
        "src_sha256": source_digest(src),
        "error_rate": len(failed) / len(records),
        "failures": [{"op": r["name"], "error": r["error"]} for r in failed[:10]],
    })
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"info": info, "result": result, "records": records,
                               "setup": info.pop("setup_samples", None)}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
