"""One workload pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py --workload oracle --seed 1 [--trace SPANS.jsonl]

oracle and bigint call the library in this process.  cli calls
fencetiles.cli.main(argv) in this process with stdout captured; the
untraced CLI figures come from real processes started by run.py instead.
The parent sets PYTHONPATH to the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from workloads import build, load_goldens


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("oracle", "bigint", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--trace", type=Path, default=None,
                        help="trace the pass and write its spans here")
    args = parser.parse_args()

    import fencetiles

    found = Path(fencetiles.__file__).resolve()
    if args.src.resolve() not in found.parents:
        print(f"fencetiles imported from {found}, not from {args.src}", file=sys.stderr)
        return 2
    import fencetiles.cli
    from runner import run_call, run_cli_inprocess

    ops = build(args.workload, args.seed, fencetiles)
    tracer = None
    main_fn = fencetiles.cli.main
    if args.trace is not None:
        import layers
        from tracing import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{time.time_ns()}")
        layers.install(tracer)
        main_fn = tracer.span("cli.main", main_fn)
    if args.workload == "cli":
        goldens = load_goldens()

        def run(op):
            return run_cli_inprocess(op, main_fn, goldens)
    else:
        run = run_call
        if tracer is not None:
            for op in ops:
                op.run = tracer.span("job", op.run)
    records = [run(op) for op in ops]
    result = {"records": records}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace)
        result["layers"] = layers.metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
