"""Record sha256 goldens of stdout for the fixed-input CLI invocations.

    python3 perfbench/record_goldens.py

Run from the root of a checkout.  The goldens in goldens.json were recorded
at the commit that introduced the benchmark; stdout must stay
byte-identical, so re-record only when an output change is intended.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import checks
from workloads import GOLDENS_PATH, build


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    goldens = {}
    for op in build("cli", 0):
        if op.fixed:
            proc = subprocess.run([sys.executable, "-m", "fencetiles.cli", *op.argv],
                                  capture_output=True, env=env, check=True)
            goldens[op.name] = checks.sha256(proc.stdout)
    GOLDENS_PATH.write_text(json.dumps(dict(sorted(goldens.items())), indent=1) + "\n")
    print(f"recorded {len(goldens)} goldens in {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
