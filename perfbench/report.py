"""Print every end-to-end metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed 1] [--seconds 40] [--trace 0]

Runs ``run.py`` once per workload, one after the other, each in its own
process so that ``peak_rss_mb`` belongs to that workload alone. Run from the
root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(RUN), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
