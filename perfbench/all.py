"""Run every workload listed in BENCHMARK.json, one after another.

    python3 perfbench/all.py --seed 0 --seconds 18 --trace 0

Each workload runs in its own process through ``run.py`` with the same
arguments; its report is passed through unchanged.  Exits non-zero when a
run fails or reports an incorrect plan.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for w in contract["workloads"]:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(out.stdout, end="", flush=True)
        lines = out.stdout.strip().splitlines()
        ok &= out.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
