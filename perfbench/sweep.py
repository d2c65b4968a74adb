"""Repeat `run.py` over seeds and workloads and report each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 35 [--trace 1]
                               [--workloads a,b]

Runs one benchmark process at a time. The workload order rotates by one
position per seed, so a slow spell on a shared machine is spread over the
workloads instead of landing on one. For each workload and metric it prints
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
interquartile distance as a share of the median, then one JSON line with
every value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")

    values = {w: {} for w in names}
    shares = {w: set() for w in names}
    for i, seed in enumerate(args.seeds):
        k = i % len(names)
        for w in names[k:] + names[:k]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{w} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            shares[w].add(f"{result['failed']}/{result['attempted']}"
                          if result["failed"] else "0")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"seed {seed} {w}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)

    for w in names:
        print(f"\n{w} ({len(args.seeds)} runs, failed shares {sorted(shares[w])})")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28s} median {med:<14.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}")
    print(json.dumps(values))


if __name__ == "__main__":
    main()
