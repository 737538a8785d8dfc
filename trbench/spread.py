"""Run the benchmark over several seeds and report each metric's spread.

    python3 trbench/spread.py --workload recover-pt --seeds 1-10 [--trace 0]

For every metric: the median, and the distance between the first and the
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, beside the metric's bound from BENCHMARK.json. Runs one seed at a
time, from the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}", file=sys.stderr)
            return 1
        out = json.loads(lines[-1])
        print(f"seed {seed}: correct={out['correct']} failed={out['failed']}/{out['attempted']}", flush=True)
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else ("  WIDE" if spread >= bound else "  >1/3"))
        print(f"{name:44s} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
