"""Shared plumbing for the spark-submit entrypoints in jobs/.

Each job builds (or reuses) the local SparkSession of
:func:`repro.session.local_spark`, which the test fixture uses too, runs
one table's ``tableN_city`` from :mod:`repro.evalx.tables` over the chosen
cities with ``per_city``, writes ``reports/<table>.json`` and a markdown
rendering, and prints the markdown so `spark-submit jobs/<job>.py` output
is directly pasteable into EXPERIMENTS.md. Importing this module puts
``src/`` on ``sys.path``, so the jobs import ``repro`` after it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# Allow running the jobs without `pip install -e .` (e.g. plain spark-submit).
sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))


def job_args(desc: str, default_n: int = 700) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--n-traj", type=int, default=default_n, help="trajectories per city")
    p.add_argument("--cities", type=str, default="pt,xa,bj,cd")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default="reports")
    p.add_argument("--verbose", action="store_true")
    return p.parse_args()


def finish(name: str, data: dict, out_dir: str, markdown: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.json"), "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, f"{name}.md"), "w") as f:
        f.write(markdown + "\n")
    print(markdown)
    print(f"\n[{name}] wrote {out_dir}/{name}.json and {out_dir}/{name}.md")
