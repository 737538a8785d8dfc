"""Shared plumbing for the spark-submit entrypoints in jobs/.

Each job builds (or reuses) a local SparkSession configured like the test
fixture in conftest.py, runs one table's ``tableN_city`` from
:mod:`repro.evalx.tables` over the chosen cities with ``per_city``, writes
``reports/<table>.json`` and a markdown rendering, and prints the markdown
so `spark-submit jobs/<job>.py` output is directly pasteable into
EXPERIMENTS.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# Allow running the jobs without `pip install -e .` (e.g. plain spark-submit).
SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)


def make_spark(app: str):
    # Spark's Python workers import repro too; they see the PYTHONPATH they
    # inherit, not this process's sys.path.
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


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
