"""Builds the one local SparkSession that the table jobs and the tests share.

:func:`local_spark` sets everything the JVM reads at launch through
``PYSPARK_SUBMIT_ARGS`` (master, driver memory, loopback host, no UI or
console progress) and the per-session SQL settings every table is
computed with: 32 shuffle partitions, Arrow on, broadcast joins off (so
the joins take the shuffle path at any data size). It also exports
``src/`` on ``PYTHONPATH``: Spark's Python workers import ``repro`` from
the environment they inherit, not from this process's ``sys.path``.

``SPARK_MASTER`` (default ``local[*]``) and ``SPARK_DRIVER_MEM`` are the
deployment settings; an explicit ``PYSPARK_SUBMIT_ARGS`` overrides both.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _driver_memory() -> str:
    """``SPARK_DRIVER_MEM`` if set, else ~75% of the cgroup memory limit.

    The cgroup read is best-effort: a sandbox's sysfs emulation may not
    pass the host limit through. An unbounded value (cgroup-v1's ~9.2e18
    "unlimited" sentinel, or a missing limit) is treated as absent, and
    the heap falls back to 48g, a ceiling the JVM only reserves.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if 1 <= gib <= 1024:  # v1 "unlimited" → ~8.6e9 GiB
                return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    return "48g"


def local_spark(app: str) -> SparkSession:
    """Build (or reuse) the local SparkSession named ``app``."""
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {_driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell",
    )
    s = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
