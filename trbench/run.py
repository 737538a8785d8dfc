"""Benchmark entry point for MMA matching, TRMMA recovery and training.

    python3 trbench/run.py --workload recover-pt --seed 1 --seconds 8 --trace 0

Run from the repository root. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Everything the run writes (Spark scratch, model cache,
results, spans) stays under ``trbench/.work``. Before it exits, the run
stops Spark's JVM and waits until every process it started has ended. The
exit code is 0 only for a run without gate disagreements. ``--seconds``
defaults to BENCHMARK.json's ``run_seconds``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
FIT_TIMEOUT_S = 800
STOP_GRACE_S = 30  # how long descendants get to exit on their own before SIGTERM
PR_SET_CHILD_SUBREAPER = 36


def slots() -> int:
    """Spark task slots: one core stays with the Spark driver and the JVM."""
    return max(1, len(os.sched_getaffinity(0)) - 1)


def configure_env() -> None:
    """Point Spark, the JVM and the Python workers inside the benchmark's
    work directory. Must run before pyspark is imported."""
    for d in ("tmp", "spark", "warehouse", "results", "trace", "models"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)
    tmp = os.path.join(WORK, "tmp")
    src = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(WORK, "spark")
    # every JVM, Spark's launcher included: temp files here, no /tmp/hsperfdata
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{slots()}]",
        "--driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote('spark.local.dir=' + os.path.join(WORK, 'spark'))}",
        f"--conf {shlex.quote('spark.sql.warehouse.dir=' + os.path.join(WORK, 'warehouse'))}",
        "pyspark-shell",
    ])
    sys.path.insert(0, src)
    import tempfile

    tempfile.tempdir = tmp


def start_spark():
    from pyspark.sql import SparkSession

    s = (
        SparkSession.builder.appName("trbench")
        .config("spark.sql.shuffle.partitions", str(2 * slots()))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def stop_spark(spark) -> None:
    """Stop the session and the JVM behind it, and wait for the JVM to end.
    The JVM exits when its standard input closes; left to do that when this
    process exits, it would outlive the run by its shutdown hooks."""
    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.shutdown()
    if gateway.proc is not None:
        gateway.proc.stdin.close()
        try:
            gateway.proc.wait(timeout=STOP_GRACE_S)
        except subprocess.TimeoutExpired:
            gateway.proc.kill()
            gateway.proc.wait()


def become_subreaper() -> None:
    """Have orphaned descendants (Spark's Python daemon, which leaves the
    JVM's process group; the JVM of a killed model-fitting child) re-parented
    to this process, so :func:`reap_descendants` can wait for them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def reap_descendants() -> None:
    """Wait until every process this one started has ended: ``STOP_GRACE_S``
    to exit on their own, then SIGTERM, then SIGKILL."""
    grace = STOP_GRACE_S
    for sig in (signal.SIGTERM, signal.SIGKILL, None):
        deadline = time.monotonic() + grace
        while True:
            _reap_children()
            left = _descendants(os.getpid())[1:]
            if not left:
                return
            if time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if sig is None:
            raise RuntimeError(f"trbench: processes {left} outlived SIGKILL")
        print(f"trbench: sending {sig.name} to processes left running: {left}", file=sys.stderr)
        for p in left:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        grace = 5


def _reap_children() -> None:
    """Collect every child that has exited, orphans re-parented here included."""
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                return
        except ChildProcessError:
            return


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def peak_rss_mb() -> float:
    """Sum of peak resident sets of the Spark driver and of every Python process
    under it (the Spark Python daemon and workers); the JVM is left out."""
    total_kb = 0
    for p in _descendants(os.getpid()):
        try:
            with open(f"/proc/{p}/status") as f:
                fields = dict(line.split(":", 1) for line in f if ":" in line)
        except OSError:
            continue
        if p == os.getpid() or "python" in fields.get("Name", ""):
            total_kb += int(fields.get("VmHWM", "0 kB").split()[0])
    return total_kb / 1024.0


def ensure_models() -> str:
    import models

    path = models.cache_path(ROOT, WORK)
    if not os.path.exists(path):
        subprocess.run([sys.executable, os.path.abspath(__file__), "--fit-models"], check=True,
                       timeout=FIT_TIMEOUT_S, stdout=sys.stderr)
    return path


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec_json = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec_json["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fit-models", action="store_true", help="fit and cache the served models, then exit")
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"trbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    configure_env()
    sys.path.insert(0, HERE)
    import models
    import workloads

    if args.fit_models:
        spark = start_spark()
        try:
            models.fit_all(spark, models.cache_path(ROOT, WORK))
        finally:
            stop_spark(spark)
        return 0
    if args.workload not in workloads.SPECS:
        ap.error(f"--workload must be one of {sorted(workloads.SPECS)}")
    cached = models.load(ensure_models())

    t_start = time.perf_counter()
    spark = start_spark()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        res = workloads.run(spark, workloads.SPECS[args.workload], args.seed, args.seconds,
                            bool(args.trace), cached, slots(),
                            spans_path=os.path.join(WORK, "trace", f"{tag}.jsonl"))
        res["peak_rss_mb"] = peak_rss_mb()
    finally:
        stop_spark(spark)
    gate, phases, detail = res.pop("_gate"), res.pop("_phases"), res.pop("_detail")
    res["run_wall_s"] = time.perf_counter() - t_start
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "gate": gate, "phases_s": phases, "detail": detail, "values": res}, f, indent=1, default=float)

    wanted = spec_json["per_layer"] if args.trace else spec_json["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res]
    if missing:
        print(f"trbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    # findings count trajectories as failed; a disagreement fails the run
    correct = not gate["disagreements"]
    for line in gate["disagreements"] + gate["findings"]:
        print(f"trbench gate: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {m["name"]: {"value": float(res[m["name"]]), "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    become_subreaper()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        rc = main()
    finally:
        reap_descendants()
    sys.exit(rc)
