"""The workloads and the phases they share.

Every run, traced or not, goes through the same phases:

1. **set-up**, repeated ``SETUP_REPEATS`` times (median reported): build the
   city at the workload seed, materialise its Spark caches, collect and
   featurise the inputs on the Spark driver, and broadcast the road network.
2. **training probe**: one epoch from a fresh initialisation on a fixed
   sample set from the model cache, MMA then TRMMA on ``recover-pt`` and
   MMA on ``match-bj``. The served models come from the same cache, so
   fitting them stays out of set-up.
3. **warm-up**: one Spark pass, the DuckDB oracle check of its scores and
   one scoring, which gives the quality metrics (every pass gives the same
   output), so the JVM, the Python workers and their per-process caches are
   warm before anything is timed.
4. **measure**: ``ROUNDS`` rounds of (Spark pass, block of direct calls),
   with a timed scoring after each pass in the traced run only: scoring is
   all Spark overhead on a few thousand rows, and host contention moved it
   by up to 1.8x between runs that the reference kernel saw at the same
   speed, so ``score_s`` is a per-layer figure. The Spark work is a fixed
   amount. The direct calls time the test and the validation split, so the
   latency percentiles rest on twice as many distinct trajectories; each
   round takes its share of them, and every input is called the same number
   of times, set by ``--seconds`` (:func:`latency_passes`). A faster or
   slower program thus times the same inputs.
5. **gate**: invariants, and Spark against direct call. With the oracle
   check of step 3, a disagreement fails the run.

``--trace 1`` adds the timed scorings, spans around each layer's public
functions for the training probe, the direct calls with the all-segment foil
beside them, and a replay on the Spark driver of the distance metric. Spark
passes always run untraced: their workers import fresh modules.
"""
from __future__ import annotations

import pickle
import statistics
import time
from dataclasses import dataclass

import numpy as np

import hostspeed
from gate import match_findings, recovery_findings, spark_vs_direct
from models import D, FIT_SEED
from tracing import Tracer

SETUP_REPEATS = 3
ROUNDS = 3


@dataclass(frozen=True)
class Spec:
    city: str
    n_traj: int  # trajectories in the city (30% are the test split)
    task: str  # "recover" (Algorithm 2) or "match" (Algorithm 1)
    call_ms: float  # nominal direct-call time on a slow host; see latency_passes


SPECS = {
    "recover-pt": Spec("pt", 400, "recover", 30.0),
    "match-bj": Spec("bj", 400, "match", 12.0),
}


def latency_passes(spec: Spec, n_inputs: int, seconds: float) -> int:
    """Whole passes over the latency inputs that fit in ``seconds`` at the
    nominal call time, at least one. It depends on nothing measured, so every
    run of a workload at the same ``--seconds`` times each input equally
    often."""
    return max(1, int(seconds * 1e3 // (n_inputs * spec.call_ms)))


@dataclass
class Input:
    traj_id: int
    idx: np.ndarray  # observed tick indices
    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    t0: float
    n_ticks: int  # ground-truth ε ticks
    gt_seg: np.ndarray  # (n_ticks,)

    @classmethod
    def of(cls, tr):
        obs = np.where(tr.observed)[0]
        return cls(tr.traj_id, obs.astype(np.int64), tr.x[obs], tr.y[obs], tr.t[obs], tr.t0,
                   len(tr.t), tr.seg)


@dataclass
class Served:
    """The served matcher (``match``) or recoverer (``recover``)."""

    task: str
    obj: object  # MMAMatcher or TRMMARecoverer
    costs: np.ndarray


# ---------------------------------------------------------------------------
# the two ways to run it: direct calls and the Spark runner
# ---------------------------------------------------------------------------
def direct_call(served: Served, inp: Input) -> dict:
    """One trajectory through the public functions the Spark runner calls,
    in the same order."""
    if served.task == "recover":
        segs, ratios = served.obj.recover(inp.xs, inp.ys, inp.ts, inp.t0, inp.idx, int(inp.idx[-1]) + 1)
        return {"segs": np.asarray(segs), "ratios": np.asarray(ratios)}
    from repro.mma import infer as mma_infer

    net = served.obj.net
    segs = served.obj.match(inp.xs, inp.ys, inp.ts, inp.t0)
    ratios = np.array([net.project(float(x), float(y), int(s))[0] for x, y, s in zip(inp.xs, inp.ys, segs)])
    route = mma_infer.stitch_route(net, [int(s) for s in segs], served.costs)
    return {"segs": np.asarray(segs), "ratios": ratios, "route": np.asarray(route, np.int64)}


def stitched_route(served: Served, inp: Input) -> np.ndarray:
    """The route a recoverer decodes over: MMA match, then stitch."""
    from repro.roadnet.routing import stitch_route

    m = served.obj.matcher
    segs = m.match(inp.xs, inp.ys, inp.ts, inp.t0)
    return np.asarray(stitch_route(m.net, [int(s) for s in segs], served.costs), np.int64)


def spark_pass(spark, city, served: Served) -> dict:
    """One pass of the Spark runner over the test split, materialised on
    the Spark driver as pandas frames."""
    if served.task == "recover":
        from repro.trmma import infer as trmma_infer

        return {"points": trmma_infer.run_recovery(spark, city, served.obj).toPandas()}
    from repro.mma import infer as mma_infer

    res = mma_infer.run_matcher(spark, city, served.obj, costs=served.costs)
    return {"points": res.points.toPandas(), "routes": res.routes.toPandas()}


def spark_tasks(spark, group: str) -> int:
    """Tasks Spark completed for a job group, from its status tracker."""
    tr = spark.sparkContext.statusTracker()
    tasks = 0
    for j in tr.getJobIdsForGroup(group):
        info = tr.getJobInfo(j)
        for s in info.stageIds if info else ():
            si = tr.getStageInfo(s)
            if si is not None:
                tasks += si.numCompletedTasks
    return tasks


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
@dataclass
class Setup:
    city: object
    inputs: list  # the test split: Spark passes, scoring and the gate
    latency_inputs: list  # the test split, then the validation split
    costs: np.ndarray
    gt_points: object  # Spark DataFrame (traj_id, idx, seg, ratio), test split
    gt_routes: object  # Spark DataFrame (traj_id, seg), test split


def setup_once(spark, spec: Spec, seed: int) -> Setup:
    from pyspark.sql import functions as F

    from repro.roadnet.routing import HistoricalCosts
    from repro.traj import datasets

    city = datasets.build_city(spark, spec.city, n_traj=spec.n_traj, seed=1 + seed)
    trajs = city.trajs()
    by_split = {name: [tr for tr in trajs if datasets.split_of(tr.traj_id) == name]
                for name in datasets.SPLIT_NAMES}
    test = [Input.of(tr) for tr in by_split["test"]]
    # the table jobs' DA-lite stitching costs, from the train split's routes
    costs = HistoricalCosts(city.net, [tr.route for tr in by_split["train"]]).cost
    gt_points = city.points.filter(F.col("split") == "test").select("traj_id", "idx", "seg", "ratio")
    gt_routes = city.routes.filter(F.col("split") == "test").select("traj_id", "seg")
    bc = spark.sparkContext.broadcast({"net": city.net, "index": city.index})
    bc.destroy()
    val = [Input.of(tr) for tr in by_split["val"]]
    return Setup(city, test, test + val, costs, gt_points, gt_routes)


def timed_setups(spark, spec: Spec, seed: int) -> tuple[Setup, list[float]]:
    times, st = [], None
    for _ in range(SETUP_REPEATS):
        if st is not None:
            st.city.points.unpersist()
            st.city.routes.unpersist()
        t0 = time.perf_counter()
        st = setup_once(spark, spec, seed)
        times.append(time.perf_counter() - t0)
    return st, times


def make_served(spec: Spec, st: Setup, models: dict) -> Served:
    from repro.mma.baselines import MMAMatcher
    from repro.trmma.infer import TRMMARecoverer

    city = st.city
    matcher = MMAMatcher(city.net, city.index, city.norm, models["mma"])
    if spec.task == "match":
        return Served("match", matcher, st.costs)
    rec = TRMMARecoverer(matcher, models["trmma"], city.norm, city.eps, costs=st.costs,
                         time_per_meter=models["tpm"])
    return Served("recover", rec, st.costs)


# ---------------------------------------------------------------------------
# training probe
# ---------------------------------------------------------------------------
def train_probe(st: Setup, models: dict, tracer: Tracer | None) -> dict:
    """Fit MMA (then TRMMA) for one epoch from a fresh initialisation on the
    fixed probe samples, at the table jobs' settings (d = ``D``, their batch
    sizes and learning rates).

    Returns ``samples`` (through forward+backward+step), ``wall_s`` (kernel
    time removed), ``slowness`` (weighted by how long the work ran at each
    host speed) and ``final_loss`` (mean per-sample loss of the last model's
    epoch).
    """
    from repro.mma.model import MMAModel
    from repro.mma.train import train_mma
    from repro.nn.optim import Adam
    from repro.trmma.model import TRMMAModel
    from repro.trmma.train import train_trmma

    mma_samples, trmma_samples = models["probe_mma"], models["probe_trmma"]
    losses: list[float] = []
    probe = hostspeed.SpeedProbe()  # a kernel sample after every sample's loss

    def keep_loss(t, args, kwargs, out):
        loss = out[0] if isinstance(out, tuple) else out
        losses.append(float(loss.data))
        probe.sample()

    hooks = tracer if tracer is not None else Tracer()
    hooks.wrap(MMAModel, "loss", "mma.model.loss", after=keep_loss)
    hooks.wrap(TRMMAModel, "loss", "trmma.model.loss", after=keep_loss)
    if tracer is not None:
        from repro.nn.autodiff import Tensor

        tracer.wrap(Adam, "step", "nn.optim.step")
        tracer.wrap(Tensor, "backward", "nn.autodiff.backward")
        tracer.count_calls(Tensor, "__init__", "nn.autodiff.tensors")
    try:
        probe.sample()
        train_mma(st.city, epochs=1, d=D, seed=FIT_SEED, n2v=models["n2v"], samples=mma_samples)
        if trmma_samples:
            train_trmma(st.city, epochs=1, d_h=D, seed=FIT_SEED, n2v=models["n2v"],
                        time_per_meter=models["tpm"], samples=trmma_samples)
        probe.sample()
    finally:
        hooks.restore()
    last = len(trmma_samples) or len(mma_samples)
    wall, norm_wall = probe.work_between()
    return {"samples": len(mma_samples) + len(trmma_samples), "wall_s": wall,
            "kernel_samples": len(probe.samples), "slowness": wall / norm_wall,
            "final_loss": float(np.mean(losses[-last:]))}


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------
@dataclass
class ScoreInputs:
    pred_points: object  # Spark DataFrame traj_id, idx, seg, ratio
    pred_routes: object  # Spark DataFrame traj_id, seg


def score_inputs(spark, task: str, out: dict) -> ScoreInputs:
    pts = spark.createDataFrame(out["points"][["traj_id", "idx", "seg", "ratio"]]).cache()
    pts.count()
    if task == "recover":  # the recovered segments, scored as a route
        return ScoreInputs(pts, pts.select("traj_id", "seg"))
    rts = spark.createDataFrame(out["routes"][["traj_id", "seg"]]).cache()
    rts.count()
    return ScoreInputs(pts, rts)


def score(spark, st: Setup, si: ScoreInputs) -> dict:
    """§VI-A scoring of one pass's output through ``evalx.metrics``."""
    from repro.evalx import metrics as M

    t0 = time.perf_counter()
    rec = M.aggregate_means(M.recovery_metrics_per_traj(spark, si.pred_points, st.gt_points, st.city.net),
                            ["accuracy", "mae"])
    t1 = time.perf_counter()
    route = M.aggregate_means(M.route_metrics_per_traj(si.pred_routes, st.gt_routes), ["f1"])
    t2 = time.perf_counter()
    return {"accuracy": rec["accuracy"], "mae_m": rec["mae"], "route_f1": route["f1"],
            "recovery_s": t1 - t0, "route_s": t2 - t1}


ORACLE_ACCURACY = (
    "SELECT p.traj_id, AVG(CASE WHEN p.seg = g.seg THEN 1.0 ELSE 0.0 END) AS accuracy "
    "FROM pred p JOIN gt g ON p.traj_id = g.traj_id AND p.idx = g.idx GROUP BY p.traj_id"
)
ORACLE_ROUTE_F1 = """
WITH p AS (SELECT DISTINCT traj_id, seg FROM pr),
     g AS (SELECT DISTINCT traj_id, seg FROM gr),
     np_ AS (SELECT traj_id, COUNT(*) AS n FROM p GROUP BY traj_id),
     ng AS (SELECT traj_id, COUNT(*) AS n FROM g GROUP BY traj_id),
     ni AS (SELECT p.traj_id, COUNT(*) AS n FROM p JOIN g ON p.traj_id = g.traj_id AND p.seg = g.seg
            GROUP BY p.traj_id),
     s AS (SELECT ng.traj_id,
                  COALESCE(ni.n, 0) * 1.0 / GREATEST(COALESCE(np_.n, 0), 1) AS pr_,
                  COALESCE(ni.n, 0) * 1.0 / ng.n AS re_
           FROM ng LEFT JOIN np_ ON ng.traj_id = np_.traj_id LEFT JOIN ni ON ng.traj_id = ni.traj_id)
SELECT traj_id, CASE WHEN pr_ + re_ > 0 THEN 2 * pr_ * re_ / (pr_ + re_) ELSE 0.0 END AS f1 FROM s
"""


def oracle_disagreements(spark, st: Setup, si: ScoreInputs) -> list[str]:
    """Per-trajectory accuracy and route F1 from ``evalx.metrics``,
    re-derived in DuckDB through ``repro.oracle.assert_equivalent``."""
    from repro.evalx import metrics as M
    from repro.oracle import assert_equivalent

    out = []
    acc = M.recovery_metrics_per_traj(spark, si.pred_points, st.gt_points, st.city.net)
    f1 = M.route_metrics_per_traj(si.pred_routes, st.gt_routes)
    for what, df, sql, tables in (
        ("accuracy", acc.select("traj_id", "accuracy"), ORACLE_ACCURACY,
         {"pred": si.pred_points, "gt": st.gt_points}),
        ("route F1", f1.select("traj_id", "f1"), ORACLE_ROUTE_F1,
         {"pr": si.pred_routes, "gr": st.gt_routes}),
    ):
        try:
            assert_equivalent(df, sql, **tables)
        except AssertionError as e:
            out.append(f"{what} disagrees with the DuckDB oracle: {str(e)[:300]}")
    return out


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------
def run_gate(served: Served, st: Setup, direct: dict, out: dict) -> dict:
    """Check one Spark pass's output against the invariants and against the
    direct-call outputs of the same trajectories."""
    from repro.roadnet.routing import plan_route

    net = st.city.net

    def plannable(a, b):
        return plan_route(net, a, b, served.costs) is not None

    failed, unplannable, findings = 0, 0, []
    by_traj = {int(t): g.sort_values("idx") for t, g in out["points"].groupby("traj_id")}
    for inp in st.inputs:
        g = by_traj.get(inp.traj_id)
        if g is None:
            found, un = ["no output rows"], 0
        elif served.task == "recover":
            found, un = recovery_findings(net, g["idx"].to_numpy(), g["seg"].to_numpy(), g["ratio"].to_numpy(),
                                          inp.n_ticks, stitched_route(served, inp), plannable)
        else:
            found, un = match_findings(net, g["idx"].to_numpy(), g["seg"].to_numpy(), g["ratio"].to_numpy(),
                                       inp.idx, direct[inp.traj_id]["route"], plannable)
        unplannable += un
        if found:
            failed += 1
            findings.append(f"traj {inp.traj_id}: " + "; ".join(found))
    disagreements = spark_vs_direct(out["points"], direct)
    if served.task == "match":
        spark_routes = {int(t): g.sort_values("pos")["seg"].to_numpy(np.int64)
                        for t, g in out["routes"].groupby("traj_id")}
        for tid, d in direct.items():
            if not np.array_equal(spark_routes.get(tid, np.empty(0, np.int64)), d["route"]):
                disagreements.append(f"traj {tid}: stitched routes differ")
    return {"attempted": len(st.inputs), "failed": failed, "unplannable_hops": unplannable,
            "disagreements": disagreements, "findings": findings}


# ---------------------------------------------------------------------------
# direct-call latency blocks
# ---------------------------------------------------------------------------
class LatencyLog:
    """Raw direct-call latencies, each paired with a kernel sample taken
    just before it. The first output of each trajectory is kept for the
    gate."""

    def __init__(self):
        self.probe = hostspeed.SpeedProbe()
        self.raw_ms: list[float] = []
        self.kidx: list[int] = []
        self.outputs: dict = {}

    def block(self, served: Served, inputs: list, passes: int) -> None:
        for _ in range(passes):
            for inp in inputs:
                k = self.probe.sample()
                t0 = time.perf_counter()
                d = direct_call(served, inp)
                self.raw_ms.append((time.perf_counter() - t0) * 1e3)
                self.kidx.append(k)
                self.outputs.setdefault(inp.traj_id, d)

    def normalised(self) -> np.ndarray:
        return np.array([r / self.probe.slowness_at(k) for r, k in zip(self.raw_ms, self.kidx)])


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def run(spark, spec: Spec, seed: int, seconds: float, trace: bool, cached: dict, slots: int,
        spans_path: str | None = None) -> dict:
    from repro.traj import datasets

    tracer = Tracer(spans_path) if trace else None
    res: dict = {}
    phases: dict[str, float] = {}
    mark = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name], mark[0] = now - mark[0], now

    # 1. set-up
    if tracer is not None:
        tracer.wrap(datasets, "build_city", "traj.datasets.build_city")
    try:
        st, setup_times = timed_setups(spark, spec, seed)
    finally:
        if tracer is not None:
            tracer.restore()
    res["setup_s"] = statistics.median(setup_times)
    if tracer is not None:
        res["traj.datasets.build_city_s"] = statistics.median(
            s[2] - s[1] for s in tracer.spans if s[0] == "traj.datasets.build_city")
        tracer.flush()
    phase("setup")

    # 2. training probe, then the served models from the cache
    models = cached[spec.city]
    train = train_probe(st, models, tracer)
    res["train_traj_per_s"] = train["samples"] * train["slowness"] / train["wall_s"]
    res["train_traj_per_s_raw"] = train["samples"] / train["wall_s"]
    res["train_loss"] = train["final_loss"]
    res["train.slowness"] = train["slowness"]
    res["train.kernel_samples"] = train["kernel_samples"]
    if tracer is not None:
        _train_layers(tracer, res, train["samples"])
    served = make_served(spec, st, models)
    phase("train")

    # 3. warm-up; every pass gives the same output, so this one is scored
    out = spark_pass(spark, st.city, served)
    si = score_inputs(spark, spec.task, out)
    oracle = oracle_disagreements(spark, st, si)
    quality = score(spark, st, si)
    for k in ("accuracy", "mae_m", "route_f1"):
        res[k] = quality[k]
    phase("warm-up")

    # 4. measure
    lat = LatencyLog()
    passes = latency_passes(spec, len(st.latency_inputs), seconds)
    pass_s, pass_slow, tasks, scores, score_slow = [], [], [], [], []
    sc = spark.sparkContext
    for r in range(ROUNDS):
        sc.setJobGroup(f"pass-{r}", "timed pass")
        with hostspeed.Sampler() as speed:
            t0 = time.perf_counter()
            out = spark_pass(spark, st.city, served)
            pass_s.append(time.perf_counter() - t0)
        pass_slow.append(speed.slowness())
        tasks.append(spark_tasks(spark, f"pass-{r}"))
        if tracer is not None:
            sc.setJobGroup(f"score-{r}", "timed scoring")
            with hostspeed.Sampler() as speed:
                scores.append(score(spark, st, si))
            score_slow.append(speed.slowness())
        lat.block(served, st.latency_inputs[r::ROUNDS], passes)
    sc.setJobGroup("gate", "gate")
    n = len(st.inputs)
    res["traj_per_s"] = statistics.median(n * k / p for p, k in zip(pass_s, pass_slow))
    res["traj_per_s_raw"] = n / statistics.median(pass_s)
    res["_detail"] = {"pass_s": pass_s, "pass_slowness": pass_slow,
                      "score_s": [s["recovery_s"] + s["route_s"] for s in scores], "score_slowness": score_slow}
    norm = lat.normalised()
    res["latency_ms_p50"] = float(np.percentile(norm, 50))
    res["latency_ms_p95"] = float(np.percentile(norm, 95))
    res["latency_ms_p50_raw"] = float(np.percentile(lat.raw_ms, 50))
    res["latency_ms_p95_raw"] = float(np.percentile(lat.raw_ms, 95))
    res["latency_samples"] = len(lat.raw_ms)
    res["host.slowness"] = lat.probe.slowness()
    phase("measure")

    if tracer is not None:
        res["infer.spark_pass_s"] = statistics.median(pass_s)
        res["infer.tasks_per_pass"] = statistics.median(tasks)
        res["infer.broadcast_mb"] = len(pickle.dumps(served.obj, protocol=pickle.HIGHEST_PROTOCOL)) / 1e6
        compute_s = n * float(np.mean(lat.raw_ms)) / 1e3
        res["infer.spark_overhead_share"] = 1.0 - compute_s / (slots * statistics.median(pass_s))
        res["score_s"] = statistics.median((s["recovery_s"] + s["route_s"]) / k for s, k in zip(scores, score_slow))
        res["score_s_raw"] = statistics.median(s["recovery_s"] + s["route_s"] for s in scores)
        res["evalx.metrics.recovery_s"] = statistics.median(s["recovery_s"] for s in scores)
        res["evalx.metrics.route_s"] = statistics.median(s["route_s"] for s in scores)
        _trace_direct(tracer, res, served, st, models["allseg"] if spec.task == "recover" else None)
        _trace_distance(tracer, res, st, out)
        phase("traced")

    # 5. gate: the last timed pass against the direct calls
    gate = run_gate(served, st, {inp.traj_id: lat.outputs[inp.traj_id] for inp in st.inputs}, out)
    gate["disagreements"] += oracle
    res["traj_ok_share"] = (gate["attempted"] - gate["failed"]) / gate["attempted"]
    phase("gate")
    res["_phases"] = phases
    res["_gate"] = gate
    return res


# ---------------------------------------------------------------------------
# traced phases
# ---------------------------------------------------------------------------
def _train_layers(tracer: Tracer, res: dict, samples: int) -> None:
    """Per-sample self times of the training probe's layers."""
    selfs = tracer.self_times()
    by: dict[str, float] = {}
    for s, t in zip(tracer.spans, selfs):
        by[s[0]] = by.get(s[0], 0.0) + t
    res["mma.model.loss_ms"] = by.get("mma.model.loss", 0.0) * 1e3 / samples
    res["trmma.model.loss_ms"] = by.get("trmma.model.loss", 0.0) * 1e3 / samples
    res["nn.optim.step_ms"] = by.get("nn.optim.step", 0.0) * 1e3 / samples
    res["nn.autodiff.backward_ms"] = by.get("nn.autodiff.backward", 0.0) * 1e3 / samples
    res["nn.autodiff.tensors_per_traj"] = tracer.counts.get("nn.autodiff.tensors", 0.0) / samples
    tracer.flush()


def _install_direct_spans(tracer: Tracer) -> None:
    """Spans around each layer's public functions, wrapped where their
    callers look them up."""
    from repro.mma import baselines as mma_baselines
    from repro.mma import infer as mma_infer
    from repro.mma.model import MMAModel
    from repro.roadnet.graph import RoadNetwork
    from repro.roadnet.spatial_index import SegmentIndex
    from repro.trmma import infer as trmma_infer
    from repro.trmma.model import TRMMAModel

    tracer.wrap(SegmentIndex, "query", "roadnet.spatial_index.query")
    tracer.wrap(mma_baselines, "build_mma_sample", "mma.features.build")
    tracer.wrap(MMAModel, "predict", "mma.model.predict")
    tracer.wrap(RoadNetwork, "project", "roadnet.graph.project")
    tracer.wrap(trmma_infer, "stitch_route", "roadnet.routing.stitch")
    tracer.wrap(mma_infer, "stitch_route", "roadnet.routing.stitch")
    tracer.wrap(trmma_infer, "build_infer_sample", "trmma.features.infer_sample")
    tracer.wrap(TRMMAModel, "encode", "trmma.model.encode")
    tracer.wrap(TRMMAModel, "recover", "trmma.model.recover")


def _install_direct_counters(tracer: Tracer, st: Setup, c: dict) -> None:
    """Counters of the direct call: tensor constructions, planner calls and
    the fallback counters, each with its base."""
    from repro.mma import baselines as mma_baselines
    from repro.nn.autodiff import Tensor
    from repro.roadnet import routing
    from repro.trmma import infer as trmma_infer

    gt_obs = {inp.traj_id: inp.gt_seg[inp.idx] for inp in st.inputs}

    def topk(t, args, kwargs, sample):
        # true segment outside the top-k_c candidate set
        true = gt_obs[t.traj_id]
        for i in range(len(sample.cand)):
            c["points"] += 1
            c["topk_miss"] += int(true[i] not in sample.cand[i][sample.mask[i]])

    def plan(t, args, kwargs, out):
        c["plan_route_calls"] += 1
        c["unreachable_hops"] += int(out is None)

    def infer_sample(t, args, kwargs, s):
        c["samples"] += 1
        c["ticks_missing"] += s.n_ticks - len(s.obs_tick)
        c["route_len"] += len(s.route)
        # positions_in_route miss: the matched segment is not at its
        # position, or the position goes back
        prev = 0
        for p, seg in zip(s.obs_pos, s.obs_seg):
            c["positions"] += 1
            c["positions_miss"] += int(s.route[p] != seg or p < prev)
            prev = max(prev, int(p))

    tracer.count_calls(mma_baselines, "build_mma_sample", "mma.features.build", after=topk)
    tracer.count_calls(routing, "plan_route", "roadnet.routing.plan_route", after=plan)
    tracer.count_calls(trmma_infer, "build_infer_sample", "trmma.features.infer_sample", after=infer_sample)
    tracer.count_calls(Tensor, "__init__", "nn.autodiff.tensors")


DIRECT_LAYERS = {
    "trmma.model.decode_ms": "trmma.model.recover",
    "trmma.model.encode_ms": "trmma.model.encode",
    "trmma.features.infer_sample_ms": "trmma.features.infer_sample",
    "roadnet.routing.stitch_ms": "roadnet.routing.stitch",
    "roadnet.spatial_index.query_ms": "roadnet.spatial_index.query",
    "mma.features.build_ms": "mma.features.build",
    "mma.model.predict_ms": "mma.model.predict",
    "roadnet.graph.project_ms": "roadnet.graph.project",
}


def _trace_direct(tracer: Tracer, res: dict, served: Served, st: Setup, allseg) -> None:
    """Two passes over the test inputs, each input called once untraced and
    once traced, in alternating order, so host drift cancels out of
    ``trace.overhead_share``. Layer self times per trajectory come from the
    traced calls. On ``recover`` each traced call is followed by the
    RNTrajRec-style all-segment decoder ``allseg`` on the same input, so the
    Fig. 5 comparison pairs calls made at the same host speed. The counters
    run in a pass of their own, so their wrappers cost no timed span."""
    from collections import defaultdict

    from repro.trmma import baselines as B

    plain_s = traced_s = 0.0
    allseg_ticks = 0
    for rep in range(2):
        for i, inp in enumerate(st.inputs):
            for traced in ((False, True) if (i + rep) % 2 == 0 else (True, False)):
                if not traced:
                    t0 = time.perf_counter()
                    direct_call(served, inp)
                    plain_s += time.perf_counter() - t0
                    continue
                _install_direct_spans(tracer)
                if allseg is not None:
                    tracer.wrap(B._Seq2SegRecoverer, "_rollout", "trmma.baselines.allseg_rollout")
                    tracer.wrap(B.RNTrajRecRecoverer, "_encode", "trmma.baselines.allseg_encode")
                try:
                    t0 = time.perf_counter()
                    with tracer.root("direct", inp.traj_id):
                        direct_call(served, inp)
                    traced_s += time.perf_counter() - t0
                    if allseg is not None:
                        n_ticks = int(inp.idx[-1]) + 1
                        allseg_ticks += n_ticks
                        with tracer.root("allseg", inp.traj_id):
                            allseg.recover(inp.xs, inp.ys, inp.ts, inp.t0, inp.idx, n_ticks)
                finally:
                    tracer.restore()
    c: dict = defaultdict(int)
    _install_direct_counters(tracer, st, c)
    try:
        for inp in st.inputs:
            tracer.traj_id = inp.traj_id
            direct_call(served, inp)
    finally:
        tracer.traj_id = -1
        tracer.restore()
    by_self, wall, n = tracer.totals("direct")
    for metric, span in DIRECT_LAYERS.items():
        res[metric] = by_self.get(span, 0.0) * 1e3 / n
    m = len(st.inputs)
    res["trmma.model.decode_ms_per_tick"] = (
        res["trmma.model.decode_ms"] * m / c["ticks_missing"] if c["ticks_missing"] else 0.0)
    res["trmma.model.missing_ticks"] = c["ticks_missing"] / c["samples"] if c["samples"] else 0.0
    res["trmma.model.route_len"] = c["route_len"] / c["samples"] if c["samples"] else 0.0
    res["trmma.features.positions"] = c["positions"] / m
    res["trmma.features.positions_miss_share"] = c["positions_miss"] / c["positions"] if c["positions"] else 0.0
    res["mma.features.points"] = c["points"] / m
    res["mma.features.topk_miss_share"] = c["topk_miss"] / c["points"]
    res["roadnet.routing.plan_route_calls"] = c["plan_route_calls"] / m
    res["roadnet.routing.unreachable_hops"] = c["unreachable_hops"] / m
    res["nn.autodiff.tensors"] = tracer.counts["nn.autodiff.tensors"] / m
    res["trace.overhead_share"] = traced_s / plain_s - 1.0
    layers = sum(v for k, v in by_self.items() if k != "direct")
    res["trace.coverage_share"] = layers / wall
    res["trmma.baselines.allseg_decode_ms_per_tick"] = res["decode_speedup_vs_allseg"] = 0.0
    if allseg is not None:
        by_allseg, _, _ = tracer.totals("allseg")
        per_tick = by_allseg["trmma.baselines.allseg_rollout"] * 1e3 / allseg_ticks
        res["trmma.baselines.allseg_decode_ms_per_tick"] = per_tick
        res["decode_speedup_vs_allseg"] = per_tick / res["trmma.model.decode_ms_per_tick"]
    tracer.flush()


def _trace_distance(tracer: Tracer, res: dict, st: Setup, out: dict) -> None:
    """Replay, on the Spark driver, of the §VI-A network-distance metric over one
    pass's output, from a cold cache in one process (Spark workers keep
    their own caches and run untraced)."""
    from repro.roadnet.routing import NetworkDistance

    gt = st.gt_points.toPandas()
    pairs = out["points"].merge(gt, on=["traj_id", "idx"], suffixes=("_p", "_g"))
    rows = list(zip(pairs["seg_p"].astype(int), pairs["ratio_p"].astype(float),
                    pairs["seg_g"].astype(int), pairs["ratio_g"].astype(float)))
    nd = NetworkDistance(st.city.net)
    tracer.count_calls(NetworkDistance, "_sssp", "roadnet.routing.sssp_calls")
    try:
        for a, ra, b, rb in rows:
            nd.dist(a, ra, b, rb)
    finally:
        tracer.restore()
    calls = tracer.counts["roadnet.routing.sssp_calls"]
    res["roadnet.routing.sssp_runs"] = len(nd._cache)
    res["roadnet.routing.sssp_hit_share"] = 1.0 - len(nd._cache) / calls if calls else 0.0
    res["roadnet.routing.dist_calls"] = len(rows)
    res["roadnet.routing.inf_distance_fallbacks"] = sum(
        not np.isfinite(min(nd.directed(a, ra, b, rb), nd.directed(b, rb, a, ra))) for a, ra, b, rb in rows)
    tracer.flush()
