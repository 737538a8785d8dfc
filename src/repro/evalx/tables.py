"""Harnesses regenerating the paper's evaluation tables (II–V).

Each ``tableN_city`` function trains what it needs for one city, runs
Spark-batched inference over the test split, computes §VI-A metrics, and
returns ``{row: {metric: value}}``. :func:`per_city` runs one of them over
several cities, giving ``{city: {row: {metric: value}}}``; the jobs in
``jobs/`` persist that as JSON + markdown under ``reports/``.

The paper's published numbers are embedded as ``PAPER_TABLE*`` so reports
can print paper-vs-ours side by side.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession, Window
from pyspark.sql import functions as F

from repro.evalx.metrics import (
    RECOVERY_METRIC_COLS,
    aggregate_means,
    recovery_metrics_per_traj,
    route_metrics_per_traj,
)
from repro.mma.baselines import (
    DeepMMMatcher,
    GraphMMMatcher,
    HMMMatcher,
    LHMMMatcher,
    MMAMatcher,
    NearestMatcher,
    RNTrajRecRouteMatcher,
)
from repro.mma.infer import run_matcher
from repro.mma.train import train_mma
from repro.roadnet.node2vec import node2vec_embeddings
from repro.roadnet.routing import HistoricalCosts
from repro.traj.datasets import CityData, build_city
from repro.trmma.ablations import train_ablation_suite
from repro.trmma.baselines import (
    DHTRRecoverer,
    LinearRecoverer,
    MMSTGEDRecoverer,
    MTrajRecRecoverer,
    RNTrajRecRecoverer,
    ST2VecDecRecoverer,
    TERIRecoverer,
    TrajCLDecRecoverer,
    TrajGATDecRecoverer,
)
from repro.trmma.infer import TRMMARecoverer, run_recovery
from repro.trmma.train import train_mma_trmma

DEFAULT_CITIES = ("pt", "xa", "bj", "cd")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------
def historical_costs(city: CityData) -> np.ndarray:
    """DA-lite planner costs from the train split's routes (§VI-A: the same
    route planner is used for every method)."""
    pdf = city.routes.filter(F.col("split") == "train").toPandas()
    routes = [g.sort_values("pos")["seg"].to_numpy() for _, g in pdf.groupby("traj_id")]
    return HistoricalCosts(city.net, routes).cost


def gt_recovery_frame(city: CityData, split: str = "test"):
    return city.points.filter(F.col("split") == split).select("traj_id", "idx", "seg", "ratio")


def gt_route_frame(city: CityData, split: str = "test"):
    return city.routes.filter(F.col("split") == split).select("traj_id", "seg")


def per_city(spark: SparkSession, city_fn, n_traj: int = 700, cities=DEFAULT_CITIES,
             seed: int = 0) -> dict:
    """``{city: city_fn(city)}``: build each city's dataset, run one table's
    ``city_fn`` on it, then drop the dataset's cached frames."""
    out = {}
    for c in cities:
        city = build_city(spark, c, n_traj=n_traj, seed=seed)
        out[c] = city_fn(city)
        city.points.unpersist()
        city.routes.unpersist()
    return out


def table_markdown(data: dict, metrics: list[str], scale: float = 100.0, fmt: str = ".2f") -> str:
    """Render {city: {row: {metric: val}}} as one markdown table per city."""
    out = []
    for cityname, rows in data.items():
        out.append(f"\n**{cityname.upper()}**\n")
        out.append("| Method | " + " | ".join(m.capitalize() for m in metrics) + " |")
        out.append("|" + "---|" * (len(metrics) + 1))
        for rowname, vals in rows.items():
            cells = []
            for m in metrics:
                v = vals.get(m)
                if v is None:
                    cells.append("-")
                elif m in ("mae", "rmse"):
                    cells.append(f"{v:{fmt.replace('2', '1')}}")
                else:
                    cells.append(f"{v * scale:{fmt}}")
            out.append(f"| {rowname} | " + " | ".join(cells) + " |")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Table II — dataset statistics
# ---------------------------------------------------------------------------
def table2_city(city: CityData) -> dict:
    """Dataset statistics via Spark SQL (Table II rows)."""
    pts = city.points
    per_traj = pts.groupBy("traj_id").agg(
        F.count("*").alias("n_points"),
        F.max("t").alias("travel_time"),
    )
    agg = per_traj.agg(
        F.count("*").alias("n_traj"),
        F.avg("n_points").alias("avg_points"),
        F.avg("travel_time").alias("avg_travel_time"),
    ).collect()[0]
    # trajectory length via consecutive true-point distances (window lead)
    win = Window.partitionBy("traj_id").orderBy("idx")
    seglen = (
        pts.select(
            "traj_id",
            "tx",
            "ty",
            F.lead("tx").over(win).alias("nx"),
            F.lead("ty").over(win).alias("ny"),
        )
        .where(F.col("nx").isNotNull())
        .select(
            "traj_id",
            F.sqrt((F.col("tx") - F.col("nx")) ** 2 + (F.col("ty") - F.col("ny")) ** 2).alias("d"),
        )
        .groupBy("traj_id")
        .agg(F.sum("d").alias("len"))
        .agg(F.avg("len").alias("avg_len"))
        .collect()[0]
    )
    x0, y0, x1, y1 = city.net.bbox()
    return {
        "n_trajectories": int(agg["n_traj"]),
        "eps_s": city.eps,
        "avg_points": float(agg["avg_points"]),
        "avg_length_m": float(seglen["avg_len"]),
        "avg_travel_time_s": float(agg["avg_travel_time"]),
        "area_km2": f"{(x1 - x0) / 1000:.1f} x {(y1 - y0) / 1000:.1f}",
        "n_segments": city.net.n_segments,
        "n_intersections": city.net.n_nodes,
    }


# ---------------------------------------------------------------------------
# Table V — map matching effectiveness
# ---------------------------------------------------------------------------
ROUTE_METRIC_COLS = ["precision", "recall", "f1", "jaccard"]


def build_matchers(city: CityData, seed: int = 0, epochs: int = 8, verbose: bool = False,
                   mma_augment: int = 900, deepmm_augment: int = 400) -> dict:
    """Train/construct the 7 map-matching methods of Table V.

    Cheap-to-train methods (MMA, DeepMM) draw extra simulated historical
    trajectories — see :func:`repro.mma.train.augmented_trajs`."""
    net, index, norm = city.net, city.index, city.norm
    n2v = node2vec_embeddings(net, d=32, seed=seed)
    mma_model = train_mma(city, epochs=epochs, seed=seed, n2v=n2v, augment=mma_augment,
                          verbose=verbose)
    return {
        "Nearest": NearestMatcher(net, index, norm),
        "FMM": HMMMatcher(net, index, norm),
        "LHMM": LHMMMatcher(net, index, norm, LHMMMatcher.fit_emission(city)),
        "RNTrajRec": RNTrajRecRouteMatcher(net, index, norm, seed=seed).fit(city, epochs=epochs),
        "DeepMM": DeepMMMatcher(net, index, norm, seed=seed).fit(city, epochs=epochs,
                                                                 augment=deepmm_augment),
        "GraphMM": GraphMMMatcher(net, index, norm, seed=seed).fit(city),
        "MMA": MMAMatcher(net, index, norm, mma_model),
    }


def table5_city(spark: SparkSession, city: CityData, seed: int = 0, epochs: int = 8,
                matchers: dict | None = None, verbose: bool = False) -> dict:
    costs = historical_costs(city)
    gt = gt_route_frame(city)
    matchers = matchers or build_matchers(city, seed=seed, epochs=epochs, verbose=verbose)
    out = {}
    for name, m in matchers.items():
        res = run_matcher(spark, city, m, split="test", costs=costs)
        out[name] = aggregate_means(route_metrics_per_traj(res.routes, gt), ROUTE_METRIC_COLS)
    return out


# ---------------------------------------------------------------------------
# Table III — trajectory recovery effectiveness
# ---------------------------------------------------------------------------
def build_recoverers(city: CityData, seed: int = 0, epochs: int = 4, mma_epochs: int = 8,
                     trmma_epochs: int = 4, mma_augment: int = 800, trmma_augment: int = 250,
                     verbose: bool = False) -> dict:
    """Train/construct the 10 recovery methods of Table III."""
    net, index, norm, eps = city.net, city.index, city.norm, city.eps
    costs = historical_costs(city)
    core = train_mma_trmma(city, seed=seed, mma_epochs=mma_epochs, trmma_epochs=trmma_epochs,
                           mma_augment=mma_augment, trmma_augment=trmma_augment, verbose=verbose)

    def fitted(cls):
        return cls(net, index, norm, eps, seed=seed).fit(city, epochs=epochs, verbose=verbose)

    return {
        "Linear": LinearRecoverer(HMMMatcher(net, index, norm), eps, costs=costs),
        "DHTR": fitted(DHTRRecoverer),
        "TERI": fitted(TERIRecoverer),
        "TrajGAT+Dec": fitted(TrajGATDecRecoverer),
        "TrajCL+Dec": fitted(TrajCLDecRecoverer),
        "ST2Vec+Dec": fitted(ST2VecDecRecoverer),
        "MTrajRec": fitted(MTrajRecRecoverer),
        "MM-STGED": fitted(MMSTGEDRecoverer),
        "RNTrajRec": fitted(RNTrajRecRecoverer),
        "TRMMA": TRMMARecoverer(MMAMatcher(net, index, norm, core.mma), core.trmma,
                                norm, eps, costs=costs, time_per_meter=core.time_per_meter),
    }


def _recovery_table(spark: SparkSession, city: CityData, recoverers: dict, metrics: list[str],
                    tag: str, verbose: bool) -> dict:
    """Run each recoverer over the test split; per method, the mean of ``metrics``."""
    gt = gt_recovery_frame(city)
    out = {}
    for name, rec in recoverers.items():
        pred = run_recovery(spark, city, rec, split="test")
        out[name] = aggregate_means(recovery_metrics_per_traj(spark, pred, gt, city.net), metrics)
        if verbose:
            print(f"[{tag}:{city.name}] {name}: {out[name]}")
    return out


def table3_city(spark: SparkSession, city: CityData, seed: int = 0, epochs: int = 4,
                recoverers: dict | None = None, verbose: bool = False) -> dict:
    recoverers = recoverers or build_recoverers(city, seed=seed, epochs=epochs, verbose=verbose)
    return _recovery_table(spark, city, recoverers, RECOVERY_METRIC_COLS, "table3", verbose)


# ---------------------------------------------------------------------------
# Table IV — TRMMA ablation (accuracy only)
# ---------------------------------------------------------------------------
def table4_city(spark: SparkSession, city: CityData, seed: int = 0, verbose: bool = False,
                recoverers: dict | None = None) -> dict:
    recoverers = recoverers or train_ablation_suite(city, seed=seed, costs=historical_costs(city),
                                                    verbose=verbose)
    return _recovery_table(spark, city, recoverers, ["accuracy"], "table4", verbose)


# ---------------------------------------------------------------------------
# Paper numbers (for EXPERIMENTS.md side-by-side)
# ---------------------------------------------------------------------------
PAPER_TABLE3 = {
    "pt": {
        "Linear": dict(recall=66.42, precision=65.85, f1=65.83, accuracy=39.54, mae=127.6, rmse=170.1),
        "DHTR": dict(recall=69.84, precision=73.96, f1=71.52, accuracy=47.92, mae=135.4, rmse=181.7),
        "TERI": dict(recall=67.76, precision=72.11, f1=69.35, accuracy=43.23, mae=180.5, rmse=249.6),
        "TrajGAT+Dec": dict(recall=56.44, precision=74.21, f1=63.45, accuracy=39.83, mae=188.6, rmse=251.8),
        "TrajCL+Dec": dict(recall=60.11, precision=77.61, f1=67.18, accuracy=43.67, mae=152.2, rmse=204.8),
        "ST2Vec+Dec": dict(recall=61.49, precision=76.99, f1=67.80, accuracy=43.59, mae=149.1, rmse=200.1),
        "MTrajRec": dict(recall=66.24, precision=77.33, f1=70.93, accuracy=49.72, mae=112.1, rmse=151.5),
        "MM-STGED": dict(recall=67.52, precision=78.54, f1=72.19, accuracy=50.19, mae=112.9, rmse=153.8),
        "RNTrajRec": dict(recall=67.29, precision=79.52, f1=72.48, accuracy=52.22, mae=102.6, rmse=140.6),
        "TRMMA": dict(recall=72.07, precision=80.92, f1=75.87, accuracy=57.83, mae=84.10, rmse=121.8),
    },
    "xa": {
        "Linear": dict(recall=85.65, precision=86.58, f1=85.73, accuracy=66.26, mae=94.2, rmse=127.1),
        "DHTR": dict(recall=85.91, precision=91.92, f1=88.47, accuracy=69.39, mae=162.2, rmse=211.2),
        "TERI": dict(recall=83.32, precision=90.59, f1=86.15, accuracy=60.73, mae=222.5, rmse=301.2),
        "TrajGAT+Dec": dict(recall=75.06, precision=88.78, f1=80.25, accuracy=60.37, mae=203.3, rmse=265.1),
        "TrajCL+Dec": dict(recall=75.76, precision=89.01, f1=80.99, accuracy=62.56, mae=154.9, rmse=204.4),
        "ST2Vec+Dec": dict(recall=76.38, precision=87.58, f1=80.69, accuracy=62.35, mae=158.1, rmse=207.7),
        "MTrajRec": dict(recall=82.58, precision=92.18, f1=86.65, accuracy=71.19, mae=105.9, rmse=140.3),
        "MM-STGED": dict(recall=84.01, precision=93.26, f1=87.94, accuracy=73.69, mae=98.4, rmse=132.8),
        "RNTrajRec": dict(recall=84.73, precision=93.76, f1=88.61, accuracy=74.79, mae=93.1, rmse=126.5),
        "TRMMA": dict(recall=86.89, precision=95.09, f1=90.44, accuracy=78.95, mae=68.1, rmse=103.1),
    },
    "bj": {
        "Linear": dict(recall=50.28, precision=54.13, f1=51.54, accuracy=37.35, mae=325.5, rmse=431.3),
        "DHTR": dict(recall=54.41, precision=59.61, f1=56.16, accuracy=43.77, mae=486.7, rmse=629.4),
        "TERI": dict(recall=56.61, precision=59.34, f1=57.23, accuracy=44.34, mae=451.5, rmse=592.1),
        "TrajGAT+Dec": dict(recall=47.95, precision=58.64, f1=51.29, accuracy=39.41, mae=476.5, rmse=605.4),
        "TrajCL+Dec": dict(recall=52.63, precision=64.39, f1=57.02, accuracy=43.04, mae=397.1, rmse=509.2),
        "ST2Vec+Dec": dict(recall=51.36, precision=62.98, f1=55.67, accuracy=41.89, mae=423.5, rmse=543.3),
        "MTrajRec": dict(recall=53.35, precision=62.44, f1=56.68, accuracy=43.58, mae=375.1, rmse=477.2),
        "MM-STGED": dict(recall=55.49, precision=62.98, f1=58.19, accuracy=45.21, mae=415.4, rmse=551.3),
        "RNTrajRec": dict(recall=55.39, precision=64.38, f1=58.78, accuracy=46.22, mae=318.2, rmse=413.7),
        "TRMMA": dict(recall=62.15, precision=66.53, f1=63.62, accuracy=53.71, mae=234.3, rmse=327.1),
    },
    "cd": {
        "Linear": dict(recall=82.66, precision=81.82, f1=81.77, accuracy=58.17, mae=106.2, rmse=141.5),
        "DHTR": dict(recall=83.14, precision=87.22, f1=84.68, accuracy=63.84, mae=168.3, rmse=222.3),
        "TERI": dict(recall=81.62, precision=86.07, f1=83.15, accuracy=57.99, mae=216.6, rmse=294.7),
        "TrajGAT+Dec": dict(recall=74.42, precision=87.56, f1=80.05, accuracy=57.95, mae=200.4, rmse=264.2),
        "TrajCL+Dec": dict(recall=75.12, precision=87.79, f1=80.11, accuracy=60.14, mae=152.6, rmse=204.3),
        "ST2Vec+Dec": dict(recall=75.46, precision=88.18, f1=80.49, accuracy=60.43, mae=155.1, rmse=206.9),
        "MTrajRec": dict(recall=83.34, precision=91.24, f1=86.65, accuracy=68.42, mae=104.8, rmse=141.1),
        "MM-STGED": dict(recall=83.81, precision=92.01, f1=87.25, accuracy=69.78, mae=103.1, rmse=140.5),
        "RNTrajRec": dict(recall=84.17, precision=93.26, f1=88.05, accuracy=71.78, mae=95.1, rmse=131.8),
        "TRMMA": dict(recall=85.86, precision=93.95, f1=89.29, accuracy=75.28, mae=75.1, rmse=114.7),
    },
}

PAPER_TABLE4 = {
    "pt": {"TRMMA": 57.83, "TRMMA-HMM": 53.54, "TRMMA-Near": 47.01, "MMA+linear": 43.74,
           "Nearest+linear": 35.45, "TRMMA-DF": 54.83, "TRMMA-C": 56.85, "TRMMA-DI": 51.02},
    "xa": {"TRMMA": 78.95, "TRMMA-HMM": 76.81, "TRMMA-Near": 65.81, "MMA+linear": 68.99,
           "Nearest+linear": 58.03, "TRMMA-DF": 77.62, "TRMMA-C": 78.63, "TRMMA-DI": 71.47},
    "bj": {"TRMMA": 53.71, "TRMMA-HMM": 49.57, "TRMMA-Near": 43.66, "MMA+linear": 41.72,
           "Nearest+linear": 33.97, "TRMMA-DF": 50.73, "TRMMA-C": 52.13, "TRMMA-DI": 45.83},
    "cd": {"TRMMA": 75.28, "TRMMA-HMM": 70.63, "TRMMA-Near": 56.22, "MMA+linear": 62.82,
           "Nearest+linear": 47.61, "TRMMA-DF": 73.91, "TRMMA-C": 74.96, "TRMMA-DI": 69.15},
}

PAPER_TABLE5 = {
    "pt": {
        "Nearest": dict(precision=80.42, recall=85.42, f1=82.42, jaccard=74.55),
        "FMM": dict(precision=86.34, recall=83.71, f1=84.74, jaccard=78.08),
        "LHMM": dict(precision=89.80, recall=87.06, f1=88.20, jaccard=82.37),
        "RNTrajRec": dict(precision=89.70, recall=89.46, f1=89.10, jaccard=84.29),
        "DeepMM": dict(precision=91.34, recall=90.95, f1=90.88, jaccard=86.22),
        "GraphMM": dict(precision=87.01, recall=88.84, f1=87.26, jaccard=79.13),
        "MMA": dict(precision=94.46, recall=94.53, f1=94.35, jaccard=91.53),
    },
    "xa": {
        "Nearest": dict(precision=79.01, recall=89.79, f1=82.69, jaccard=75.03),
        "FMM": dict(precision=93.60, recall=91.85, f1=92.49, jaccard=88.84),
        "LHMM": dict(precision=95.53, recall=94.14, f1=94.62, jaccard=91.84),
        "RNTrajRec": dict(precision=93.15, recall=94.10, f1=93.03, jaccard=89.73),
        "DeepMM": dict(precision=95.40, recall=95.14, f1=95.06, jaccard=92.23),
        "GraphMM": dict(precision=92.84, recall=94.62, f1=92.75, jaccard=87.06),
        "MMA": dict(precision=97.20, recall=97.97, f1=97.36, jaccard=95.97),
    },
    "bj": {
        "Nearest": dict(precision=66.81, recall=71.86, f1=68.20, jaccard=59.93),
        "FMM": dict(precision=72.51, recall=70.36, f1=70.69, jaccard=63.82),
        "LHMM": dict(precision=75.30, recall=72.35, f1=73.08, jaccard=65.34),
        "RNTrajRec": dict(precision=78.82, recall=76.64, f1=76.80, jaccard=70.30),
        "DeepMM": dict(precision=78.29, recall=77.66, f1=76.99, jaccard=69.41),
        "GraphMM": dict(precision=75.39, recall=73.84, f1=72.32, jaccard=62.82),
        "MMA": dict(precision=82.17, recall=81.08, f1=80.92, jaccard=75.28),
    },
    "cd": {
        "Nearest": dict(precision=72.29, recall=87.24, f1=77.32, jaccard=69.10),
        "FMM": dict(precision=89.14, recall=88.39, f1=88.34, jaccard=83.94),
        "LHMM": dict(precision=91.19, recall=90.69, f1=90.57, jaccard=87.10),
        "RNTrajRec": dict(precision=89.46, recall=91.17, f1=89.45, jaccard=85.48),
        "DeepMM": dict(precision=94.99, recall=94.67, f1=94.58, jaccard=91.54),
        "GraphMM": dict(precision=88.53, recall=92.56, f1=89.31, jaccard=82.23),
        "MMA": dict(precision=96.27, recall=97.51, f1=96.54, jaccard=94.94),
    },
}

PAPER_TABLE2 = {
    "pt": dict(n_trajectories=1013437, eps_s=15, avg_points=40.21, avg_length_m=4180.41,
               avg_travel_time_s=585.12, area_km2="11.7 x 5.2", n_segments=11491, n_intersections=5330),
    "xa": dict(n_trajectories=1426950, eps_s=12, avg_points=69.36, avg_length_m=5049.27,
               avg_travel_time_s=816.44, area_km2="9.1 x 8.5", n_segments=5699, n_intersections=2579),
    "bj": dict(n_trajectories=1176097, eps_s=60, avg_points=31.59, avg_length_m=6494.78,
               avg_travel_time_s=845.95, area_km2="29.6 x 30.0", n_segments=65276, n_intersections=28738),
    "cd": dict(n_trajectories=2382422, eps_s=12, avg_points=54.32, avg_length_m=4397.41,
               avg_travel_time_s=636.37, area_km2="10.4 x 10.8", n_segments=9255, n_intersections=3973),
}
