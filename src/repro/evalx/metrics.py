"""§VI-A evaluation metrics in Spark.

Two families:

* **Trajectory recovery** (Table III): per-trajectory Recall / Precision /
  F1 over recovered segment sets, point-wise Accuracy, and MAE / RMSE of the
  road-network distance between recovered and ground-truth map-matched
  points. Network distances need the road graph, so the per-trajectory pass
  runs in ``mapInPandas`` over ``traj_id``-sorted partitions
  (:func:`repro.traj.datasets.map_trajectories`) with the
  :class:`repro.roadnet.graph.RoadNetwork` shipped via a Spark broadcast
  and a per-worker Dijkstra cache.
* **Map matching** (Table V): per-trajectory Precision / Recall / F1 /
  Jaccard over route segment sets, expressed in pure Spark SQL (distinct +
  joins + aggregation).

Note on formulas: the paper's printed Recall/Precision in §VI-A are swapped
relative to convention; we use the conventional direction
(``precision = |S∩Ŝ|/|S_pred|``, ``recall = |S∩Ŝ|/|S_gt|``) for both tasks.
Final per-dataset numbers are the mean of per-trajectory scores, exactly as
the paper averages over testing trajectories (:func:`aggregate_means`).
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import network_distance_for
from repro.traj.datasets import map_trajectories


RECOVERY_METRIC_COLS = ["recall", "precision", "f1", "accuracy", "mae", "rmse"]


def recovery_metrics_per_traj(
    spark: SparkSession,
    pred: DataFrame,
    gt: DataFrame,
    net: RoadNetwork,
) -> DataFrame:
    """Per-trajectory recovery metrics.

    ``pred`` columns: traj_id, idx, seg, ratio — one row per ε tick.
    ``gt`` columns: traj_id, idx, seg, ratio (the ground-truth ``T_ε``).
    Ticks are aligned on (traj_id, idx); an inner join drops nothing when
    the recovery harness emits every tick, and tests assert the counts.
    """
    bc = spark.sparkContext.broadcast(net)
    joined = (
        pred.select("traj_id", "idx", F.col("seg").alias("pseg"), F.col("ratio").alias("pratio"))
        .join(
            gt.select("traj_id", "idx", F.col("seg").alias("gseg"), F.col("ratio").alias("gratio")),
            on=["traj_id", "idx"],
        )
    )

    schema = (
        "traj_id long, recall double, precision double, f1 double, "
        "accuracy double, mae double, rmse double"
    )

    def per_traj(tid, pdf):
        nd = network_distance_for(bc.value)
        ps = pdf["pseg"].to_numpy(np.int64)
        gs = pdf["gseg"].to_numpy(np.int64)
        pr = pdf["pratio"].to_numpy(np.float64)
        gr = pdf["gratio"].to_numpy(np.float64)
        sp, sg = set(ps.tolist()), set(gs.tolist())
        inter = len(sp & sg)
        prec = inter / len(sp)
        rec = inter / len(sg)
        f1 = 0.0 if prec + rec == 0 else 2 * prec * rec / (prec + rec)
        acc = float((ps == gs).mean())
        d = np.array([nd.dist(int(a), float(b), int(c), float(e)) for a, b, c, e in zip(ps, pr, gs, gr)])
        return pd.DataFrame(
            {
                "traj_id": [tid],
                "recall": [rec],
                "precision": [prec],
                "f1": [f1],
                "accuracy": [acc],
                "mae": [float(np.abs(d).mean())],
                "rmse": [float(np.sqrt((d**2).mean()))],
            }
        )

    return map_trajectories(joined, per_traj, schema)


def route_metrics_per_traj(pred_routes: DataFrame, gt_routes: DataFrame) -> DataFrame:
    """Per-trajectory map-matching metrics (Table V) in pure Spark SQL.

    ``pred_routes``/``gt_routes`` columns: traj_id, seg (position order is
    irrelevant for set metrics). Trajectories missing from ``pred_routes``
    score zero precision/recall (outer join from the GT side).
    """
    p = pred_routes.select("traj_id", "seg").distinct()
    g = gt_routes.select("traj_id", "seg").distinct()
    np_ = p.groupBy("traj_id").agg(F.count("*").alias("n_pred"))
    ng = g.groupBy("traj_id").agg(F.count("*").alias("n_gt"))
    ni = (
        p.join(g, on=["traj_id", "seg"])
        .groupBy("traj_id")
        .agg(F.count("*").alias("n_int"))
    )
    out = (
        ng.join(np_, on="traj_id", how="left")
        .join(ni, on="traj_id", how="left")
        .fillna(0, subset=["n_pred", "n_int"])
        .select(
            "traj_id",
            (F.col("n_int") / F.greatest(F.col("n_pred"), F.lit(1))).alias("precision"),
            (F.col("n_int") / F.col("n_gt")).alias("recall"),
            (F.col("n_int") / (F.col("n_pred") + F.col("n_gt") - F.col("n_int"))).alias("jaccard"),
        )
    )
    return out.withColumn(
        "f1",
        F.when(F.col("precision") + F.col("recall") > 0,
               2 * F.col("precision") * F.col("recall") / (F.col("precision") + F.col("recall"))
               ).otherwise(F.lit(0.0)),
    )


def aggregate_means(per_traj: DataFrame, cols: list[str]) -> dict[str, float]:
    """Dataset-level score = mean of per-trajectory scores (§VI-A).

    The columns are collected to the driver and summed with ``math.fsum``,
    which is correctly rounded, so the means do not depend on the frame's
    row order or partition layout (Spark's ``avg`` sums in partition
    order)."""
    pdf = per_traj.select(*cols).toPandas()
    return {c: math.fsum(pdf[c].tolist()) / len(pdf) for c in cols}
