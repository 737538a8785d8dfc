"""§VI-A evaluation metrics in Spark.

Both families score each trajectory in one pass (:func:`_score_per_traj`):
prediction and ground-truth rows are tagged with their side, unioned, and
handed per trajectory to a scorer in ``mapInPandas`` over ``traj_id``-sorted
partitions (:func:`repro.traj.datasets.map_trajectories`). The ground-truth
side defines the trajectories scored; one that only the prediction holds
yields no row. Set metrics come from the one formula, :func:`set_scores`.
Recovery scores the ticks both sides hold (see
:func:`recovery_metrics_per_traj`).

* **Trajectory recovery** (Table III): per-trajectory Recall / Precision /
  F1 over recovered segment sets, point-wise Accuracy, and MAE / RMSE of the
  road-network distance between recovered and ground-truth map-matched
  points, with the :class:`repro.roadnet.graph.RoadNetwork` shipped via a
  Spark broadcast and a per-worker Dijkstra cache.
* **Map matching** (Table V): per-trajectory Precision / Recall / F1 /
  Jaccard over route segment sets.

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


def set_scores(pred_segs, gt_segs) -> tuple[float, float, float, float]:
    """``(precision, recall, f1, jaccard)`` of the predicted segments against
    the (non-empty) ground-truth ones; duplicates are ignored, and an empty
    prediction scores 0 on all four."""
    p, g = set(pred_segs), set(gt_segs)
    n_int = len(p & g)
    precision = n_int / max(len(p), 1)
    recall = n_int / len(g)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1, n_int / (len(p) + len(g) - n_int)


def _score_per_traj(pred: DataFrame, gt: DataFrame, cols: list, score, out_cols: list[str]) -> DataFrame:
    """``score(pred_rows, gt_rows)`` -> the ``out_cols`` values of one
    trajectory (or ``None`` for no row), for every trajectory ``gt`` holds,
    in one :func:`map_trajectories` pass over the tagged union of ``pred``
    and ``gt`` (``traj_id`` plus ``cols``, which must include an ``idx``)."""
    both = (pred.select("traj_id", *cols, F.lit(False).alias("is_gt"))
            .unionByName(gt.select("traj_id", *cols, F.lit(True).alias("is_gt"))))
    header = ["traj_id", *out_cols]
    none = pd.DataFrame({c: np.zeros(0, np.int64 if c == "traj_id" else np.float64) for c in header})

    def per_traj(tid, pdf):
        is_gt = pdf["is_gt"].to_numpy()
        row = score(pdf[~is_gt], pdf[is_gt]) if is_gt.any() else None
        return none if row is None else pd.DataFrame([(tid, *row)], columns=header)

    schema = ", ".join(f"{c} {'long' if c == 'traj_id' else 'double'}" for c in header)
    return map_trajectories(both, per_traj, schema)


def recovery_metrics_per_traj(
    spark: SparkSession,
    pred: DataFrame,
    gt: DataFrame,
    net: RoadNetwork,
) -> DataFrame:
    """Per-trajectory recovery metrics.

    ``pred`` columns: traj_id, idx, seg, ratio — one row per ε tick.
    ``gt`` columns: traj_id, idx, seg, ratio (the ground-truth ``T_ε``).
    Ticks align on ``idx``, and only the ticks both sides hold are scored
    (an inner merge inside the trajectory's task); a trajectory with no
    such tick yields no row. A matcher's prediction holds only the
    observed ticks, so it is scored on those.
    """
    bc = spark.sparkContext.broadcast(net)
    cols = ["idx", "seg", "ratio"]

    def scores(p, g):
        m = p[cols].merge(g[cols], on="idx", suffixes=("_p", "_g"))
        if m.empty:
            return None
        nd = network_distance_for(bc.value)
        prec, rec, f1, _ = set_scores(m["seg_p"].tolist(), m["seg_g"].tolist())
        d = np.array([nd.dist(int(a), float(b), int(c), float(e))
                      for a, b, c, e in zip(m["seg_p"], m["ratio_p"], m["seg_g"], m["ratio_g"])])
        acc = float((m["seg_p"] == m["seg_g"]).mean())
        return rec, prec, f1, acc, float(np.abs(d).mean()), float(np.sqrt((d**2).mean()))

    return _score_per_traj(pred, gt, cols, scores, RECOVERY_METRIC_COLS)


def route_metrics_per_traj(pred_routes: DataFrame, gt_routes: DataFrame) -> DataFrame:
    """Per-trajectory map-matching metrics (Table V).

    ``pred_routes``/``gt_routes`` columns: traj_id, seg (position order is
    irrelevant for set metrics). A trajectory missing from ``pred_routes``
    scores zero.
    """
    def scores(p, g):
        precision, recall, f1, jaccard = set_scores(p["seg"].tolist(), g["seg"].tolist())
        return precision, recall, jaccard, f1

    # routes carry no tick index; a constant one meets map_trajectories' sort
    return _score_per_traj(pred_routes, gt_routes, ["seg", F.lit(0).alias("idx")], scores,
                           ["precision", "recall", "jaccard", "f1"])


def aggregate_means(per_traj: DataFrame, cols: list[str]) -> dict[str, float]:
    """Dataset-level score = mean of per-trajectory scores (§VI-A).

    The columns are collected to the driver and summed with ``math.fsum``,
    which is correctly rounded, so the means do not depend on the frame's
    row order or partition layout (Spark's ``avg`` sums in partition
    order)."""
    pdf = per_traj.select(*cols).toPandas()
    return {c: math.fsum(pdf[c].tolist()) / len(pdf) for c in cols}
