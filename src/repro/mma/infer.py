"""Spark-batched map-matching inference.

This is the ``single_node_parallelizable`` layering the reproduction hint
prescribes: the model-heavy per-trajectory computation runs inside
``mapInPandas`` over ``traj_id``-sorted partitions, one Python task per
Spark slot (:func:`repro.traj.datasets.map_trajectories`), with the
matcher (model weights + road network + spatial index) shipped once per
executor via broadcast. :func:`run_per_trajectory` is that plumbing; this
module's :func:`run_matcher` and :func:`repro.trmma.infer.run_recovery`
both run on it.

One pass per matcher produces both outputs of Algorithm 1
(:func:`match_and_stitch`, once per trajectory):
* matched points — (traj_id, idx, seg, ratio), the per-GPS-point segments
  (with projected position ratios, Alg. 2 lines 2-4), and
* routes — (traj_id, pos, seg), the stitched route ``R``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.roadnet.routing import stitch_route
from repro.traj.datasets import CityData, map_trajectories

_COMBINED_SCHEMA = "traj_id long, kind string, ord long, idx long, seg long, ratio double"


@dataclass
class MatchResult:
    """Matched points + stitched routes of one matcher over the test split,
    both read from one cached pass."""

    points: DataFrame  # traj_id, idx, seg, ratio
    routes: DataFrame  # traj_id, pos, seg
    combined: DataFrame  # the cached pass (_COMBINED_SCHEMA)

    def unpersist(self) -> None:
        """Drop the cached pass once ``points`` and ``routes`` are read."""
        self.combined.unpersist()


def match_and_stitch(matcher, xs, ys, ts, t0, costs):
    """Algorithm 1 for one sparse trajectory.

    Returns ``(segs, ratios, route)``: the matched segment of each point,
    its projected position ratio on that segment (Alg. 2 lines 2-4), and
    the route stitched through the matched segments with ``costs``
    (Alg. 1 line 12; ``None`` means plain shortest path). The Spark runner,
    TRMMA (Alg. 2 line 1) and the Linear baselines all call this.
    """
    net = matcher.net
    segs = matcher.match(xs, ys, ts, t0)
    ratios = np.array([net.project(float(x), float(y), int(s))[0] for x, y, s in zip(xs, ys, segs)])
    route = np.array(stitch_route(net, [int(s) for s in segs], costs), dtype=np.int64)
    return segs, ratios, route


def run_per_trajectory(spark: SparkSession, city: CityData, env, fn, schema: str) -> DataFrame:
    """``fn(env, traj_id, idxs, xs, ys, ts, t0) -> pd.DataFrame`` applied to
    the observed points of every test trajectory, in ``idx`` order,
    through :func:`repro.traj.datasets.map_trajectories` with output
    ``schema``; ``env`` is broadcast once."""
    obs = city.points.filter((F.col("split") == "test") & F.col("observed"))
    bc = spark.sparkContext.broadcast(env)

    def per_traj(tid, pdf):
        return fn(
            bc.value,
            tid,
            pdf["idx"].to_numpy(np.int64),
            pdf["x"].to_numpy(np.float64),
            pdf["y"].to_numpy(np.float64),
            pdf["t"].to_numpy(np.float64),
            float(pdf["t0"].iloc[0]),
        )

    return map_trajectories(obs, per_traj, schema)


def _matched_frame(env, tid, idxs, xs, ys, ts, t0) -> pd.DataFrame:
    """One trajectory's matched points and route as rows of
    ``_COMBINED_SCHEMA``."""
    matcher, costs = env
    segs, ratios, route = match_and_stitch(matcher, xs, ys, ts, t0, costs)
    prow = pd.DataFrame(
        {
            "traj_id": tid,
            "kind": "point",
            "ord": -1,
            "idx": idxs,
            "seg": segs.astype(np.int64),
            "ratio": ratios,
        }
    )
    rrow = pd.DataFrame(
        {
            "traj_id": tid,
            "kind": "route",
            "ord": np.arange(len(route)),
            "idx": -1,
            "seg": route,
            "ratio": 0.0,
        }
    )
    return pd.concat([prow, rrow], ignore_index=True)


def run_matcher(spark: SparkSession, city: CityData, matcher, costs: np.ndarray | None = None) -> MatchResult:
    """Run a matcher over every sparse test trajectory (see module
    docstring). ``costs`` are the historical routing costs used to stitch
    gaps (Alg. 1 line 12); defaults to plain shortest path. The pass is
    cached until :meth:`MatchResult.unpersist`."""
    combined = run_per_trajectory(spark, city, (matcher, costs), _matched_frame, _COMBINED_SCHEMA).cache()
    points = combined.filter(F.col("kind") == "point").select("traj_id", "idx", "seg", "ratio")
    routes = combined.filter(F.col("kind") == "route").select(
        "traj_id", F.col("ord").alias("pos"), "seg"
    )
    return MatchResult(points=points, routes=routes, combined=combined)
