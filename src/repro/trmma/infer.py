"""Spark-batched trajectory recovery.

``run_recovery`` applies any *recoverer* (TRMMA or a baseline) to every
sparse test trajectory via ``mapInPandas`` over ``traj_id``-sorted
partitions, one Python task per Spark slot (the shared
:func:`repro.mma.infer.run_per_trajectory`) — the batched
dual-transformer inference over trajectory partitions named in the
reproduction hint. A recoverer implements::

    recover(xs, ys, ts, t0, idxs, n_ticks) -> (segs, ratios)   # per ε tick

:class:`TRMMARecoverer` chains the full Algorithm 2 inside the executor:
MMA matching → route stitching → DualFormer encode → sequential decode.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.mma.infer import match_and_stitch, run_per_trajectory
# Not called here; kept as a module attribute because trbench/ wraps
# ``repro.trmma.infer.stitch_route`` by name.
from repro.roadnet.routing import stitch_route  # noqa: F401
from repro.traj.datasets import CityData
from repro.trmma.features import build_infer_sample
from repro.trmma.model import TRMMAModel


class TRMMARecoverer:
    """Algorithm 2 end to end (see module docstring)."""

    name = "TRMMA"

    def __init__(
        self, matcher, model: TRMMAModel, norm: dict, eps: float, costs=None,
        time_per_meter=None,
    ):
        self.matcher = matcher  # any repro.mma matcher (holds net + index)
        self.model = model
        self.norm = norm
        self.eps = eps
        self.costs = costs
        self.time_per_meter = time_per_meter

    def recover(self, xs, ys, ts, t0, idxs, n_ticks):
        # Alg. 2 line 1 is Alg. 1
        segs_m, ratios_m, route = match_and_stitch(self.matcher, xs, ys, ts, t0, self.costs)
        sample = build_infer_sample(
            self.matcher.net, self.norm, xs, ys, ts, t0, idxs, n_ticks, self.eps,
            segs_m, ratios_m, route, time_per_meter=self.time_per_meter,
        )
        return self.model.recover(sample)


def _recovered_frame(rec, tid, idxs, xs, ys, ts, t0) -> pd.DataFrame:
    """One trajectory's recovered ``T_ε``, one row per ε tick."""
    n_ticks = int(idxs[-1]) + 1
    segs, ratios = rec.recover(xs, ys, ts, t0, idxs, n_ticks)
    return pd.DataFrame(
        {
            "traj_id": tid,
            "idx": np.arange(n_ticks, dtype=np.int64),
            "seg": np.asarray(segs, dtype=np.int64),
            "ratio": np.asarray(ratios, dtype=np.float64),
        }
    )


def run_recovery(spark: SparkSession, city: CityData, recoverer) -> DataFrame:
    """Recovered ``T_ε`` for every test trajectory:
    (traj_id, idx, seg, ratio) with one row per ε tick."""
    return run_per_trajectory(spark, city, recoverer, _recovered_frame,
                              "traj_id long, idx long, seg long, ratio double")
