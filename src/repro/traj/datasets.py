"""The four synthetic city datasets (PT/XA/BJ/CD analogues): the
driver-side :class:`repro.traj.generate.Trajectory` objects a city is
simulated as (what the numpy training loops read), and the same rows as
Spark DataFrames laid out by ``traj_id`` (what the Spark passes read).

Presets are calibrated to the paper's Table II shape at ~1:10 scale:
relative network sizes (BJ largest), ε sampling rates (BJ coarsest), trip
lengths/durations, and a GPS-noise-to-road-spacing ratio that puts the
nearest-segment hit ratio near the ~0.7 the paper measures (Fig. 2). Every
substitution is documented in DESIGN.md §2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.roadnet.generate import make_city
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.spatial_index import SegmentIndex
from repro.traj.generate import Trajectory, simulate_city_trajectories

#: Per-city generation parameters (see module docstring for calibration).
CITY_PRESETS: dict[str, dict] = {
    # Porto: mid-size net, 15 s sampling, ~40 points per trajectory
    "pt": dict(nx=26, ny=13, spacing=115.0, eps=15.0, noise=8.5, speed=7.2,
               target_len=4400.0, one_way_p=0.35, net_seed=11),
    # Xi'an: smallest net, dense 12 s sampling, longest trajectories
    "xa": dict(nx=18, ny=9, spacing=130.0, eps=12.0, noise=7.0, speed=6.2,
               target_len=5200.0, one_way_p=0.35, net_seed=22),
    # Beijing: largest net, coarse 60 s sampling, most noise → hardest
    "bj": dict(nx=38, ny=19, spacing=140.0, eps=60.0, noise=12.0, speed=7.6,
               target_len=9500.0, one_way_p=0.35, net_seed=33),
    # Chengdu: mid net, dense sampling, low noise → easiest
    "cd": dict(nx=23, ny=12, spacing=125.0, eps=12.0, noise=7.5, speed=6.9,
               target_len=4600.0, one_way_p=0.35, net_seed=44),
}

SPLIT_NAMES = ("train", "val", "test")


def split_of(traj_id: int) -> str:
    """Deterministic 40/30/30 split by trajectory id (paper §VI-A)."""
    b = traj_id % 10
    return "train" if b < 4 else ("val" if b < 7 else "test")


@dataclass
class CityData:
    """One city's substrate + data: road network, spatial index, the
    simulated trajectories and the same rows as Spark DataFrames, and
    normalisation constants for model features."""

    name: str
    net: RoadNetwork
    index: SegmentIndex
    eps: float
    gamma: float
    points: DataFrame  # one row per ε-tick point (GT + noisy observation)
    routes: DataFrame  # one row per route segment
    norm: dict  # x0/x1/y0/y1 bbox used for min-max feature scaling
    trajectories: list[Trajectory] = field(repr=False)  # in traj_id order; never mutated

    def trajs(self, split: str | None = None) -> list[Trajectory]:
        """The trajectories of a split (all of them for ``None``), as a new
        list over the same objects; no Spark job."""
        return [tr for tr in self.trajectories if split is None or split_of(tr.traj_id) == split]


def by_traj_id(df: DataFrame) -> DataFrame:
    """``df`` hash-partitioned by ``traj_id`` into one partition per Spark
    slot (``defaultParallelism``): the layout :func:`build_city` caches and
    :func:`map_trajectories` runs on, so a pass over a city's cached frames
    needs no shuffle."""
    return df.repartition(df.sparkSession.sparkContext.defaultParallelism, "traj_id")


def map_trajectories(df: DataFrame, fn, schema: str) -> DataFrame:
    """``fn(traj_id, pdf) -> pd.DataFrame`` applied to each trajectory's rows
    of ``df`` (which has ``traj_id`` and ``idx`` columns), in ``idx`` order,
    with output ``schema``.

    The rows are laid out by :func:`by_traj_id` and sorted within each
    partition, so a pass is one wave of one Python task per slot, whatever
    the input's layout; Spark drops the repartition when the input already
    has that layout (a city's cached frames do).
    Each task concatenates its partition's Arrow batches (a trajectory may
    straddle two), cuts them where ``traj_id`` changes, and yields one frame.
    """
    def per_partition(batches):
        frames = [b for b in batches if len(b)]
        if not frames:
            return
        pdf = pd.concat(frames, ignore_index=True)
        tids = pdf["traj_id"].to_numpy()
        cuts = np.concatenate(([0], np.flatnonzero(tids[1:] != tids[:-1]) + 1, [len(tids)]))
        yield pd.concat([fn(int(tids[a]), pdf.iloc[a:b]) for a, b in zip(cuts[:-1], cuts[1:])],
                        ignore_index=True)

    return (by_traj_id(df).sortWithinPartitions("traj_id", "idx")
            .mapInPandas(per_partition, schema=schema))


def trajectories_to_frames(trajs: list[Trajectory], city: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Flatten trajectories into the points/routes tables."""
    prows = []
    rrows = []
    for tr in trajs:
        sp = split_of(tr.traj_id)
        n = len(tr.t)
        prows.append(
            pd.DataFrame(
                {
                    "city": city,
                    "traj_id": tr.traj_id,
                    "idx": np.arange(n),
                    "t": tr.t,
                    "t0": tr.t0,
                    "x": tr.x,
                    "y": tr.y,
                    "tx": tr.tx,
                    "ty": tr.ty,
                    "seg": tr.seg,
                    "route_pos": tr.route_pos,
                    "ratio": tr.ratio,
                    "observed": tr.observed,
                    "split": sp,
                }
            )
        )
        rrows.append(
            pd.DataFrame(
                {
                    "city": city,
                    "traj_id": tr.traj_id,
                    "pos": np.arange(len(tr.route)),
                    "seg": tr.route,
                    "split": sp,
                }
            )
        )
    return pd.concat(prows, ignore_index=True), pd.concat(rrows, ignore_index=True)


def preset_trajectories(net: RoadNetwork, city: str, n: int, gamma: float, seed: int,
                        outlier_p: float) -> list[Trajectory]:
    """``n`` trajectories simulated on ``net`` with city preset ``city``'s
    sampling rate, trip length, speed and GPS noise. The kinematics are
    seeded from the preset's network, so every draw of a city shares its
    persistent road speeds and signals; ``seed`` draws the trips."""
    p = CITY_PRESETS[city]
    return simulate_city_trajectories(
        net, n, eps=p["eps"], target_len=p["target_len"], speed_mu=p["speed"], noise_sigma=p["noise"],
        gamma=gamma, seed=seed, outlier_p=outlier_p, kin_seed=p["net_seed"] + 7,
    )


def build_city(
    spark: SparkSession,
    city: str,
    n_traj: int,
    gamma: float = 0.1,
    seed: int = 0,
) -> CityData:
    """Generate a city dataset deterministically: the simulated trajectories
    and their ``points``/``routes`` frames, cached in :func:`by_traj_id`'s
    layout.

    ``gamma`` is the sparsity ratio of §VI-A (default 0.1 ⇒ sparse interval
    10× the ε rate); ``seed`` offsets the trajectory RNG so tests and
    benchmarks can draw disjoint data from the same city.
    """
    p = CITY_PRESETS[city]
    net = make_city(nx=p["nx"], ny=p["ny"], spacing=p["spacing"],
                    one_way_p=p["one_way_p"], seed=p["net_seed"])
    trajs = preset_trajectories(net, city, n_traj, gamma, p["net_seed"] * 1000 + seed, 0.03)
    points_pd, routes_pd = trajectories_to_frames(trajs, city)
    points = by_traj_id(spark.createDataFrame(points_pd)).cache()
    routes = by_traj_id(spark.createDataFrame(routes_pd)).cache()
    x0, y0, x1, y1 = net.bbox()
    return CityData(
        name=city,
        net=net,
        index=SegmentIndex(net),
        eps=p["eps"],
        gamma=gamma,
        points=points,
        routes=routes,
        norm={"x0": x0, "x1": x1, "y0": y0, "y1": y1},
        trajectories=trajs,
    )
