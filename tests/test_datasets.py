"""Tests for the Spark city datasets (schemas, splits, round-trips)."""
from dataclasses import replace

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.traj.datasets import CITY_PRESETS, SPLIT_NAMES, split_of
from tests.spark_jobs import run_in_job_group


def test_presets_cover_four_cities():
    assert set(CITY_PRESETS) == {"pt", "xa", "bj", "cd"}


def test_split_of_is_40_30_30():
    splits = [split_of(i) for i in range(1000)]
    assert splits.count("train") == 400
    assert splits.count("val") == 300
    assert splits.count("test") == 300


def test_points_schema(pt_city):
    cols = set(pt_city.points.columns)
    assert {"city", "traj_id", "idx", "t", "t0", "x", "y", "tx", "ty",
            "seg", "route_pos", "ratio", "observed", "split"} <= cols


def test_routes_schema(pt_city):
    assert {"city", "traj_id", "pos", "seg", "split"} <= set(pt_city.routes.columns)


def test_trajectory_count(pt_city):
    assert pt_city.points.select("traj_id").distinct().count() == 60
    assert pt_city.routes.select("traj_id").distinct().count() == 60


def test_split_fractions(pt_city):
    counts = dict(
        pt_city.points.select("traj_id", "split").distinct()
        .groupBy("split").count().collect()
    )
    counts = {r["split"]: r["count"] for r in
              pt_city.points.select("traj_id", "split").distinct().groupBy("split").count().collect()}
    assert abs(counts["train"] - 24) <= 1
    assert abs(counts["val"] - 18) <= 1
    assert abs(counts["test"] - 18) <= 1


def test_round_trip_to_driver(pt_city):
    """The cached frames hold exactly the driver-side trajectories: every
    point column, ``t0`` and the route, in ``idx``/``pos`` order."""
    trajs = pt_city.trajs()
    pts = pt_city.points.toPandas().sort_values(["traj_id", "idx"])
    rts = pt_city.routes.toPandas().sort_values(["traj_id", "pos"])
    assert [tr.traj_id for tr in trajs] == list(range(60))
    assert sorted(pts["traj_id"].unique()) == sorted(rts["traj_id"].unique()) == list(range(60))
    for tr, (tid, g) in zip(trajs, pts.groupby("traj_id")):
        assert tid == tr.traj_id
        assert np.array_equal(g["idx"].to_numpy(), np.arange(len(tr.t)))
        for col in ("t", "x", "y", "tx", "ty", "seg", "route_pos", "ratio", "observed"):
            assert np.array_equal(g[col].to_numpy(), getattr(tr, col)), col
        assert (g["t0"] == tr.t0).all()
        assert set(g["split"]) == {split_of(tr.traj_id)}
        assert np.array_equal(rts.loc[rts.traj_id == tid, "seg"].to_numpy(), tr.route)


def test_trajs_start_no_spark_job(spark, pt_city):
    """Even the first ``trajs(split)`` of a city starts no Spark job; each
    call returns a new list of that split's trajectories, and the splits
    partition ``trajs()``."""
    fresh = replace(pt_city)
    got, jobs, _ = run_in_job_group(
        spark, "trajs-driver", lambda: {name: fresh.trajs(name) for name in SPLIT_NAMES})
    assert jobs == []
    for name, trajs in got.items():
        assert trajs and {split_of(tr.traj_id) for tr in trajs} == {name}
        assert fresh.trajs(name) is not trajs
    everything = fresh.trajs()
    assert sorted(tr.traj_id for trajs in got.values() for tr in trajs) == [tr.traj_id for tr in everything]
    assert {id(tr) for trajs in got.values() for tr in trajs} == {id(tr) for tr in everything}


def test_observed_count_oracle(spark, pt_city):
    """Spark aggregation over observed flags matches DuckDB exactly."""
    got = (
        pt_city.points.groupBy("split")
        .agg(F.sum(F.col("observed").cast("long")).alias("n_obs"))
    )
    assert_equivalent(
        got,
        "SELECT split, SUM(CASE WHEN observed THEN 1 ELSE 0 END) AS n_obs "
        "FROM points GROUP BY split",
        points=pt_city.points,
    )


def test_norm_matches_bbox(pt_city):
    x0, y0, x1, y1 = pt_city.net.bbox()
    assert pt_city.norm == {"x0": x0, "x1": x1, "y0": y0, "y1": y1}


def test_eps_matches_preset(pt_city):
    assert pt_city.eps == CITY_PRESETS["pt"]["eps"]
    # tick spacing in the data equals eps
    pdf = pt_city.points.filter(F.col("traj_id") == 0).toPandas().sort_values("idx")
    assert np.allclose(np.diff(pdf["t"].to_numpy()), pt_city.eps)
