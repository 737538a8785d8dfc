"""Tests for the Spark city datasets (schemas, splits, round-trips)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.traj.datasets import CITY_PRESETS, split_of, trajs_from_pandas
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
    trajs = pt_city.trajs("test")
    assert len(trajs) > 0
    tr = trajs[0]
    pdf = pt_city.points.filter(F.col("traj_id") == tr.traj_id).toPandas().sort_values("idx")
    assert np.allclose(pdf["x"].to_numpy(), tr.x)
    assert np.array_equal(pdf["seg"].to_numpy(), tr.seg)
    rdf = pt_city.routes.filter(F.col("traj_id") == tr.traj_id).toPandas().sort_values("pos")
    assert np.array_equal(rdf["seg"].to_numpy(), tr.route)


def test_trajs_memoised_per_split(spark, pt_city):
    """A second ``trajs(split)`` starts no Spark job and returns a new list
    of the same trajectories."""
    first = pt_city.trajs("val")
    second, jobs, _ = run_in_job_group(spark, "trajs-memo", lambda: pt_city.trajs("val"))
    assert jobs == []
    assert second is not first
    assert [tr.traj_id for tr in second] == [tr.traj_id for tr in first]
    assert all(a is b for a, b in zip(first, second))
    assert {split_of(tr.traj_id) for tr in second} == {"val"}


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
