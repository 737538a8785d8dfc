"""Tests for Spark-batched map matching (repro.mma.infer)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.mma.baselines import NearestMatcher
from repro.mma.infer import match_and_stitch, run_matcher


@pytest.fixture(scope="module")
def nearest_result(spark, pt_city):
    m = NearestMatcher(pt_city.net, pt_city.index, pt_city.norm)
    res = run_matcher(spark, pt_city, m, split="test")
    res.points.cache()
    res.routes.cache()
    return res


def test_every_observed_point_matched(spark, pt_city, nearest_result):
    n_obs = pt_city.points.filter((F.col("split") == "test") & F.col("observed")).count()
    assert nearest_result.points.count() == n_obs


def test_matched_ratios_in_range(nearest_result):
    row = nearest_result.points.agg(F.min("ratio"), F.max("ratio")).collect()[0]
    assert row[0] >= 0.0
    assert row[1] < 1.0


def test_routes_contain_matched_segments(nearest_result):
    matched = {(r["traj_id"], r["seg"]) for r in nearest_result.points.collect()}
    in_routes = {(r["traj_id"], r["seg"]) for r in nearest_result.routes.collect()}
    assert matched <= in_routes


def test_route_positions_contiguous(nearest_result):
    pdf = nearest_result.routes.toPandas()
    for tid, g in pdf.groupby("traj_id"):
        pos = np.sort(g["pos"].to_numpy())
        assert np.array_equal(pos, np.arange(len(pos)))


def test_spark_matches_driver_side(spark, pt_city, nearest_result):
    """applyInPandas results equal a direct driver-side run per trajectory:
    segments, ratios and the stitched route."""
    m = NearestMatcher(pt_city.net, pt_city.index, pt_city.norm)
    trajs = pt_city.trajs("test")
    pdf = nearest_result.points.toPandas()
    rdf = nearest_result.routes.toPandas()
    for tr in trajs[:5]:
        obs = np.where(tr.observed)[0]
        segs, ratios, route = match_and_stitch(m, tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, None)
        got = pdf[pdf.traj_id == tr.traj_id].sort_values("idx")
        assert np.array_equal(got["seg"].to_numpy(), segs)
        assert np.array_equal(got["ratio"].to_numpy(), ratios)
        got_route = rdf[rdf.traj_id == tr.traj_id].sort_values("pos")["seg"].to_numpy()
        assert np.array_equal(got_route, route)


def test_trained_mma_through_spark(spark, pt_city):
    from repro.mma.baselines import MMAMatcher
    from repro.mma.train import train_mma

    model = train_mma(pt_city, epochs=1, d=16)
    m = MMAMatcher(pt_city.net, pt_city.index, pt_city.norm, model)
    res = run_matcher(spark, pt_city, m, split="test")
    n_traj = pt_city.points.filter(F.col("split") == "test").select("traj_id").distinct().count()
    assert res.routes.select("traj_id").distinct().count() == n_traj
