"""Tests for Spark-batched map matching (repro.mma.infer)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.mma.baselines import NearestMatcher
from repro.mma.infer import match_and_stitch, run_matcher


@pytest.fixture(scope="module")
def nearest_result(spark, pt_city):
    m = NearestMatcher(pt_city.net, pt_city.index, pt_city.norm)
    res = run_matcher(spark, pt_city, m)
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
    """The Spark runner's results (``mapInPandas`` over ``traj_id``-sorted
    partitions) equal a direct driver-side run per trajectory: segments,
    ratios and the stitched route."""
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
    from repro.mma.train import mma_training_samples, train_mma
    from repro.roadnet.node2vec import node2vec_embeddings

    n2v = node2vec_embeddings(pt_city.net, d=16)
    model = train_mma(pt_city, mma_training_samples(pt_city), n2v, epochs=1, d=16)
    m = MMAMatcher(pt_city.net, pt_city.index, pt_city.norm, model)
    res = run_matcher(spark, pt_city, m)
    n_traj = pt_city.points.filter(F.col("split") == "test").select("traj_id").distinct().count()
    assert res.routes.select("traj_id").distinct().count() == n_traj


def _sorted_rows(res):
    return (res.points.toPandas().sort_values(["traj_id", "idx"]).reset_index(drop=True),
            res.routes.toPandas().sort_values(["traj_id", "pos"]).reset_index(drop=True))


def _max_batches_per_partition(df) -> int:
    def count(batches):
        yield pd.DataFrame({"n": [sum(1 for b in batches if len(b))]})

    return int(df.mapInPandas(count, schema="n long").toPandas()["n"].max())


def test_runner_ignores_input_layout(spark, pt_city, nearest_result):
    """Randomly partitioned points, and partitions that arrive as several
    Arrow batches (trajectories straddle them), give the fixture layout's
    rows exactly."""
    m = NearestMatcher(pt_city.net, pt_city.index, pt_city.norm)
    want_points, want_routes = _sorted_rows(nearest_result)
    shuffled = replace(pt_city, points=pt_city.points.repartition(5))
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key)
    try:
        got = [_sorted_rows(run_matcher(spark, shuffled, m))]
        spark.conf.set(key, "7")
        assert _max_batches_per_partition(pt_city.points.filter(F.col("split") == "test")) > 1
        got.append(_sorted_rows(run_matcher(spark, pt_city, m)))
    finally:
        spark.conf.set(key, old)
    for points, routes in got:
        pd.testing.assert_frame_equal(points, want_points)
        pd.testing.assert_frame_equal(routes, want_routes)


def test_runner_with_fewer_trajectories_than_slots(spark, pt_city, nearest_result):
    """Empty partitions yield nothing: a split cut to two trajectories,
    spread over ``defaultParallelism`` partitions (four on a 4-core
    host), gives exactly their rows."""
    m = NearestMatcher(pt_city.net, pt_city.index, pt_city.norm)
    want_points, want_routes = _sorted_rows(nearest_result)
    keep = sorted(want_points["traj_id"].unique())[:2]
    two = replace(pt_city, points=pt_city.points.filter(F.col("traj_id").isin(keep)))
    points, routes = _sorted_rows(run_matcher(spark, two, m))
    pd.testing.assert_frame_equal(points, want_points[want_points.traj_id.isin(keep)].reset_index(drop=True))
    pd.testing.assert_frame_equal(routes, want_routes[want_routes.traj_id.isin(keep)].reset_index(drop=True))


def test_match_result_unpersist_frees_the_pass(spark, pt_city):
    """Three Table V-style rounds (match, score, ``unpersist``) leave as
    many cached RDDs as there were before them."""
    from repro.evalx.metrics import aggregate_means, route_metrics_per_traj

    m = NearestMatcher(pt_city.net, pt_city.index, pt_city.norm)
    gt = pt_city.routes.filter(F.col("split") == "test").select("traj_id", "seg")

    def cached_rdds():
        return len(spark.sparkContext._jsc.sc().getRDDStorageInfo())

    before = cached_rdds()
    for _ in range(3):
        res = run_matcher(spark, pt_city, m)
        aggregate_means(route_metrics_per_traj(res.routes, gt), ["f1"])
        res.unpersist()
    assert cached_rdds() == before
