"""Tests for Spark-batched trajectory recovery (repro.trmma.infer)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.mma.baselines import NearestMatcher
from repro.trmma.infer import TRMMARecoverer, run_recovery
from repro.roadnet.node2vec import node2vec_embeddings
from repro.trmma.train import train_trmma, trmma_training_samples
from tests.spark_jobs import run_in_job_group


@pytest.fixture(scope="module")
def trmma_rec(pt_city):
    samples = trmma_training_samples(pt_city, pt_city.trajs("train"))
    model = train_trmma(pt_city, samples, node2vec_embeddings(pt_city.net, d=16), epochs=1, d_h=16)
    matcher = NearestMatcher(pt_city.net, pt_city.index, pt_city.norm)
    return TRMMARecoverer(matcher, model, pt_city.norm, pt_city.eps)


@pytest.fixture(scope="module")
def recovered(spark, pt_city, trmma_rec):
    df = run_recovery(spark, pt_city, trmma_rec)
    df.cache()
    return df


def test_every_tick_recovered(spark, pt_city, recovered):
    n_gt = pt_city.points.filter(F.col("split") == "test").count()
    assert recovered.count() == n_gt


def test_join_with_gt_is_total(spark, pt_city, recovered):
    gt = pt_city.points.filter(F.col("split") == "test").select("traj_id", "idx")
    joined = recovered.join(gt, on=["traj_id", "idx"]).count()
    assert joined == gt.count()


def test_ratios_valid(recovered):
    row = recovered.agg(F.min("ratio"), F.max("ratio")).collect()[0]
    assert row[0] >= 0.0 and row[1] < 1.0


def test_spark_matches_driver_side(spark, pt_city, trmma_rec, recovered):
    """The Spark runner's recovered ticks (``mapInPandas`` over
    ``traj_id``-sorted partitions) equal a direct driver-side call."""
    pdf = recovered.toPandas()
    for tr in pt_city.trajs("test")[:3]:
        obs = np.where(tr.observed)[0]
        segs, ratios = trmma_rec.recover(tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, obs, len(tr.t))
        got = pdf[pdf.traj_id == tr.traj_id].sort_values("idx")
        assert np.array_equal(got["seg"].to_numpy(), segs)
        assert np.allclose(got["ratio"].to_numpy(), ratios)


def test_one_python_task_per_slot(spark, pt_city, trmma_rec):
    """Over a city's cached points, one ``run_recovery`` pass runs a single
    stage of exactly ``defaultParallelism`` tasks: one wave of Python
    tasks over the slots, not one task per trajectory group, and no
    shuffle-map stage, because ``build_city`` caches the points in the
    layout ``map_trajectories`` asks for. (The jobs also list the cache's
    own build stage, which Spark skips: it runs no task.)"""
    pt_city.points.count()
    _, jobs, stages = run_in_job_group(
        spark, "recovery-pass", lambda: run_recovery(spark, pt_city, trmma_rec).collect())
    assert jobs
    ran = [s.numTasks for s in stages if s.numCompletedTasks]
    assert ran == [spark.sparkContext.defaultParallelism]


def test_end_to_end_beats_random(spark, pt_city, recovered):
    """Even a 1-epoch model with nearest matching lands far above chance."""
    from repro.evalx.metrics import aggregate_means, recovery_metrics_per_traj

    gt = pt_city.points.filter(F.col("split") == "test").select("traj_id", "idx", "seg", "ratio")
    per = recovery_metrics_per_traj(spark, recovered, gt, pt_city.net)
    means = aggregate_means(per, ["accuracy"])
    assert means["accuracy"] > 0.15  # chance ≈ 1/n_segments


def test_route_restricts_decoding_tenfold(pt_city):
    """The structural claim behind Fig. 5: TRMMA classifies each missing
    tick over the ℓ_R segments of the matched route, an all-segment
    decoder over all n, and n / mean ℓ_R exceeds 10 on the test split."""
    mean_route = np.mean([len(tr.route) for tr in pt_city.trajs("test")])
    assert pt_city.net.n_segments / mean_route > 10
