"""Tests for the §VI-A metrics (Spark) including DuckDB oracle checks."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.evalx.metrics import (
    RECOVERY_METRIC_COLS,
    aggregate_means,
    recovery_metrics_per_traj,
    route_metrics_per_traj,
)
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def tiny_frames(spark, net_small):
    """Two trajectories with known prediction quality."""
    gt = pd.DataFrame(
        {
            "traj_id": [1, 1, 1, 2, 2],
            "idx": [0, 1, 2, 0, 1],
            "seg": [0, 1, 2, 5, 6],
            "ratio": [0.1, 0.5, 0.9, 0.2, 0.4],
        }
    )
    pred_perfect = gt.copy()
    pred_half = gt.copy()
    pred_half.loc[1, "seg"] = 3  # one wrong segment in traj 1
    return (
        spark.createDataFrame(gt),
        spark.createDataFrame(pred_perfect),
        spark.createDataFrame(pred_half),
    )


def test_perfect_prediction_scores_one(spark, net_small, tiny_frames):
    gt, perfect, _ = tiny_frames
    per = recovery_metrics_per_traj(spark, perfect, gt, net_small).toPandas()
    assert np.allclose(per["accuracy"], 1.0)
    assert np.allclose(per["f1"], 1.0)
    assert np.allclose(per["mae"], 0.0)
    assert np.allclose(per["rmse"], 0.0)


def test_one_wrong_segment_metrics(spark, net_small, tiny_frames):
    gt, _, half = tiny_frames
    per = recovery_metrics_per_traj(spark, half, gt, net_small).toPandas().set_index("traj_id")
    assert per.loc[1, "accuracy"] == pytest.approx(2 / 3)
    assert per.loc[1, "precision"] == pytest.approx(2 / 3)
    assert per.loc[1, "recall"] == pytest.approx(2 / 3)
    assert per.loc[1, "mae"] > 0
    assert per.loc[2, "accuracy"] == 1.0


def test_rmse_ge_mae(spark, net_small, tiny_frames):
    gt, _, half = tiny_frames
    per = recovery_metrics_per_traj(spark, half, gt, net_small).toPandas()
    assert (per["rmse"] >= per["mae"] - 1e-9).all()


def test_aggregate_means_matches_duckdb(spark, net_small, tiny_frames):
    gt, _, half = tiny_frames
    per = recovery_metrics_per_traj(spark, half, gt, net_small)
    per.cache()
    means = aggregate_means(per, RECOVERY_METRIC_COLS)
    assert_equivalent(
        spark.createDataFrame([means]),
        "SELECT " + ", ".join(f"AVG({c}) AS {c}" for c in RECOVERY_METRIC_COLS) + " FROM per",
        per=per,
    )
    assert means["accuracy"] == pytest.approx((2 / 3 + 1.0) / 2)


def test_aggregate_means_ignore_layout(spark):
    """The same per-trajectory rows give bit-identical means however they
    are partitioned."""
    rng = np.random.default_rng(7)
    pdf = pd.DataFrame({"traj_id": np.arange(1000), "a": rng.random(1000) * 1e3, "b": rng.standard_normal(1000)})
    per = spark.createDataFrame(pdf)
    one = aggregate_means(per.repartition(1), ["a", "b"])
    seven = aggregate_means(per.repartition(7), ["a", "b"])
    assert one == seven
    assert one["a"] == pytest.approx(pdf["a"].mean(), rel=1e-12)


def test_route_metrics_known_values(spark):
    pred = spark.createDataFrame(pd.DataFrame({"traj_id": [1, 1, 1, 1], "seg": [0, 1, 2, 3]}))
    gt = spark.createDataFrame(pd.DataFrame({"traj_id": [1, 1, 1], "seg": [1, 2, 9]}))
    row = route_metrics_per_traj(pred, gt).collect()[0]
    assert row["precision"] == pytest.approx(2 / 4)
    assert row["recall"] == pytest.approx(2 / 3)
    assert row["jaccard"] == pytest.approx(2 / 5)
    f1 = 2 * 0.5 * (2 / 3) / (0.5 + 2 / 3)
    assert row["f1"] == pytest.approx(f1)


def test_route_metrics_missing_prediction_scores_zero(spark):
    pred = spark.createDataFrame(pd.DataFrame({"traj_id": [1], "seg": [0]}))
    gt = spark.createDataFrame(
        pd.DataFrame({"traj_id": [1, 2], "seg": [0, 5]})
    )
    rows = {r["traj_id"]: r for r in route_metrics_per_traj(pred, gt).collect()}
    assert rows[2]["recall"] == 0.0
    assert rows[2]["f1"] == 0.0
    assert rows[1]["f1"] == 1.0


def test_route_metrics_duplicates_ignored(spark):
    pred = spark.createDataFrame(pd.DataFrame({"traj_id": [1, 1, 1], "seg": [4, 4, 4]}))
    gt = spark.createDataFrame(pd.DataFrame({"traj_id": [1], "seg": [4]}))
    row = route_metrics_per_traj(pred, gt).collect()[0]
    assert row["precision"] == 1.0
    assert row["jaccard"] == 1.0


def test_route_metrics_oracle(spark, pt_city):
    """The pure-SQL route metric pipeline agrees with DuckDB end to end."""
    gt = pt_city.routes.filter(F.col("split") == "test").select("traj_id", "seg")
    # a fake prediction: the GT route of every OTHER trajectory id (shift)
    pred = gt.withColumn("traj_id", F.col("traj_id"))
    per = route_metrics_per_traj(pred, gt)
    agg = per.agg(F.avg("f1").alias("f1"), F.avg("jaccard").alias("jaccard"))
    assert_equivalent(
        agg,
        """
        WITH p AS (SELECT DISTINCT traj_id, seg FROM pred),
             g AS (SELECT DISTINCT traj_id, seg FROM gt),
             np AS (SELECT traj_id, COUNT(*) n_pred FROM p GROUP BY traj_id),
             ng AS (SELECT traj_id, COUNT(*) n_gt FROM g GROUP BY traj_id),
             ni AS (SELECT p.traj_id, COUNT(*) n_int FROM p JOIN g
                    ON p.traj_id = g.traj_id AND p.seg = g.seg GROUP BY p.traj_id),
             m AS (SELECT ng.traj_id,
                          COALESCE(ni.n_int, 0) * 1.0 / GREATEST(COALESCE(np.n_pred, 0), 1) AS prec,
                          COALESCE(ni.n_int, 0) * 1.0 / ng.n_gt AS rec,
                          COALESCE(ni.n_int, 0) * 1.0 /
                            (COALESCE(np.n_pred, 0) + ng.n_gt - COALESCE(ni.n_int, 0)) AS jac
                   FROM ng LEFT JOIN np ON ng.traj_id = np.traj_id
                           LEFT JOIN ni ON ng.traj_id = ni.traj_id)
        SELECT AVG(CASE WHEN prec + rec > 0 THEN 2 * prec * rec / (prec + rec) ELSE 0 END) AS f1,
               AVG(jac) AS jaccard
        FROM m
        """,
        pred=pred,
        gt=gt,
    )


def test_recovery_metrics_inner_join_alignment(spark, net_small, tiny_frames):
    gt, perfect, _ = tiny_frames
    # missing tick in prediction → that tick drops from the join
    partial = perfect.filter(~((F.col("traj_id") == 1) & (F.col("idx") == 2)))
    per = recovery_metrics_per_traj(spark, partial, gt, net_small).toPandas().set_index("traj_id")
    assert per.loc[1, "accuracy"] == 1.0  # computed over remaining aligned ticks
