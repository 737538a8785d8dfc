"""Tests for TRMMA training utilities, esp. the historical time statistic."""
import numpy as np
import pytest

from repro.mma.train import augmented_trajs
from repro.roadnet.node2vec import node2vec_embeddings
from repro.trmma.train import (
    segment_time_stats,
    segment_time_stats_trajs,
    train_trmma,
    trmma_training_samples,
)


def test_spark_and_numpy_time_stats_agree(pt_city):
    """The Spark SQL statistic equals the driver-side numpy version."""
    spark_tpm = segment_time_stats(pt_city)
    np_tpm = segment_time_stats_trajs(pt_city.net, pt_city.trajs("train"), pt_city.eps)
    assert spark_tpm.shape == np_tpm.shape
    assert np.allclose(spark_tpm, np_tpm)


def test_time_stats_positive_and_median_one(pt_city):
    tpm = segment_time_stats(pt_city)
    assert (tpm > 0).all()
    assert np.median(tpm) == pytest.approx(1.0, abs=0.15)


def test_time_stats_reflect_slow_segments(pt_city):
    """Segments with low persistent speed factors get higher time/metre."""
    from repro.traj.datasets import CITY_PRESETS
    from repro.traj.generate import CityKinematics

    kin = CityKinematics.for_net(pt_city.net, seed=CITY_PRESETS["pt"]["net_seed"] + 7)
    # use many trajectories for a stable estimate
    trajs = pt_city.trajs("train") + augmented_trajs(pt_city, 150)
    tpm = segment_time_stats_trajs(pt_city.net, trajs, pt_city.eps)
    # correlation between 1/speed_factor and time-per-metre must be positive
    corr = np.corrcoef(1.0 / kin.seg_speed_factor, tpm)[0, 1]
    assert corr > 0.2


def test_training_samples_counts(pt_city):
    base = trmma_training_samples(pt_city, pt_city.trajs("train"))
    more = trmma_training_samples(pt_city, pt_city.trajs("train") + augmented_trajs(pt_city, 5))
    assert len(more) == len(base) + 5


def test_train_trmma_smoke_and_df_variant(pt_city):
    samples = trmma_training_samples(pt_city, pt_city.trajs("train"))[:8]
    n2v = node2vec_embeddings(pt_city.net, d=16)
    m = train_trmma(pt_city, samples, n2v, epochs=1, d_h=16)
    m_df = train_trmma(pt_city, samples, n2v, epochs=1, d_h=16, use_dualformer=False)
    assert m.use_dualformer and not m_df.use_dualformer
    segs, ratios = m.recover(samples[0])
    assert len(segs) == samples[0].n_ticks
