"""Shared fixtures for the test suite.

Substrate fixtures are plain numpy and cheap; the city fixtures that need
Spark are session-scoped so the dataset is generated once per run.
"""
from __future__ import annotations

import sys

import pytest

from repro.roadnet.generate import make_city
from repro.roadnet.spatial_index import SegmentIndex
from repro.session import local_spark
from repro.traj.generate import simulate_city_trajectories


@pytest.fixture(scope="session")
def spark():
    """One local SparkSession for the whole test session, built exactly as
    the table jobs build theirs (:func:`repro.session.local_spark`)."""
    s = local_spark("repro")
    conf = s.sparkContext.getConf()
    print(f"[conftest] spark.driver.memory={conf.get('spark.driver.memory', 'default')} "
          f"master={s.sparkContext.master} "
          f"defaultParallelism={s.sparkContext.defaultParallelism}", file=sys.stderr)
    yield s
    s.stop()


@pytest.fixture(scope="session")
def net_small():
    """A small but non-trivial road network (deterministic)."""
    return make_city(nx=10, ny=7, spacing=120.0, seed=3)


@pytest.fixture(scope="session")
def index_small(net_small):
    return SegmentIndex(net_small)


@pytest.fixture(scope="session")
def trajs_small(net_small):
    """A handful of simulated trajectories on the small network."""
    return simulate_city_trajectories(
        net_small, 12, eps=15.0, target_len=2500.0, speed_mu=8.0,
        noise_sigma=9.0, seed=5, outlier_p=0.03,
    )


@pytest.fixture(scope="session")
def pt_city(spark):
    """A tiny PT-preset city dataset through the full Spark path."""
    from repro.traj.datasets import build_city

    return build_city(spark, "pt", n_traj=60, seed=0)


@pytest.fixture(scope="session")
def pt_norm(net_small):
    x0, y0, x1, y1 = net_small.bbox()
    return {"x0": x0, "x1": x1, "y0": y0, "y1": y1}
