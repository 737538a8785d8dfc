"""Benchmark: inference time per 1000 trajectory recoveries.

Mirrors the paper's headline efficiency result (Fig. 5 / §VI-B): TRMMA
classifies each missing point over the ℓ_R segments of the matched route,
an all-segment decoder (RNTrajRec-lite) over all n segments of the network.

Both wall-clock times are recorded. The *assertion* is on the structural
ratio (per-tick classification work n / ℓ_R ≫ 1), not wall-clock: both
decoders run forward-only numpy, and at n ≈ 1,000 per-op overhead, not the
n-sized scoring, sets most of a tick's cost, which hides most of the FLOP
gap behind the paper's 20-75× GPU-scale speedups — see EXPERIMENTS.md
deviation 5.
"""
import time

import numpy as np
import pytest

from repro.mma.baselines import MMAMatcher
from repro.mma.train import train_mma
from repro.traj.datasets import build_city
from repro.trmma.baselines import RNTrajRecRecoverer
from repro.trmma.infer import TRMMARecoverer
from repro.trmma.train import train_trmma


@pytest.fixture(scope="module")
def setup(spark):
    city = build_city(spark, "pt", n_traj=150, seed=2)
    mma = train_mma(city, epochs=2, d=32)
    trmma = train_trmma(city, epochs=2, d_h=32)
    trm = TRMMARecoverer(MMAMatcher(city.net, city.index, city.norm, mma),
                         trmma, city.norm, city.eps)
    rnt = RNTrajRecRecoverer(city.net, city.index, city.norm, city.eps).fit(city, epochs=1)
    trajs = city.trajs("test")[:30]
    return city, trm, rnt, trajs


def _run_all(rec, trajs):
    for tr in trajs:
        obs = np.where(tr.observed)[0]
        rec.recover(tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, obs, len(tr.t))


@pytest.mark.benchmark(group="inference")
def test_trmma_inference_time(benchmark, setup):
    _, trm, _, trajs = setup
    benchmark.pedantic(lambda: _run_all(trm, trajs), rounds=1, iterations=1)


@pytest.mark.benchmark(group="inference")
def test_allsegment_decoder_inference_time(benchmark, setup):
    """Records the all-segment decoder timing and prints the wall-clock
    comparison alongside the structural per-tick work ratio."""
    city, trm, rnt, trajs = setup
    benchmark.pedantic(lambda: _run_all(rnt, trajs), rounds=1, iterations=1)
    t0 = time.time()
    _run_all(trm, trajs)
    t_trm = time.time() - t0
    t0 = time.time()
    _run_all(rnt, trajs)
    t_rnt = time.time() - t0
    per1000 = 1000 / len(trajs)
    avg_route = np.mean([len(tr.route) for tr in trajs])
    ratio = city.net.n_segments / avg_route
    print(f"\n[inference] TRMMA {t_trm * per1000:.1f}s/1000 vs "
          f"all-segment {t_rnt * per1000:.1f}s/1000 wall-clock; "
          f"per-tick classification work: ℓ_R={avg_route:.0f} vs n={city.net.n_segments} "
          f"({ratio:.0f}x structural advantage)")
    # the structural claim behind Fig. 5: candidate sets are >10x smaller
    assert ratio > 10
