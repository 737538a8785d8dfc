"""Driver-side training for MMA (Eq. (10) objective).

Training data is the train split's observed points, read from the city's
driver-side trajectories (:meth:`repro.traj.datasets.CityData.trajs`, no
Spark job) and featureised by :func:`mma_training_samples`. The caller
builds the samples and Node2Vec embeddings once; :func:`train_mma` only
consumes them, optimising with :func:`repro.nn.optim.fit` (Adam over
shuffled mini-batches of trajectories). Models are small (d≈32) and sparse
trajectories short, so the numpy loop trains each city in seconds at bench
scale.
"""
from __future__ import annotations

import numpy as np

from repro.mma.features import MMASample, build_mma_sample
from repro.mma.model import MMAModel
from repro.nn.autodiff import mean_of
from repro.nn.optim import fit
from repro.traj.datasets import CityData, preset_trajectories


def augmented_trajs(city: CityData, n: int, seed: int = 0):
    """Extra simulated historical trajectories for cheap-to-train methods.

    The paper's datasets hold ~1-2.4 M trajectories; our Spark datasets are
    small so the table harnesses stay fast. Methods whose training is cheap
    (MMA, TRMMA, DeepMM — the paper's own orders-of-magnitude-faster-
    training claim) additionally draw simulated trajectories from the same
    city distribution, emulating the large-history regime. Documented in
    DESIGN.md §2.
    """
    if n <= 0:
        return []
    return preset_trajectories(city.net, city.name, n, city.gamma, 500000 + seed, 0.03)


def mma_training_samples(city: CityData, augment: int = 0, seed: int = 0) -> list[MMASample]:
    """Featureised, labelled observed-point sequences of the train split
    (+ augmentation)."""
    samples = []
    for tr in city.trajs("train") + augmented_trajs(city, augment, seed):
        obs = np.where(tr.observed)[0]
        if len(obs) < 2:
            continue
        samples.append(
            build_mma_sample(
                city.net,
                city.index,
                tr.x[obs],
                tr.y[obs],
                tr.t[obs],
                tr.t0,
                city.norm,
                true_seg=tr.seg[obs],
            )
        )
    return samples


def train_mma(
    city: CityData,
    samples: list[MMASample],
    n2v: np.ndarray,
    epochs: int = 8,
    lr: float = 2e-3,
    d: int = 32,
    batch: int = 8,
    seed: int = 0,
    use_context: bool = True,
    use_direction: bool = True,
    verbose: bool = False,
) -> MMAModel:
    """Train MMA on ``samples`` (from :func:`mma_training_samples`) with
    segment embeddings initialised from ``n2v`` (Node2Vec, ``d`` columns);
    returns the fitted model.

    ``use_context`` / ``use_direction`` drive the paper's -C / -DI
    ablations.
    """
    model = MMAModel(
        city.net.n_segments, d0=d, d2=d, seed=seed, n2v_init=n2v, use_context=use_context,
        use_direction=use_direction,
    )
    means = fit(
        model.parameters(), len(samples), lambda idx: mean_of([model.loss(samples[i]) for i in idx]),
        epochs, lr, batch, seed, decay_epoch=(epochs * 3) // 4,  # step decay for the final quarter
    )
    if verbose:
        for ep, loss in enumerate(means):
            print(f"[mma:{city.name}] epoch {ep + 1}/{epochs} loss={loss:.4f}")
    return model
