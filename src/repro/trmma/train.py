"""Driver-side training for TRMMA (Eq. (21) objective, teacher forcing),
plus the historical per-segment travel-time statistic that feeds the
expected-offset prior (see :meth:`repro.trmma.model.TRMMAModel.expected_offsets`),
and :func:`train_mma_trmma`, the MMA + TRMMA pair Tables III and IV share.

Callers build the training inputs (samples, Node2Vec, the prior) once and
pass them in; :func:`train_trmma` only consumes them. For Tables III and IV
that caller is :func:`train_mma_trmma`, which returns the inputs with the
models so the Table IV variants train on the same copies.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from pyspark.sql import functions as F

from repro.mma.features import MMASample
from repro.mma.model import MMAModel
from repro.mma.train import augmented_trajs, mma_training_samples, train_mma
from repro.nn.autodiff import mean_of
from repro.nn.optim import fit
from repro.roadnet.node2vec import node2vec_embeddings
from repro.traj.datasets import CityData
from repro.trmma.features import build_train_sample
from repro.trmma.model import TRMMAModel, TrmmaSample


def segment_time_stats(city: CityData, split: str = "train") -> np.ndarray:
    """Historical time-per-metre per segment, from the train split.

    A segment traversed with dwell time ``T`` contributes ``T/ε`` ε-ticks,
    so ``ε × (avg ticks per traversal) / length`` estimates seconds per
    metre — capturing both per-road speeds and stop propensities. Computed
    with Spark SQL over the ground-truth points table; segments without
    data fall back to the city median. Returned values are *relative*
    (divided by the median) since the prior only needs time shares.
    """
    per_trav = (
        city.points.filter(F.col("split") == split)
        .groupBy("traj_id", "seg")
        .agg(F.count("*").alias("ticks"))
        .groupBy("seg")
        .agg(F.avg("ticks").alias("avg_ticks"))
    )
    rows = per_trav.collect()
    n = city.net.n_segments
    tpm = np.full(n, np.nan)
    for r in rows:
        seg = int(r["seg"])
        tpm[seg] = city.eps * float(r["avg_ticks"]) / float(city.net.length[seg])
    med = float(np.nanmedian(tpm)) if np.isfinite(np.nanmedian(tpm)) else 1.0
    tpm = np.where(np.isnan(tpm), med, tpm)
    return tpm / max(med, 1e-9)


def segment_time_stats_trajs(net, trajs, eps: float) -> np.ndarray:
    """Numpy variant of :func:`segment_time_stats` over trajectory objects
    (used when training augments with simulated historical trajectories)."""
    from collections import defaultdict

    ticks = defaultdict(list)
    for tr in trajs:
        vals, cnts = np.unique(tr.seg, return_counts=True)
        for v, c in zip(vals, cnts):
            ticks[int(v)].append(c)
    tpm = np.full(net.n_segments, np.nan)
    for seg, cs in ticks.items():
        tpm[seg] = eps * float(np.mean(cs)) / float(net.length[seg])
    med = float(np.nanmedian(tpm)) if np.isfinite(np.nanmedian(tpm)) else 1.0
    tpm = np.where(np.isnan(tpm), med, tpm)
    return tpm / max(med, 1e-9)


def trmma_training_samples(
    city: CityData, trajs, time_per_meter: np.ndarray | None = None
) -> list[TrmmaSample]:
    """Teacher-forcing samples of ``trajs`` (e.g. ``city.trajs("train")``)."""
    out = []
    for tr in trajs:
        s = build_train_sample(city.net, tr, city.norm, time_per_meter=time_per_meter)
        if s is not None:
            out.append(s)
    return out


def train_trmma(
    city: CityData,
    samples: list[TrmmaSample],
    n2v: np.ndarray,
    epochs: int = 5,
    lr: float = 2e-3,
    d_h: int = 32,
    batch: int = 4,
    seed: int = 0,
    use_dualformer: bool = True,
    time_per_meter: np.ndarray | None = None,
    verbose: bool = False,
) -> TRMMAModel:
    """Train TRMMA on ``samples`` (from :func:`trmma_training_samples`, GT
    routes, teacher forcing) with segment embeddings initialised from
    ``n2v`` (Node2Vec, ``d_h`` columns); returns the fitted model.

    ``use_dualformer=False`` is the paper's TRMMA-DF ablation (H = R).
    Build ``samples`` with the same ``time_per_meter`` (from
    :func:`segment_time_stats_trajs`) used at inference so the
    expected-offset prior matches; the samples carry it, so the
    ``time_per_meter`` passed here is not read.
    """
    model = TRMMAModel(
        city.net.n_segments, d_h=d_h, seed=seed, n2v_init=n2v, use_dualformer=use_dualformer
    )

    def batch_loss(idx):
        losses = [loss for loss, _ in (model.loss(samples[i]) for i in idx) if loss is not None]
        return mean_of(losses) if losses else None

    means = fit(model.parameters(), len(samples), batch_loss, epochs, lr, batch, seed)
    if verbose:
        for ep, loss in enumerate(means):
            print(f"[trmma:{city.name}] epoch {ep + 1}/{epochs} loss={loss:.4f}")
    return model


class TrainedPair(NamedTuple):
    """MMA and TRMMA trained on one city, with their training inputs."""

    n2v: np.ndarray
    time_per_meter: np.ndarray
    samples: list[TrmmaSample]
    mma: MMAModel
    trmma: TRMMAModel
    mma_samples: list[MMASample]


def train_mma_trmma(
    city: CityData,
    seed: int = 0,
    mma_epochs: int = 8,
    trmma_epochs: int = 4,
    mma_augment: int = 800,
    trmma_augment: int = 250,
    verbose: bool = False,
) -> TrainedPair:
    """Train the full MMA and TRMMA as Tables III and IV do.

    Builds every training input once and returns it with the models, so
    the Table IV variants train on the same copies: Node2Vec (d = 32);
    MMA's samples from the train split plus ``mma_augment`` simulated
    trajectories; the time-per-metre prior and TRMMA's samples from the
    train split plus ``trmma_augment`` simulated trajectories.
    """
    n2v = node2vec_embeddings(city.net, d=32, seed=seed)
    hist = city.trajs("train") + augmented_trajs(city, trmma_augment, seed)
    tpm = segment_time_stats_trajs(city.net, hist, city.eps)
    samples = trmma_training_samples(city, trajs=hist, time_per_meter=tpm)
    mma_samples = mma_training_samples(city, augment=mma_augment, seed=seed)
    mma = train_mma(city, mma_samples, n2v, epochs=mma_epochs, seed=seed, verbose=verbose)
    trmma = train_trmma(city, samples, n2v, epochs=trmma_epochs, seed=seed, verbose=verbose)
    return TrainedPair(n2v, tpm, samples, mma, trmma, mma_samples)
