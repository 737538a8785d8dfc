"""Driver-side training for TRMMA (Eq. (21) objective, teacher forcing),
plus the historical per-segment travel-time statistic that feeds the
expected-offset prior (see :meth:`repro.trmma.model.TRMMAModel.expected_offsets`),
and :func:`train_mma_trmma`, the MMA + TRMMA pair Tables III and IV share.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
from pyspark.sql import functions as F

from repro.mma.model import MMAModel
from repro.mma.train import augmented_trajs, train_mma
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


def trmma_train_trajs(city: CityData, augment: int = 0, seed: int = 0):
    """Train-split trajectories plus optional simulated history (see
    :func:`repro.mma.train.augmented_trajs`)."""
    return city.trajs("train") + augmented_trajs(city, augment, seed)


def trmma_training_samples(
    city: CityData, time_per_meter: np.ndarray | None = None, trajs=None
) -> list[TrmmaSample]:
    """Teacher-forcing samples of ``trajs`` (default: the train split)."""
    out = []
    for tr in trajs if trajs is not None else city.trajs("train"):
        s = build_train_sample(city.net, tr, city.norm, time_per_meter=time_per_meter)
        if s is not None:
            out.append(s)
    return out


def train_trmma(
    city: CityData,
    epochs: int = 5,
    lr: float = 2e-3,
    d_h: int = 32,
    batch: int = 4,
    lam: float = 2.0,
    seed: int = 0,
    use_dualformer: bool = True,
    n2v: np.ndarray | None = None,
    time_per_meter: np.ndarray | None = None,
    samples: list[TrmmaSample] | None = None,
    augment: int = 0,
    verbose: bool = False,
) -> TRMMAModel:
    """Train TRMMA on a city's train split (GT routes, teacher forcing).

    ``use_dualformer=False`` is the paper's TRMMA-DF ablation (H = R).
    Pass the same ``time_per_meter`` (from :func:`segment_time_stats_trajs`)
    used at inference so the expected-offset prior matches.
    """
    if n2v is None:
        n2v = node2vec_embeddings(city.net, d=d_h, seed=seed)
    if samples is None:
        trajs = trmma_train_trajs(city, augment=augment, seed=seed) if augment else None
        samples = trmma_training_samples(city, time_per_meter=time_per_meter, trajs=trajs)
    model = TRMMAModel(
        city.net.n_segments, d_h=d_h, seed=seed, n2v_init=n2v, use_dualformer=use_dualformer
    )

    def batch_loss(idx):
        losses = [loss for loss, _ in (model.loss(samples[i], lam=lam) for i in idx) if loss is not None]
        return mean_of(losses) if losses else None

    means = fit(model.parameters(), len(samples), batch_loss, epochs, lr, batch, seed)
    if verbose:
        for ep, loss in enumerate(means):
            print(f"[trmma:{city.name}] epoch {ep + 1}/{epochs} loss={loss:.4f}")
    return model


class TrainedPair(NamedTuple):
    """MMA and TRMMA trained on one city, with the inputs they share."""

    n2v: np.ndarray
    time_per_meter: np.ndarray
    samples: list[TrmmaSample]
    mma: MMAModel
    trmma: TRMMAModel


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

    Node2Vec (d = 32), the time-per-metre prior and TRMMA's samples come
    from the train split plus ``trmma_augment`` simulated trajectories, and
    are returned so the Table IV variants train on the same inputs.
    """
    n2v = node2vec_embeddings(city.net, d=32, seed=seed)
    hist = trmma_train_trajs(city, augment=trmma_augment, seed=seed)
    tpm = segment_time_stats_trajs(city.net, hist, city.eps)
    samples = trmma_training_samples(city, time_per_meter=tpm, trajs=hist)
    mma = train_mma(city, epochs=mma_epochs, seed=seed, n2v=n2v, augment=mma_augment, verbose=verbose)
    trmma = train_trmma(city, epochs=trmma_epochs, seed=seed, n2v=n2v, time_per_meter=tpm,
                        samples=samples, verbose=verbose)
    return TrainedPair(n2v, tpm, samples, mma, trmma)
