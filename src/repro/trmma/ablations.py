"""TRMMA ablations (Table IV of the paper).

Eight variants, each a recoverer for :func:`repro.trmma.infer.run_recovery`:

* **TRMMA** — the full method (MMA matching + DualFormer + decoder).
* **TRMMA-HMM** — MMA replaced by the FMM HMM matcher.
* **TRMMA-Near** — MMA replaced by nearest-segment matching.
* **MMA+linear** — MMA matching, linear interpolation instead of the model.
* **Nearest+linear** — nearest matching + linear interpolation.
* **TRMMA-DF** — no DualFormer fusion (H = R), trained separately.
* **TRMMA-C** — MMA trained without candidate context in point embeddings.
* **TRMMA-DI** — MMA trained/run without directional cosine features.
"""
from __future__ import annotations

import numpy as np

from repro.mma.baselines import HMMMatcher, MMAMatcher, NearestMatcher
from repro.mma.train import train_mma
from repro.traj.datasets import CityData
from repro.trmma.baselines import LinearRecoverer
from repro.trmma.infer import TRMMARecoverer
from repro.trmma.train import train_mma_trmma, train_trmma


def train_ablation_suite(
    city: CityData,
    mma_epochs: int = 8,
    trmma_epochs: int = 4,
    seed: int = 0,
    costs: np.ndarray | None = None,
    mma_augment: int = 800,
    trmma_augment: int = 250,
    verbose: bool = False,
) -> dict[str, object]:
    """Train every model variant once and assemble the 8 recoverers.

    Returns ``{name: recoverer}`` in the paper's Table IV row order. The
    heavy pieces (Node2Vec, time stats, the training data incl. simulated
    history) are built once by :func:`repro.trmma.train.train_mma_trmma`
    and shared across variants exactly as the ablation design requires.
    """
    net, index, norm = city.net, city.index, city.norm
    n2v, tpm, samples, mma, trmma, mma_samples = train_mma_trmma(
        city, seed=seed, mma_epochs=mma_epochs, trmma_epochs=trmma_epochs,
        mma_augment=mma_augment, trmma_augment=trmma_augment, verbose=verbose,
    )

    mma_nc = train_mma(city, mma_samples, n2v, epochs=mma_epochs, seed=seed, use_context=False,
                       verbose=verbose)
    mma_ndi = train_mma(city, mma_samples, n2v, epochs=mma_epochs, seed=seed, use_direction=False,
                        verbose=verbose)
    trmma_df = train_trmma(city, samples, n2v, epochs=trmma_epochs, seed=seed, use_dualformer=False,
                           verbose=verbose)

    m_full = MMAMatcher(net, index, norm, mma)
    m_nc = MMAMatcher(net, index, norm, mma_nc)
    m_ndi = MMAMatcher(net, index, norm, mma_ndi)
    m_hmm = HMMMatcher(net, index, norm)
    m_near = NearestMatcher(net, index, norm)

    def rec(matcher, model):
        return TRMMARecoverer(matcher, model, norm, city.eps, costs=costs, time_per_meter=tpm)

    return {
        "TRMMA": rec(m_full, trmma),
        "TRMMA-HMM": rec(m_hmm, trmma),
        "TRMMA-Near": rec(m_near, trmma),
        "MMA+linear": LinearRecoverer(m_full, city.eps, costs=costs),
        "Nearest+linear": LinearRecoverer(m_near, city.eps, costs=costs),
        "TRMMA-DF": rec(m_full, trmma_df),
        "TRMMA-C": rec(m_nc, trmma),
        "TRMMA-DI": rec(m_ndi, trmma),
    }
