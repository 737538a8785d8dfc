"""The MMA classification model (paper §IV-B, Fig. 3, Eqs. (1)-(10)).

Pipeline per sparse trajectory ``T``:

1. Point embedding: ``z^(0)`` (normalised x/y/t) → FC → transformer over the
   sequence (Eq. (3)) → ``z^(2)``.
2. Candidate embedding: segment-id embedding (Node2Vec-initialised, Eq. (1))
   ⊕ directional/geometric features → MLP (Eq. (2)) → ``c_j``.
3. Context attention: MLP attention of each candidate against ``z^(2)``
   (Eq. (7)), attention-weighted candidate sum added to the point embedding
   (Eq. (8)) — dropped by the ``-C`` ablation.
4. ``P(c_j | p_i) = sigmoid(c_j · p_i)`` (Eq. (9)); binary cross-entropy
   objective (Eq. (10)).
"""
from __future__ import annotations

import numpy as np

from repro.mma.features import MMASample, N_CAND_FEATS
from repro.nn.autodiff import Tensor, concat, softmax
from repro.nn.layers import Embedding, Linear, MLP, Module
from repro.nn.transformer import TransformerEncoder


class MMAModel(Module):
    """See module docstring. ``use_context=False`` → the -C ablation."""

    def __init__(
        self,
        n_segments: int,
        d0: int = 32,
        d2: int = 32,
        d1: int = 64,
        d3: int = 64,
        n_layers: int = 2,
        n_heads: int = 2,
        seed: int = 0,
        n2v_init: np.ndarray | None = None,
        use_context: bool = True,
    ):
        rng = np.random.default_rng(seed)
        self.use_context = use_context
        self.d2 = d2
        self.seg_emb = Embedding(n_segments, d0, rng, init=n2v_init)
        self.cand_mlp = MLP([d0 + N_CAND_FEATS, d1, d2], rng)
        self.point_fc = Linear(3, d2, rng)
        self.trans = TransformerEncoder(d2, n_layers=n_layers, n_heads=n_heads, rng=rng)
        self.attn_mlp = MLP([2 * d2, d3, 1], rng)

    def forward(self, s: MMASample, X):
        """Logits ``c_j · p_i`` of shape (ℓ, k_c); invalid slots get -1e9.

        ``X`` is ``s.X``, the point features: as an array the pass builds
        no graph, as a :class:`Tensor` it builds the autodiff graph."""
        ell, kc = s.cand.shape
        z2 = self.trans(self.point_fc(X))  # Eq.(3), (ℓ, d2)
        e_c = self.seg_emb(s.cand.reshape(-1), X)  # (ℓ·k, d0)
        zc = concat([e_c, s.feats.reshape(ell * kc, N_CAND_FEATS)], axis=-1)
        c = self.cand_mlp(zc).reshape(ell, kc, self.d2)  # Eq.(2)
        masked_out = np.where(s.mask, 0.0, -1e9)
        if self.use_context:
            # broadcast z2 to (ℓ, k, d2) for the per-candidate attention MLP
            z2e = z2.reshape(ell, 1, self.d2) + np.zeros((1, kc, 1))
            scores = self.attn_mlp(concat([z2e, c], axis=-1)).reshape(ell, kc)  # Eq.(7)
            alpha = softmax(scores + masked_out, axis=-1)
            p = z2 + (alpha.reshape(ell, kc, 1) * c).sum(axis=1)  # Eq.(8)
        else:
            p = z2
        return (c * p.reshape(ell, 1, self.d2)).sum(axis=-1) + masked_out  # Eq.(9) pre-sigmoid

    def loss(self, s: MMASample) -> Tensor:
        """Binary cross-entropy over candidates (Eq. (10)), averaged over
        the trajectory's points; unmatched points (label -1) contribute
        only negative terms, mirroring the paper's all-class-0 case."""
        logits = self.forward(s, Tensor(s.X))
        ell, kc = s.cand.shape
        y = np.zeros((ell, kc))
        rows = np.where(s.label >= 0)[0]
        y[rows, s.label[rows]] = 1.0
        # numerically stable BCE-with-logits on valid slots only
        z = logits.clip(-30.0, 30.0)
        p = z.sigmoid()
        eps = 1e-9
        bce = -(Tensor(y) * (p + eps).log() + Tensor(1.0 - y) * (1.0 - p + eps).log())
        m = s.mask.astype(np.float64)
        return (bce * Tensor(m)).sum() * (1.0 / max(1.0, m.sum()))

    def predict(self, s: MMASample) -> np.ndarray:
        """Matched segment id per point: argmax_{c ∈ C} P(c|p) (Alg.1 l.9)."""
        pick = self.forward(s, s.X).argmax(axis=1)
        return s.cand[np.arange(len(pick)), pick]
