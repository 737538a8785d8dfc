"""GRU (Cho et al. 2014), the sequential decoder backbone of TRMMA (§V) and
of the MTrajRec-style baselines.

``GRUCell.forward`` advances one step; :class:`GRU` unrolls a full input
sequence and returns all hidden states. Like every layer, each runs on
plain arrays or builds the autodiff graph, as its input's type says.
Sequences here are short (tens of steps), so the Python-level unroll is
cheap and keeps the autodiff graph simple.
"""
from __future__ import annotations

import numpy as np

from repro.nn.autodiff import concat, sigmoid, stack, tanh
from repro.nn.layers import Linear, Module


class GRUCell(Module):
    """Single GRU step: h' = (1-z)*h + z*ĥ with reset/update gates."""

    def __init__(self, d_in: int, d_h: int, rng: np.random.Generator):
        self.d_h = d_h
        self.Wz = Linear(d_in + d_h, d_h, rng)
        self.Wr = Linear(d_in + d_h, d_h, rng)
        self.Wh = Linear(d_in + d_h, d_h, rng)

    def forward(self, x, h):
        xh = concat([x, h], axis=-1)
        z = sigmoid(self.Wz(xh))
        r = sigmoid(self.Wr(xh))
        hhat = tanh(self.Wh(concat([x, r * h], axis=-1)))
        return (1.0 - z) * h + z * hhat

    def init_state(self) -> np.ndarray:
        """The zero state; a constant, so valid in either mode."""
        return np.zeros(self.d_h)


class GRU(Module):
    """Unrolls a GRUCell over a sequence ``X ∈ R^{ℓ × d_in}``.

    Returns ``H ∈ R^{ℓ × d_h}`` (hidden state after each step), starting
    from the zero state. The decoders that seed their state (e.g. with the
    mean-pooled encoder output, Alg. 2 line 6) step a :class:`GRUCell`.
    """

    def __init__(self, d_in: int, d_h: int, rng: np.random.Generator):
        self.cell = GRUCell(d_in, d_h, rng)

    def forward(self, x):
        h = self.cell.init_state()
        outs = []
        for i in range(x.shape[0]):
            h = self.cell(x[i], h)
            outs.append(h)
        return stack(outs, axis=0)


class BiGRU(Module):
    """Bidirectional GRU encoder (used by the DHTR-lite baseline, which the
    paper describes as a BiLSTM-based free-space recovery model)."""

    def __init__(self, d_in: int, d_h: int, rng: np.random.Generator):
        self.fwd = GRU(d_in, d_h, rng)
        self.bwd = GRU(d_in, d_h, rng)

    def forward(self, x):
        hf = self.fwd(x)
        rev = np.arange(x.shape[0] - 1, -1, -1)
        hb = self.bwd(x[rev])[rev]
        return concat([hf, hb], axis=-1)
