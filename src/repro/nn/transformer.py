"""Transformer encoder (Vaswani et al.) per Eqs. (4)-(6) of the paper.

Operates on a single sequence ``X ∈ R^{ℓ × d}`` (the paper's trajectories
and routes are short, so we process one sequence at a time rather than
padded batches). Includes sinusoidal positional encoding, multi-head
self-attention, position-wise FFN, residual connections and LayerNorm —
the exact composition of Eq. (6). Each ``forward`` runs on plain arrays or
builds the autodiff graph, as its input's type says (see
:mod:`repro.nn.layers`).
"""
from __future__ import annotations

import numpy as np

from repro.nn.autodiff import relu, softmax
from repro.nn.layers import LayerNorm, Linear, Module


def positional_encoding(length: int, d: int) -> np.ndarray:
    """Standard sinusoidal position encodings, shape ``(length, d)``."""
    pos = np.arange(length)[:, None].astype(np.float64)
    i = np.arange(d)[None, :].astype(np.float64)
    angle = pos / np.power(10000.0, (2 * (i // 2)) / d)
    enc = np.zeros((length, d))
    enc[:, 0::2] = np.sin(angle[:, 0::2])
    enc[:, 1::2] = np.cos(angle[:, 1::2])
    return enc


class MultiHeadAttention(Module):
    """Multi-head scaled dot-product self/cross attention (Eq. (4))."""

    def __init__(self, d: int, n_heads: int, rng: np.random.Generator):
        if d % n_heads:
            raise ValueError(f"d={d} not divisible by n_heads={n_heads}")
        self.d = d
        self.h = n_heads
        self.dk = d // n_heads
        self.Wq = Linear(d, d, rng, bias=False)
        self.Wk = Linear(d, d, rng, bias=False)
        self.Wv = Linear(d, d, rng, bias=False)
        self.Wo = Linear(d, d, rng, bias=False)

    def forward(self, q, k, v):
        lq, lk = q.shape[0], k.shape[0]
        # (ℓ, d) → (h, ℓ, dk)
        Q = self.Wq(q).reshape(lq, self.h, self.dk).transpose(1, 0, 2)
        K = self.Wk(k).reshape(lk, self.h, self.dk).transpose(1, 0, 2)
        V = self.Wv(v).reshape(lk, self.h, self.dk).transpose(1, 0, 2)
        attn = softmax((Q @ K.transpose(0, 2, 1)) * (1.0 / np.sqrt(self.dk)), axis=-1)
        out = (attn @ V).transpose(1, 0, 2).reshape(lq, self.d)
        return self.Wo(out)


class TransformerLayer(Module):
    """One encoder layer: MHA + FFN with residual + LayerNorm (Eq. (6))."""

    def __init__(self, d: int, n_heads: int, d_ffn: int, rng: np.random.Generator):
        self.attn = MultiHeadAttention(d, n_heads, rng)
        self.ffn1 = Linear(d, d_ffn, rng)
        self.ffn2 = Linear(d_ffn, d, rng)
        self.ln1 = LayerNorm(d)
        self.ln2 = LayerNorm(d)

    def forward(self, x):
        x = self.ln1(x + self.attn(x, x, x))
        return self.ln2(x + self.ffn2(relu(self.ffn1(x))))


class TransformerEncoder(Module):
    """Stack of :class:`TransformerLayer` (FFN width 4·d) with positional
    encoding added to the input, as used for ``Trans`` in Eq. (3) and
    ``Trans_T``/``Trans_R`` in Eqs. (11)-(12)."""

    def __init__(self, d: int, n_layers: int = 2, n_heads: int = 2, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layers = [TransformerLayer(d, n_heads, 4 * d, rng) for _ in range(n_layers)]
        self.d = d

    def forward(self, x):
        x = x + positional_encoding(x.shape[0], self.d)
        for layer in self.layers:
            x = layer(x)
        return x
