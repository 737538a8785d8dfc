"""Standard layers on top of :mod:`repro.nn.autodiff`.

``Module`` provides parameter registration/collection so optimizers and the
Spark broadcast path (``state_dict``/``load_state_dict``) can treat every
model uniformly. Parameter init follows the usual Glorot-uniform scheme with
a per-module ``np.random.Generator`` for determinism.

Each layer has two forward passes over the same weights: ``forward`` builds
the autodiff graph and is used for training only; ``forward_np`` is plain
numpy for inference. ``forward_np`` repeats ``forward``'s ops in the same
order (a mean is a sum times ``1/n``, a division a product with the
reciprocal), so both give bit-identical outputs.
"""
from __future__ import annotations

import numpy as np

from repro.nn.autodiff import Tensor, relu


class Module:
    """Base class: tracks parameters and sub-modules by attribute name."""

    def parameters(self) -> list[Tensor]:
        """All trainable tensors of this module and its children."""
        out: list[Tensor] = []
        for v in self.__dict__.values():
            if isinstance(v, Tensor) and v.requires_grad:
                out.append(v)
            elif isinstance(v, Module):
                out.extend(v.parameters())
            elif isinstance(v, (list, tuple)):
                for x in v:
                    if isinstance(x, Module):
                        out.extend(x.parameters())
                    elif isinstance(x, Tensor) and x.requires_grad:
                        out.append(x)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def state_dict(self) -> list[np.ndarray]:
        """Parameter values in deterministic traversal order (for pickling
        to executors; pair with :meth:`load_state_dict`)."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: list[np.ndarray]) -> None:
        params = self.parameters()
        if len(params) != len(state):
            raise ValueError(f"state has {len(state)} arrays, model has {len(params)}")
        for p, a in zip(params, state):
            if p.data.shape != a.shape:
                raise ValueError(f"shape mismatch {p.data.shape} vs {a.shape}")
            p.data = a.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape or (fan_in, fan_out))


class Linear(Module):
    """Affine map ``x @ W + b`` (bias optional)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        self.W = Tensor(glorot(rng, d_in, d_out), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        y = x @ self.W
        return y + self.b if self.b is not None else y

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        y = x @ self.W.data
        return y + self.b.data if self.b is not None else y


class MLP(Module):
    """Feed-forward stack with ReLU between layers (none after the last)."""

    def __init__(self, dims: list[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("MLP needs at least [d_in, d_out]")
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = x.relu()
        return x

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        for i, layer in enumerate(self.layers):
            x = layer.forward_np(x)
            if i < len(self.layers) - 1:
                x = relu(x)
        return x


class LayerNorm(Module):
    """Layer normalisation over the last axis with learnable scale/shift."""

    def __init__(self, d: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        xhat = centered * (var + self.eps).pow(-0.5)
        return xhat * self.gamma + self.beta

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        inv_n = 1.0 / x.shape[-1]
        centered = x - x.sum(axis=-1, keepdims=True) * inv_n
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
        return centered * np.power(var + self.eps, -0.5) * self.gamma.data + self.beta.data


class Embedding(Module):
    """Id → dense vector lookup table, optionally initialised from
    pre-trained rows (the paper initialises segment embeddings from
    Node2Vec, Eq. (1))."""

    def __init__(self, n: int, d: int, rng: np.random.Generator, init: np.ndarray | None = None):
        if init is not None:
            if init.shape != (n, d):
                raise ValueError(f"init shape {init.shape} != ({n}, {d})")
            w = np.array(init, dtype=np.float64)
        else:
            w = rng.normal(0, 0.1, size=(n, d))
        self.W = Tensor(w, requires_grad=True)

    def forward(self, ids) -> Tensor:
        return self.W[np.asarray(ids, dtype=np.int64)]

    def forward_np(self, ids) -> np.ndarray:
        return self.W.data[np.asarray(ids, dtype=np.int64)]
