"""Standard layers on top of :mod:`repro.nn.autodiff`.

``Module`` collects parameters by attribute, in a fixed traversal order, so
the optimizer treats every model uniformly. The Spark runners broadcast a
model by pickling the object itself. Parameter init follows the usual
Glorot-uniform scheme with a per-module ``np.random.Generator`` for
determinism.

Each layer has one ``forward``, and its input's type picks the mode: a
:class:`Tensor` builds the autodiff graph (training), a plain array runs
the same ops on arrays and builds none (inference). Parameters are read
through :func:`repro.nn.autodiff.like`, so both modes give bit-identical
outputs.
"""
from __future__ import annotations

import numpy as np

from repro.nn.autodiff import Tensor, like, mean, relu


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

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


class Linear(Module):
    """Affine map ``x @ W + b`` (bias optional)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True):
        self.W = Tensor(glorot(rng, d_in, d_out), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def forward(self, x):
        y = x @ like(self.W, x)
        return y + like(self.b, x) if self.b is not None else y


class MLP(Module):
    """Feed-forward stack with ReLU between layers (none after the last)."""

    def __init__(self, dims: list[int], rng: np.random.Generator):
        if len(dims) < 2:
            raise ValueError("MLP needs at least [d_in, d_out]")
        self.layers = [Linear(dims[i], dims[i + 1], rng) for i in range(len(dims) - 1)]

    def forward(self, x):
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = relu(x)
        return x


class LayerNorm(Module):
    """Layer normalisation over the last axis with learnable scale/shift."""

    def __init__(self, d: int):
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def forward(self, x):
        centered = x - mean(x, axis=-1, keepdims=True)
        var = mean(centered * centered, axis=-1, keepdims=True)
        return centered * (var + 1e-5) ** -0.5 * like(self.gamma, x) + like(self.beta, x)


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

    def forward(self, ids, x):
        """Rows of ``ids`` in the mode of ``x``, any input of the calling
        model (ids carry no type)."""
        return like(self.W, x)[np.asarray(ids, dtype=np.int64)]
