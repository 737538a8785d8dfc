"""Reverse-mode autodiff over numpy arrays.

A :class:`Tensor` wraps an ``np.ndarray`` and records the operations that
produced it; :meth:`Tensor.backward` runs a topological sweep accumulating
gradients into ``.grad`` for every tensor with ``requires_grad=True``.

Broadcasting follows numpy semantics: every op that may broadcast routes its
upstream gradient through :func:`_unbroadcast`, which sums the gradient over
the broadcast axes so shapes always match the forward operands.

Only the ops the reproduction's models need are implemented — matmul,
elementwise arithmetic, relu/sigmoid/tanh/exp/log/pow, sum/mean,
reshape/transpose/slicing, concat/stack, and composite softmax /
log-softmax. All math is float64.

The free functions (``relu``, ``sigmoid``, ``tanh``, ``softmax``, ``mean``,
``concat``, ``stack``) take either type: on a :class:`Tensor` they run the
Tensor op, on a plain array the same numpy ops in the same order. So one
``forward`` per layer serves both modes, chosen by its input's type:
training feeds Tensors and builds the graph, inference feeds arrays and
builds none, and both give bit-identical outputs. :func:`like` puts a
parameter or constant in its input's mode.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original operand.
    for ax, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autodiff graph. See module docstring."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    __array_priority__ = 100  # make np.ndarray defer to our __r*__ ops

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    # -- graph plumbing ---------------------------------------------------
    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def _make(self, data, parents, backward) -> "Tensor":
        out = Tensor(data)
        out.requires_grad = any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        o = Tensor._lift(other)

        def backward(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, o.shape)

        return self._make(self.data + o.data, (self, o), backward)

    __radd__ = __add__

    def __mul__(self, other):
        o = Tensor._lift(other)

        def backward(g):
            return (
                _unbroadcast(g * o.data, self.shape),
                _unbroadcast(g * self.data, o.shape),
            )

        return self._make(self.data * o.data, (self, o), backward)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __truediv__(self, other):
        return self * Tensor._lift(other).pow(-1.0)

    def __rtruediv__(self, other):
        return Tensor._lift(other) * self.pow(-1.0)

    def pow(self, p: float) -> "Tensor":
        def backward(g):
            return (_unbroadcast(g * p * np.power(self.data, p - 1), self.shape),)

        return self._make(np.power(self.data, p), (self,), backward)

    __pow__ = pow

    def __matmul__(self, other):
        o = Tensor._lift(other)

        def backward(g):
            a, b = self.data, o.data
            # numpy matmul treats 1-D operands as a prepended row vector /
            # appended column vector and squeezes the result; reinstate
            # those axes so the 2-D gradient algebra applies, then squeeze.
            if a.ndim == 1 and b.ndim == 1:  # dot product → scalar
                return g * b, g * a
            if a.ndim == 1:
                gg = np.expand_dims(g, -2)
                ga = _unbroadcast(gg @ np.swapaxes(b, -1, -2), (1, a.shape[0])).reshape(a.shape)
                gb = _unbroadcast(a[:, None] @ gg, b.shape)
                return ga, gb
            if b.ndim == 1:
                gg = np.expand_dims(g, -1)
                ga = _unbroadcast(gg @ b[None, :], a.shape)
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ gg, b.shape + (1,)).reshape(b.shape)
                return ga, gb
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

        return self._make(self.data @ o.data, (self, o), backward)

    # -- elementwise nonlinearities ---------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(g):
            return (g * mask,)

        return self._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        s = sigmoid(self.data)

        def backward(g):
            return (g * s * (1 - s),)

        return self._make(s, (self,), backward)

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)

        def backward(g):
            return (g * (1 - t * t),)

        return self._make(t, (self,), backward)

    def exp(self) -> "Tensor":
        e = np.exp(self.data.clip(-700, 700))

        def backward(g):
            return (g * e,)

        return self._make(e, (self,), backward)

    def log(self) -> "Tensor":
        def backward(g):
            return (g / self.data,)

        return self._make(np.log(self.data), (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data > lo) & (self.data < hi)

        def backward(g):
            return (g * mask,)

        return self._make(self.data.clip(lo, hi), (self,), backward)

    # -- reductions -------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, self.shape).copy(),)

        return self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    # -- shape ops --------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])

        def backward(g):
            return (g.reshape(self.shape),)

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)

        def backward(g):
            return (g.transpose(inv),)

        return self._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, idx) -> "Tensor":
        def backward(g):
            grad = np.zeros_like(self.data)
            np.add.at(grad, idx, g)
            return (grad,)

        return self._make(self.data[idx], (self,), backward)

    # -- composites -------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        e = shifted.exp()
        return e / e.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    # -- backward ---------------------------------------------------------
    def backward(self, grad=None) -> None:
        """Accumulate gradients of ``self`` w.r.t. every reachable leaf."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [self]
        # Iterative DFS (deep graphs from GRU unrolling would blow the
        # recursion limit).
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            unvisited = [p for p in node._parents if id(p) not in seen]
            if unvisited:
                stack.append(node)
                stack.extend(unvisited)
            else:
                seen.add(id(node))
                topo.append(node)
        grads: dict[int, np.ndarray] = {id(self): _as_array(grad)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad and node._backward is None:
                node.grad = g if node.grad is None else node.grad + g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def like(v, x):
    """``v`` in ``x``'s mode: ``v`` as a Tensor when ``x`` is one (a
    parameter stays itself, so gradients reach it), else as a plain array
    (a parameter's ``.data``)."""
    if isinstance(x, Tensor):
        return Tensor._lift(v)
    return v.data if isinstance(v, Tensor) else v


def relu(x):
    return x.relu() if isinstance(x, Tensor) else x * (x > 0)


def sigmoid(x):
    if isinstance(x, Tensor):
        return x.sigmoid()
    return 1.0 / (1.0 + np.exp(-x.clip(-60, 60)))


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def softmax(x, axis: int = -1):
    """Shift, clipped exp, then the division as a product with the sum's
    reciprocal (:meth:`Tensor.softmax`'s ops on an array)."""
    if isinstance(x, Tensor):
        return x.softmax(axis=axis)
    e = np.exp((x - x.max(axis=axis, keepdims=True)).clip(-700, 700))
    return e * np.power(e.sum(axis=axis, keepdims=True), -1.0)


def mean(x, axis=None, keepdims: bool = False):
    """The sum times ``1/n`` (not numpy's mean, which rounds differently)."""
    n = int(np.prod(x.shape)) if axis is None else x.shape[axis]
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def concat(tensors: Sequence, axis: int = -1):
    """Concatenate along ``axis``; differentiable if any part is a Tensor."""
    if Tensor not in map(type, tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [Tensor._lift(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    out.requires_grad = any(t.requires_grad for t in tensors)
    if out.requires_grad:
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def stack(tensors: Sequence, axis: int = 0):
    """Stack equal shapes along a new ``axis``; differentiable if any part
    is a Tensor."""
    if Tensor not in map(type, tensors):
        return np.stack(tensors, axis=axis)
    tensors = [Tensor._lift(t) for t in tensors]

    def backward(g):
        parts = np.split(g, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    out = Tensor(np.stack([t.data for t in tensors], axis=axis))
    out.requires_grad = any(t.requires_grad for t in tensors)
    if out.requires_grad:
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def mean_of(tensors: Sequence[Tensor]) -> Tensor:
    """Mean of equal-shape tensors: summed left to right, then scaled by
    ``1 / len``. Every batch average of per-sample losses, and the
    per-tick average of the recovery baselines' teacher-forced rollouts,
    goes through here, so the float rounding (and hence every trained
    weight) is one fixed recipe."""
    total = tensors[0]
    for t in tensors[1:]:
        total = total + t
    return total * (1.0 / len(tensors))

