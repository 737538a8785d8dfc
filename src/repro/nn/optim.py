"""Adam optimizer (Kingma & Ba) for :class:`repro.nn.autodiff.Tensor` params,
and :func:`fit`, the mini-batch training loop every learned model shares."""
from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.autodiff import Tensor

B1, B2 = 0.9, 0.999  # Adam's moment decay rates (Kingma & Ba's defaults)


class Adam:
    """Standard Adam with bias correction and optional gradient clipping.

    ``clip`` bounds the global gradient norm per step — the GRU decoder
    unrolls make this worthwhile at our tiny batch sizes.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3, clip: float | None = 5.0):
        self.params = list(params)
        self.lr = lr
        self.clip = clip
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in self.params]
        if self.clip is not None:
            norm = float(np.sqrt(sum(float((g * g).sum()) for g in grads)))
            if norm > self.clip:
                scale = self.clip / (norm + 1e-12)
                grads = [g * scale for g in grads]
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= B1
            m += (1 - B1) * g
            v *= B2
            v += (1 - B2) * g * g
            mhat = m / (1 - B1**self.t)
            vhat = v / (1 - B2**self.t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + 1e-8)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def fit(
    params: list[Tensor],
    n: int,
    batch_loss: Callable[[np.ndarray], Tensor | None],
    epochs: int,
    lr: float,
    batch: int,
    seed: int,
    decay_epoch: int | None = None,
) -> list[float]:
    """Train ``params`` with Adam over shuffled mini-batches of ``n`` items.

    Each epoch takes one permutation of ``range(n)`` from a generator seeded
    once with ``seed``; per slice of ``batch`` indices it runs ``zero_grad``,
    ``batch_loss(idx)``, ``backward`` and ``step``. A batch whose loss is
    ``None`` (no trainable term) is skipped without a step. From epoch
    ``decay_epoch`` on the learning rate is 0.3× (a step decay). Returns the
    mean loss of each epoch, each stepped batch weighted by its size.
    """
    opt = Adam(params, lr=lr)
    rng = np.random.default_rng(seed)
    means = []
    for ep in range(epochs):
        if ep == decay_epoch:
            opt.lr *= 0.3
        order = rng.permutation(n)
        total, cnt = 0.0, 0
        for lo in range(0, n, batch):
            idx = order[lo : lo + batch]
            opt.zero_grad()
            loss = batch_loss(idx)
            if loss is None:
                continue
            loss.backward()
            opt.step()
            total += loss.item() * len(idx)
            cnt += len(idx)
        means.append(total / max(cnt, 1))
    return means
