"""Gradient checks and semantics for the numpy autodiff core."""
import numpy as np
import pytest

from repro.nn.autodiff import Tensor, concat, mean_of, stack
from tests.gradcheck import numeric_grad

RNG = np.random.default_rng(42)


def check_unary(op, shape=(3, 4), positive=False, tol=1e-6):
    x0 = np.abs(RNG.normal(size=shape)) + 0.5 if positive else RNG.normal(size=shape)
    x = Tensor(x0.copy(), requires_grad=True)
    (op(x) ** 2).sum().backward()

    def f(v):
        return float((op(Tensor(v)) ** 2).sum().data)

    ng = numeric_grad(f, x0.copy())
    assert np.abs(x.grad - ng).max() < tol


@pytest.mark.parametrize(
    "op,positive",
    [
        (lambda x: x.relu(), False),
        (lambda x: x.sigmoid(), False),
        (lambda x: x.tanh(), False),
        (lambda x: x.exp(), False),
        (lambda x: x.log(), True),
        (lambda x: x * 3.0 + 1.0, False),
        (lambda x: 2.0 - x, False),
        (lambda x: x / 2.0, False),
        (lambda x: 1.0 / (x + 3.0), True),  # positive shift keeps x+3 away from 0
        (lambda x: -x, False),
        (lambda x: x**3, False),
        (lambda x: x.softmax(axis=-1), False),
        (lambda x: x.log_softmax(axis=-1), False),
        (lambda x: x.clip(-0.5, 0.5), False),
    ],
)
def test_unary_gradients(op, positive):
    check_unary(op, positive=positive)


@pytest.mark.parametrize("ashape,bshape", [((3, 4), (4, 5)), ((4,), (4, 3)), ((3, 4), (4,)), ((4,), (4,)), ((2, 3, 4), (4, 5))])
def test_matmul_gradients(ashape, bshape):
    a0 = RNG.normal(size=ashape)
    b0 = RNG.normal(size=bshape)
    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    ((a @ b) ** 2).sum().backward()

    def fa(v):
        return float(((Tensor(v) @ Tensor(b0)) ** 2).sum().data)

    def fb(v):
        return float(((Tensor(a0) @ Tensor(v)) ** 2).sum().data)

    assert np.abs(a.grad - numeric_grad(fa, a0.copy())).max() < 1e-6
    assert np.abs(b.grad - numeric_grad(fb, b0.copy())).max() < 1e-6


def test_add_broadcast_gradients():
    a0 = RNG.normal(size=(3, 4))
    b0 = RNG.normal(size=(4,))
    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    ((a + b) ** 2).sum().backward()
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.allclose(b.grad, (2 * (a0 + b0)).sum(axis=0))


def test_mul_broadcast_scalar_tensor():
    a0 = RNG.normal(size=(2, 3))
    a = Tensor(a0.copy(), requires_grad=True)
    s = Tensor(np.array(2.0), requires_grad=True)
    ((a * s).sum()).backward()
    assert np.allclose(a.grad, 2.0)
    assert np.allclose(s.grad, a0.sum())


@pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), (-1, False)])
def test_sum_gradients(axis, keepdims):
    x0 = RNG.normal(size=(3, 5))
    x = Tensor(x0.copy(), requires_grad=True)
    (x.sum(axis=axis, keepdims=keepdims) ** 2).sum().backward()

    def f(v):
        return float((Tensor(v).sum(axis=axis, keepdims=keepdims) ** 2).sum().data)

    assert np.abs(x.grad - numeric_grad(f, x0.copy())).max() < 1e-6


def test_mean_of_gradients():
    parts = [RNG.normal(size=(2, 3)) for _ in range(3)]
    ts = [Tensor(p.copy(), requires_grad=True) for p in parts]
    (mean_of([t.tanh() for t in ts]) ** 2).sum().backward()
    for i, t in enumerate(ts):

        def f(v, i=i):
            return float((mean_of([Tensor(v if j == i else p).tanh() for j, p in enumerate(parts)]) ** 2).sum().data)

        assert np.abs(t.grad - numeric_grad(f, parts[i].copy())).max() < 1e-6
    assert np.allclose(mean_of(ts).data, np.mean(parts, axis=0))
    assert np.array_equal(mean_of(ts[:1]).data, parts[0])


def test_mean_matches_sum_scaled():
    x0 = RNG.normal(size=(4, 6))
    x = Tensor(x0.copy(), requires_grad=True)
    x.mean(axis=1).sum().backward()
    assert np.allclose(x.grad, 1.0 / 6)


def test_reshape_transpose_gradients():
    x0 = RNG.normal(size=(2, 3, 4))
    x = Tensor(x0.copy(), requires_grad=True)
    (x.reshape(6, 4).transpose() ** 2).sum().backward()
    assert np.allclose(x.grad, 2 * x0)


def test_getitem_int_and_fancy():
    x0 = RNG.normal(size=(5, 3))
    x = Tensor(x0.copy(), requires_grad=True)
    (x[2] ** 2).sum().backward()
    g = np.zeros_like(x0)
    g[2] = 2 * x0[2]
    assert np.allclose(x.grad, g)

    y = Tensor(x0.copy(), requires_grad=True)
    idx = np.array([1, 1, 4])
    (y[idx] ** 2).sum().backward()
    g2 = np.zeros_like(x0)
    np.add.at(g2, idx, 2 * x0[idx])
    assert np.allclose(y.grad, g2)


def test_concat_and_stack_gradients():
    a0 = RNG.normal(size=(2, 3))
    b0 = RNG.normal(size=(2, 2))
    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    (concat([a, b], axis=1) ** 2).sum().backward()
    assert np.allclose(a.grad, 2 * a0)
    assert np.allclose(b.grad, 2 * b0)

    c = Tensor(a0.copy(), requires_grad=True)
    d = Tensor(a0.copy(), requires_grad=True)
    (stack([c, d], axis=0) ** 2).sum().backward()
    assert np.allclose(c.grad, 2 * a0)
    assert np.allclose(d.grad, 2 * a0)


def test_reused_node_accumulates_gradient():
    x0 = RNG.normal(size=(3,))
    x = Tensor(x0.copy(), requires_grad=True)
    y = x * 2.0
    (y + y).sum().backward()
    assert np.allclose(x.grad, 4.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2).backward()


def test_no_grad_without_requires_grad():
    x = Tensor(np.ones(3))
    y = (x * 2).sum()
    y.backward()
    assert x.grad is None


def test_softmax_rows_sum_to_one():
    x = Tensor(RNG.normal(size=(4, 7)) * 10)
    s = x.softmax(axis=-1).data
    assert np.allclose(s.sum(axis=-1), 1.0)
    assert (s >= 0).all()


def test_log_softmax_consistent_with_softmax():
    x = Tensor(RNG.normal(size=(3, 5)))
    assert np.allclose(x.log_softmax(axis=-1).data, np.log(x.softmax(axis=-1).data))


def test_deep_chain_no_recursion_error():
    x = Tensor(np.ones(2), requires_grad=True)
    y = x
    for _ in range(3000):
        y = y + 1.0
    y.sum().backward()
    assert np.allclose(x.grad, 1.0)


def test_sigmoid_extreme_values_stable():
    x = Tensor(np.array([-1e4, 1e4]), requires_grad=True)
    y = x.sigmoid()
    assert np.isfinite(y.data).all()
    y.sum().backward()
    assert np.isfinite(x.grad).all()


def test_item_and_shape_helpers():
    x = Tensor(np.array([[2.5]]))
    assert x.item() == 2.5
    assert x.shape == (1, 1)
    assert x.ndim == 2
