"""Tests for layers, modules and the Adam optimizer."""
import numpy as np
import pytest

from repro.nn.autodiff import Tensor, concat, mean, relu, sigmoid, softmax, stack, tanh
from repro.nn.layers import Embedding, LayerNorm, Linear, MLP, Module, glorot
from repro.nn.optim import Adam, fit
from tests.gradcheck import numeric_grad

RNG = np.random.default_rng(7)


def test_linear_shapes_and_bias():
    lin = Linear(4, 3, np.random.default_rng(0))
    out = lin(Tensor(RNG.normal(size=(5, 4))))
    assert out.shape == (5, 3)
    nb = Linear(4, 3, np.random.default_rng(0), bias=False)
    assert nb.b is None
    assert len(nb.parameters()) == 1


def test_linear_gradcheck():
    lin = Linear(3, 2, np.random.default_rng(1))
    x0 = RNG.normal(size=(4, 3))
    (lin(Tensor(x0)) ** 2).sum().backward()
    W = lin.W
    orig = W.data.copy()

    def f(v):
        W.data = v
        return float((lin(Tensor(x0)) ** 2).sum().data)

    ng = numeric_grad(f, orig.copy())
    W.data = orig
    assert np.abs(W.grad - ng).max() < 1e-6


def test_mlp_depth_and_relu():
    mlp = MLP([3, 8, 8, 2], np.random.default_rng(2))
    assert len(mlp.layers) == 3
    out = mlp(Tensor(RNG.normal(size=(5, 3))))
    assert out.shape == (5, 2)
    with pytest.raises(ValueError):
        MLP([3], np.random.default_rng(0))


def test_layernorm_normalises_last_axis():
    ln = LayerNorm(6)
    x = Tensor(RNG.normal(size=(4, 6)) * 10 + 3)
    y = ln(x).data
    assert np.allclose(y.mean(axis=-1), 0, atol=1e-6)
    assert np.allclose(y.std(axis=-1), 1, atol=1e-2)


def test_layernorm_gradients_flow():
    ln = LayerNorm(5)
    x = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
    (ln(x) ** 2).sum().backward()
    assert x.grad is not None
    assert ln.gamma.grad is not None
    assert ln.beta.grad is not None


def test_embedding_lookup_and_init():
    init = RNG.normal(size=(10, 4))
    emb = Embedding(10, 4, np.random.default_rng(0), init=init)
    out = emb([2, 2, 7], Tensor(np.zeros(1)))
    assert np.allclose(out.data, init[[2, 2, 7]])
    assert np.array_equal(emb([2, 2, 7], np.zeros(1)), init[[2, 2, 7]])
    with pytest.raises(ValueError):
        Embedding(10, 4, np.random.default_rng(0), init=np.zeros((3, 3)))


def test_embedding_gradient_accumulates_on_repeats():
    emb = Embedding(5, 3, np.random.default_rng(0))
    emb([1, 1, 3], Tensor(np.zeros(1))).sum().backward()
    assert np.allclose(emb.W.grad[1], 2.0)
    assert np.allclose(emb.W.grad[3], 1.0)
    assert np.allclose(emb.W.grad[0], 0.0)


def test_module_parameter_collection_nested():
    class Net(Module):
        def __init__(self):
            rng = np.random.default_rng(0)
            self.a = Linear(2, 2, rng)
            self.blocks = [Linear(2, 2, rng), Linear(2, 2, rng)]
            self.extra = Tensor(np.zeros(3), requires_grad=True)

    net = Net()
    assert len(net.parameters()) == 2 + 2 + 2 + 1


def test_glorot_bounds():
    w = glorot(np.random.default_rng(0), 100, 100)
    lim = np.sqrt(6.0 / 200)
    assert (np.abs(w) <= lim).all()


def test_adam_converges_quadratic():
    x = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        (x**2).sum().backward()
        opt.step()
    assert np.abs(x.data).max() < 1e-2


def test_adam_gradient_clipping():
    x = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([x], lr=0.1, clip=1e-6)
    opt.zero_grad()
    (x * 1e6).sum().backward()
    before = x.data.copy()
    opt.step()
    # clipped to tiny norm → Adam normalises step to ~lr anyway; just check finite + moved
    assert np.isfinite(x.data).all()
    assert x.data[0] != before[0]


def test_adam_missing_grad_treated_as_zero():
    x = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([x], lr=0.1)
    opt.step()  # no backward happened
    assert np.isfinite(x.data).all()


def test_fit_skips_batches_without_loss(monkeypatch):
    """A batch whose loss is None takes no step: parameters and Adam's
    step count stay as they were."""
    opts = []
    zero_grad = Adam.zero_grad
    monkeypatch.setattr(Adam, "zero_grad", lambda self: (opts.append(self), zero_grad(self)))
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    assert fit([x], 6, lambda idx: None, epochs=2, lr=0.1, batch=2, seed=0) == [0.0, 0.0]
    assert len(opts) == 6 and opts[-1].t == 0
    assert np.array_equal(x.data, [1.0, -2.0])
    # only the batch holding item 0 has a loss: one step per epoch
    fit([x], 6, lambda idx: (x * x).sum() if 0 in idx else None, epochs=2, lr=0.1, batch=2, seed=0)
    assert opts[-1].t == 2
    assert (np.abs(x.data) < [1.0, 2.0]).all()


def test_fit_decays_lr_from_decay_epoch(monkeypatch):
    lrs = []
    step = Adam.step
    monkeypatch.setattr(Adam, "step", lambda self: (lrs.append(self.lr), step(self)))
    x = Tensor(np.array([1.0]), requires_grad=True)
    fit([x], 4, lambda idx: (x * x).sum(), epochs=4, lr=0.1, batch=2, seed=0, decay_epoch=2)
    assert lrs == pytest.approx([0.1] * 4 + [0.03] * 4)
    lrs.clear()
    fit([x], 4, lambda idx: (x * x).sum(), epochs=3, lr=0.1, batch=2, seed=0)
    assert lrs == pytest.approx([0.1] * 6)


def test_fit_matches_explicit_adam_loop():
    """fit is the loop it replaced: one generator for all epochs' shuffles,
    zero_grad / loss / backward / step per slice, bit-identical weights."""
    data = RNG.normal(size=(7, 3))

    def model():
        return Linear(3, 1, np.random.default_rng(5))

    def loss(lin, idx):
        return ((lin(Tensor(data[idx])) - 1.0) ** 2).mean()

    a = model()
    means = fit(a.parameters(), len(data), lambda idx: loss(a, idx), epochs=3, lr=0.05, batch=3, seed=2)
    b = model()
    opt = Adam(b.parameters(), lr=0.05)
    rng = np.random.default_rng(2)
    for _ in range(3):
        order = rng.permutation(len(data))
        for lo in range(0, len(data), 3):
            opt.zero_grad()
            loss(b, order[lo : lo + 3]).backward()
            opt.step()
    assert all(np.array_equal(p.data, q.data) for p, q in zip(a.parameters(), b.parameters()))
    assert len(means) == 3 and means[-1] < means[0]


def test_module_pickle_roundtrip():
    import pickle

    mlp = MLP([3, 5, 2], np.random.default_rng(4))
    clone = pickle.loads(pickle.dumps(mlp))
    x = RNG.normal(size=(2, 3))
    assert np.allclose(mlp(Tensor(x)).data, clone(Tensor(x)).data)


@pytest.mark.parametrize("shape", [(6,), (5, 6), (3, 4, 6)])
def test_forward_np_matches_autodiff_exactly(shape):
    """``forward`` on a plain array returns a plain array equal bit for bit
    to its graph output on a Tensor of the same array, whatever the rank."""
    rng = np.random.default_rng(3)
    x = RNG.normal(size=shape) * 4.0
    for layer in (Linear(6, 4, rng), Linear(6, 4, rng, bias=False), MLP([6, 8, 8, 3], rng), LayerNorm(6)):
        out = layer(x)
        assert type(out) is np.ndarray
        assert np.array_equal(out, layer(Tensor(x)).data)
    emb = Embedding(10, 4, rng)
    out = emb([3, 3, 9], x)
    assert type(out) is np.ndarray
    assert np.array_equal(out, emb([3, 3, 9], Tensor(x)).data)


def test_array_ops_match_tensor_ops_exactly():
    x = RNG.normal(size=(4, 7)) * 50.0
    x[0, 0] = 900.0  # past both clips
    assert np.array_equal(relu(x), Tensor(x).relu().data)
    assert np.array_equal(sigmoid(x), Tensor(x).sigmoid().data)
    assert np.array_equal(tanh(x), Tensor(x).tanh().data)
    for axis in (-1, 0):
        assert np.array_equal(softmax(x, axis=axis), Tensor(x).softmax(axis=axis).data)
        assert np.array_equal(mean(x, axis=axis), Tensor(x).mean(axis=axis).data)
    assert np.array_equal(mean(x), Tensor(x).mean().data)
    for op in (concat, stack):
        assert np.array_equal(op([x, 2 * x], axis=0), op([Tensor(x), 2 * x], axis=0).data)
    for f in (relu, sigmoid, tanh, softmax, lambda a: mean(a, axis=0), lambda a: concat([a, a]), lambda a: stack([a, a])):
        assert type(f(x)) is np.ndarray and type(f(Tensor(x))) is Tensor
