"""Tests for the GRU/BiGRU sequence modules."""
import numpy as np

from repro.nn.autodiff import Tensor
from repro.nn.gru import BiGRU, GRU, GRUCell
from tests.gradcheck import numeric_grad

RNG = np.random.default_rng(13)


def test_cell_step_shape_and_range():
    cell = GRUCell(4, 6, np.random.default_rng(0))
    h = cell(Tensor(RNG.normal(size=(4,))), cell.init_state())
    assert h.shape == (6,)
    assert (np.abs(h.data) <= 1.0 + 1e-9).all()  # convex combo of tanh/h0=0


def test_gru_unroll_shapes():
    gru = GRU(3, 5, np.random.default_rng(1))
    out = gru(Tensor(RNG.normal(size=(7, 3))))
    assert out.shape == (7, 5)


def test_gru_h0_seeding_changes_output():
    """GRU unrolls its cell from the zero state; cell steps from a seeded
    state (as the decoders run them) give other outputs."""
    gru = GRU(3, 5, np.random.default_rng(1))
    x = RNG.normal(size=(4, 3))

    def steps(h):
        outs = []
        for xi in x:
            h = gru.cell(Tensor(xi), h)
            outs.append(h.data)
        return np.stack(outs)

    o1 = steps(gru.cell.init_state())
    assert np.array_equal(o1, gru(Tensor(x)).data)
    assert not np.allclose(o1, steps(Tensor(np.ones(5))))


def test_gru_state_depends_on_history():
    gru = GRU(2, 4, np.random.default_rng(2))
    x = RNG.normal(size=(5, 2))
    x2 = x.copy()
    x2[0] += 10.0
    assert not np.allclose(gru(Tensor(x)).data[-1], gru(Tensor(x2)).data[-1])


def test_gru_weight_gradcheck():
    gru = GRU(2, 3, np.random.default_rng(3))
    x = RNG.normal(size=(4, 2))
    p = gru.parameters()[0]
    orig = p.data.copy()

    def f(v):
        p.data = v
        return float((gru(Tensor(x)) ** 2).sum().data)

    ng = numeric_grad(f, orig.copy())
    p.data = orig
    for q in gru.parameters():
        q.grad = None
    (gru(Tensor(x)) ** 2).sum().backward()
    assert np.abs(p.grad - ng).max() < 1e-6


def test_gru_input_gradient_flows_to_first_step():
    gru = GRU(2, 3, np.random.default_rng(4))
    x = Tensor(RNG.normal(size=(6, 2)), requires_grad=True)
    (gru(x) ** 2).sum().backward()
    assert np.abs(x.grad[0]).sum() > 0


def test_bigru_shapes_and_direction():
    bg = BiGRU(3, 4, np.random.default_rng(5))
    x = RNG.normal(size=(5, 3))
    out = bg(Tensor(x)).data
    assert out.shape == (5, 8)
    # backward half at position 0 summarises the whole reversed sequence;
    # changing the last input must affect it
    x2 = x.copy()
    x2[-1] += 5.0
    out2 = bg(Tensor(x2)).data
    assert not np.allclose(out[0, 4:], out2[0, 4:])


def test_gru_deterministic():
    a = GRU(3, 4, np.random.default_rng(6))
    b = GRU(3, 4, np.random.default_rng(6))
    x = RNG.normal(size=(4, 3))
    assert np.allclose(a(Tensor(x)).data, b(Tensor(x)).data)


def test_cell_forward_np_matches_autodiff_exactly():
    """A step on plain arrays equals the graph's step bit for bit."""
    cell = GRUCell(4, 6, np.random.default_rng(7))
    h = np.zeros(6)
    for _ in range(5):  # a few chained steps, as a decoder runs them
        x = RNG.normal(size=(4,)) * 3.0
        h_np = cell(x, h)
        assert type(h_np) is np.ndarray
        assert np.array_equal(h_np, cell(Tensor(x), Tensor(h)).data)
        h = h_np


def test_gru_and_bigru_arrays_match_graph_exactly():
    x = RNG.normal(size=(6, 3)) * 3.0
    h0 = RNG.normal(size=(5,))
    gru = GRU(3, 5, np.random.default_rng(8))
    out = gru(x)
    assert type(out) is np.ndarray
    assert np.array_equal(out, gru(Tensor(x)).data)
    h_np, h_t = h0, Tensor(h0)
    for xi in x:  # cell steps from a seeded state
        h_np, h_t = gru.cell(xi, h_np), gru.cell(Tensor(xi), h_t)
        assert type(h_np) is np.ndarray
        assert np.array_equal(h_np, h_t.data)
    bigru = BiGRU(3, 4, np.random.default_rng(9))
    out = bigru(x)
    assert type(out) is np.ndarray and out.shape == (6, 8)
    assert np.array_equal(out, bigru(Tensor(x)).data)
