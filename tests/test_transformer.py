"""Tests for the transformer encoder (Eqs. 4-6 of the paper)."""
import numpy as np
import pytest

from repro.nn.autodiff import Tensor
from repro.nn.transformer import (
    MultiHeadAttention,
    TransformerEncoder,
    TransformerLayer,
    positional_encoding,
)
from tests.gradcheck import numeric_grad

RNG = np.random.default_rng(11)


def test_positional_encoding_shape_and_range():
    pe = positional_encoding(12, 8)
    assert pe.shape == (12, 8)
    assert (np.abs(pe) <= 1.0 + 1e-12).all()


def test_positional_encoding_distinct_rows():
    pe = positional_encoding(20, 16)
    assert len(np.unique(pe.round(6), axis=0)) == 20


def test_mha_shapes_self_attention():
    mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
    x = Tensor(RNG.normal(size=(5, 8)))
    assert mha(x, x, x).shape == (5, 8)


def test_mha_cross_attention_shapes():
    mha = MultiHeadAttention(8, 2, np.random.default_rng(0))
    q = Tensor(RNG.normal(size=(3, 8)))
    kv = Tensor(RNG.normal(size=(7, 8)))
    assert mha(q, kv, kv).shape == (3, 8)


def test_mha_invalid_heads():
    with pytest.raises(ValueError):
        MultiHeadAttention(8, 3, np.random.default_rng(0))


def test_layer_preserves_shape():
    layer = TransformerLayer(8, 2, 16, np.random.default_rng(1))
    assert layer(Tensor(RNG.normal(size=(6, 8)))).shape == (6, 8)


def test_encoder_stacks_layers():
    enc = TransformerEncoder(8, n_layers=3, n_heads=2, rng=np.random.default_rng(2))
    assert len(enc.layers) == 3
    assert enc(Tensor(RNG.normal(size=(4, 8)))).shape == (4, 8)


def test_encoder_position_sensitivity():
    """With positional encoding, permuting the input changes the output."""
    enc = TransformerEncoder(8, n_layers=1, n_heads=2, rng=np.random.default_rng(3))
    x = RNG.normal(size=(5, 8))
    out1 = enc(Tensor(x)).data
    out2 = enc(Tensor(x[::-1].copy())).data
    assert not np.allclose(out1[0], out2[-1])


def test_encoder_weight_gradcheck():
    enc = TransformerEncoder(6, n_layers=1, n_heads=2, rng=np.random.default_rng(4))
    x = RNG.normal(size=(3, 6))
    p = enc.parameters()[0]
    orig = p.data.copy()

    def f(v):
        p.data = v
        return float((enc(Tensor(x)) ** 2).mean().data)

    ng = numeric_grad(f, orig.copy())
    p.data = orig
    for q in enc.parameters():
        q.grad = None
    (enc(Tensor(x)) ** 2).mean().backward()
    assert np.abs(p.grad - ng).max() < 1e-6


def test_encoder_deterministic_given_seed():
    a = TransformerEncoder(8, rng=np.random.default_rng(5))
    b = TransformerEncoder(8, rng=np.random.default_rng(5))
    x = RNG.normal(size=(4, 8))
    assert np.allclose(a(Tensor(x)).data, b(Tensor(x)).data)


@pytest.mark.parametrize("lq,lk", [(1, 1), (5, 5), (3, 7)])
def test_forward_np_matches_autodiff_exactly(lq, lk):
    """``forward`` on plain arrays equals its graph output bit for bit."""
    rng = np.random.default_rng(6)
    q = RNG.normal(size=(lq, 8)) * 3.0
    kv = RNG.normal(size=(lk, 8)) * 3.0
    mha = MultiHeadAttention(8, 2, rng)
    assert np.array_equal(mha(q, kv, kv), mha(Tensor(q), Tensor(kv), Tensor(kv)).data)
    layer = TransformerLayer(8, 2, 16, rng)
    assert np.array_equal(layer(q), layer(Tensor(q)).data)
    enc = TransformerEncoder(8, n_layers=2, n_heads=2, rng=rng)
    out = enc(kv)
    assert type(out) is np.ndarray
    assert np.array_equal(out, enc(Tensor(kv)).data)
