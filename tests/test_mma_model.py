"""Tests for the MMA classification model (§IV-B)."""
import dataclasses
import pickle

import numpy as np
import pytest

from repro.mma.features import build_mma_sample
from repro.mma.model import MMAModel
from repro.nn.autodiff import Tensor
from repro.nn.optim import Adam


@pytest.fixture(scope="module")
def sample(net_small, index_small, trajs_small, pt_norm):
    tr = trajs_small[0]
    o = np.where(tr.observed)[0]
    return build_mma_sample(net_small, index_small, tr.x[o], tr.y[o], tr.t[o], tr.t0,
                            pt_norm, true_seg=tr.seg[o])


@pytest.fixture(scope="module")
def model(net_small):
    return MMAModel(net_small.n_segments, d0=16, d2=16, d1=24, d3=24, seed=0)


def test_forward_shape(model, sample):
    logits = model.forward(sample, Tensor(sample.X))
    assert logits.shape == sample.cand.shape


def test_masked_slots_are_killed(net_small, index_small, trajs_small, pt_norm):
    tr = trajs_small[1]
    o = np.where(tr.observed)[0]
    s = build_mma_sample(net_small, index_small, tr.x[o], tr.y[o], tr.t[o], tr.t0,
                        pt_norm, true_seg=tr.seg[o], k_c=net_small.n_segments + 5)
    m = MMAModel(net_small.n_segments, d0=16, d2=16, seed=0)
    logits = m.forward(s, s.X)
    assert (logits[~s.mask] < -1e8).all()


def test_predict_returns_candidates(model, sample):
    pred = model.predict(sample)
    for i, p in enumerate(pred):
        assert p in sample.cand[i][sample.mask[i]]


def test_loss_finite_and_positive(model, sample):
    l = model.loss(sample)
    assert np.isfinite(l.item())
    assert l.item() > 0


def test_loss_decreases_on_overfit(net_small, sample):
    m = MMAModel(net_small.n_segments, d0=16, d2=16, seed=1)
    opt = Adam(m.parameters(), lr=3e-3)
    first = m.loss(sample).item()
    for _ in range(30):
        opt.zero_grad()
        l = m.loss(sample)
        l.backward()
        opt.step()
    assert m.loss(sample).item() < 0.6 * first


def test_context_flag_reduces_params_used(net_small, sample):
    m = MMAModel(net_small.n_segments, d0=16, d2=16, seed=0, use_context=False)
    m.loss(sample).backward()
    # attention MLP receives no gradient when context is off
    attn_grads = [p.grad for p in m.attn_mlp.parameters()]
    assert all(g is None or np.allclose(g, 0) for g in attn_grads)


def test_direction_flag_zeroes_cosines(net_small, sample):
    """The -DI model's logits do not change when the four cosine columns
    do (in both modes, without touching the sample); the full model's do."""
    feats = sample.feats.copy()
    feats[..., :4] = np.random.default_rng(0).uniform(-1.0, 1.0, feats[..., :4].shape)
    other = dataclasses.replace(sample, feats=feats)
    ndi = MMAModel(net_small.n_segments, d0=16, d2=16, seed=0, use_direction=False)
    full = MMAModel(net_small.n_segments, d0=16, d2=16, seed=0)
    assert np.array_equal(ndi.forward(sample, sample.X), ndi.forward(other, other.X))
    assert np.array_equal(ndi.forward(sample, Tensor(sample.X)).data, ndi.forward(other, Tensor(other.X)).data)
    assert not np.array_equal(full.forward(sample, sample.X), full.forward(other, other.X))
    assert not np.array_equal(other.feats, sample.feats)


def test_n2v_init_used(net_small):
    init = np.random.default_rng(0).normal(size=(net_small.n_segments, 16))
    m = MMAModel(net_small.n_segments, d0=16, d2=16, seed=0, n2v_init=init)
    assert np.allclose(m.seg_emb.W.data, init)


def test_model_pickles_for_broadcast(model, sample):
    clone = pickle.loads(pickle.dumps(model))
    assert np.allclose(clone.forward(sample, sample.X), model.forward(sample, sample.X))


def test_deterministic_in_seed(net_small, sample):
    a = MMAModel(net_small.n_segments, d0=16, d2=16, seed=5)
    b = MMAModel(net_small.n_segments, d0=16, d2=16, seed=5)
    assert np.allclose(a.forward(sample, sample.X), b.forward(sample, sample.X))


@pytest.mark.parametrize("use_context", [True, False])
def test_predict_equals_autodiff_argmax(net_small, index_small, trajs_small, pt_norm, use_context):
    m = MMAModel(net_small.n_segments, d0=16, d2=16, d1=24, d3=24, seed=1, use_context=use_context)
    for tr in trajs_small[:4]:
        o = np.where(tr.observed)[0]
        s = build_mma_sample(net_small, index_small, tr.x[o], tr.y[o], tr.t[o], tr.t0, pt_norm)
        logits = m.forward(s, Tensor(s.X)).data
        assert np.array_equal(m.forward(s, s.X), logits)
        assert np.array_equal(m.predict(s), s.cand[np.arange(len(o)), logits.argmax(axis=1)])
