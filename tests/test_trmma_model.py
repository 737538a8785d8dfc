"""Tests for the TRMMA DualFormer + decoder model (§V)."""
import copy
import pickle

import numpy as np
import pytest

from repro.nn.autodiff import Tensor, mean, mean_of
from repro.nn.optim import Adam
from repro.trmma.features import build_infer_sample, build_train_sample
from repro.trmma.model import LAMBDA, TRMMAModel, TrmmaSample


@pytest.fixture(scope="module")
def sample(net_small, trajs_small, pt_norm):
    return build_train_sample(net_small, trajs_small[0], pt_norm)


@pytest.fixture(scope="module")
def model(net_small):
    return TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=0)


@pytest.fixture(scope="module")
def train_samples(net_small, trajs_small, pt_norm):
    out = [build_train_sample(net_small, tr, pt_norm) for tr in trajs_small]
    return [s for s in out if s is not None]


@pytest.fixture(scope="module")
def infer_samples(net_small, trajs_small, pt_norm):
    out = []
    for tr in trajs_small:
        obs = np.where(tr.observed)[0]
        out.append(build_infer_sample(net_small, pt_norm, tr.x[obs], tr.y[obs], tr.t[obs], tr.t0,
                                      obs, len(tr.t), 15.0, tr.seg[obs], tr.ratio[obs], tr.route))
    return out


def recover_autodiff(m: TRMMAModel, s):
    """Algorithm 2 through the training graph: the reference the
    forward-only ``recover`` must equal bit for bit."""
    H = m.encode(s, Tensor(s.obs_feats))
    h = H.mean(axis=0)
    obs_by_tick = {int(t): i for i, t in enumerate(s.obs_tick)}
    exp_offs = m.expected_offsets(s)
    segs = np.zeros(s.n_ticks, dtype=np.int64)
    ratios = np.zeros(s.n_ticks)
    k_prev = 0
    for tick in range(s.n_ticks):
        oi = obs_by_tick.get(tick)
        if oi is not None:
            k = int(s.obs_pos[oi])
            r = float(s.obs_feats[oi, 4])
        else:
            tau = float(s.tick_tau[tick])
            exp_off = float(exp_offs[tick])
            feats = m._decode_feats(s, tau, exp_off)
            w = m._step_scores(H, h, feats)
            wd = w.data.copy()
            wd[:k_prev] = -np.inf
            k = int(np.argmax(wd))
            r = float(m._step_ratio(H, h, w, feats, exp_off, k).data[0])
        segs[tick] = s.route[k]
        ratios[tick] = r
        k_prev = max(k_prev, k)
        h = m.gru(m._gru_in(H, k, r, float(s.tick_tau[tick])), h)
    return segs, ratios


def loss_per_tick(m: TRMMAModel, s):
    """Teacher-forced loss scored one tick at a time, each tick's heads on
    its own graph, then averaged left to right: the reference the
    tick-batched ``loss`` must match."""
    H = m.encode(s, Tensor(s.obs_feats))
    h = mean(H, axis=0)
    obs_by_tick = {int(t): i for i, t in enumerate(s.obs_tick)}
    exp_offs = m.expected_offsets(s)
    terms = []
    for tick in range(s.n_ticks):
        oi = obs_by_tick.get(tick)
        tau = float(s.tick_tau[tick])
        if oi is not None:
            h = m.gru(m._gru_in(H, int(s.obs_pos[oi]), float(s.obs_feats[oi, 4]), tau), h)
            continue
        k_gt = int(s.tick_pos[tick])
        if k_gt < 0:
            continue
        exp_off = float(exp_offs[tick])
        feats = m._decode_feats(s, tau, exp_off)
        w = m._step_scores(H, h, feats)
        p = w.clip(-30.0, 30.0).sigmoid()
        y = np.zeros(len(s.route))
        y[k_gt] = 1.0
        pos_w = max(1.0, (len(s.route) - 1) / 2.0)
        bce = -(Tensor(y * pos_w) * (p + 1e-9).log() + Tensor(1 - y) * (1 - p + 1e-9).log()).mean()
        diff = m._step_ratio(H, h, w, feats, exp_off, k_gt) - Tensor(np.array([s.tick_ratio[tick]]))
        terms.append(bce + (diff.relu() + (-diff).relu()).reshape(()) * LAMBDA)
        h = m.gru(m._gru_in(H, k_gt, float(s.tick_ratio[tick]), tau), h)
    if not terms:
        return None, 0
    return mean_of(terms), len(terms)


def loss_and_grads(m: TRMMAModel, loss_fn):
    for p in m.parameters():
        p.grad = None
    loss, n = loss_fn()
    loss.backward()
    return loss.item(), n, [np.zeros_like(p.data) if p.grad is None else p.grad for p in m.parameters()]


def assert_loss_equals_per_tick(m: TRMMAModel, s):
    loss, n, grads = loss_and_grads(m, lambda: m.loss(s))
    ref_loss, ref_n, ref_grads = loss_and_grads(m, lambda: loss_per_tick(m, s))
    assert n == ref_n
    assert loss == pytest.approx(ref_loss, rel=1e-9, abs=0)
    for g, ref in zip(grads, ref_grads):
        assert np.abs(g - ref).max() <= 1e-9 * np.abs(ref).max()


def expected_offsets_loop(s):
    """The per-element form ``expected_offsets`` vectorises."""
    ln = np.maximum(s.route_feats[:, 0], 1e-9)
    start = s.route_feats[:, 1]
    tw = np.maximum(s.route_timew, 1e-9)
    cum_t = np.concatenate([[0.0], np.cumsum(tw)])

    def off2t(off):
        k = int(np.clip(np.searchsorted(start, off, side="right") - 1, 0, len(ln) - 1))
        return cum_t[k] + np.clip((off - start[k]) / ln[k], 0, 1) * tw[k]

    def t2off(tv):
        k = int(np.clip(np.searchsorted(cum_t, tv, side="right") - 1, 0, len(ln) - 1))
        return start[k] + np.clip((tv - cum_t[k]) / tw[k], 0, 1) * ln[k]

    off_obs = start[s.obs_pos] + s.obs_feats[:, 4] * ln[s.obs_pos]
    t_obs = np.array([off2t(o) for o in off_obs])
    t_ticks = np.interp(np.arange(s.n_ticks), s.obs_tick.astype(float), t_obs)
    return np.array([t2off(tv) for tv in t_ticks])


def test_encode_shape(model, sample):
    H = model.encode(sample)
    assert H.shape == (len(sample.route), model.d_h)


def test_df_ablation_ignores_trajectory(net_small, sample):
    m = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=0, use_dualformer=False)
    H1 = m.encode(sample)
    s2 = copy.deepcopy(sample)
    s2.obs_feats = s2.obs_feats + 0.1
    assert np.allclose(m.encode(s2), H1)  # H = R only
    mf = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=0, use_dualformer=True)
    assert not np.allclose(mf.encode(s2), mf.encode(sample))


def test_expected_offsets_match_observed_anchors(sample):
    exp = TRMMAModel.expected_offsets(sample)
    assert len(exp) == sample.n_ticks
    start = sample.route_feats[:, 1]
    ln = sample.route_feats[:, 0]
    for j, tick in enumerate(sample.obs_tick):
        off = start[sample.obs_pos[j]] + sample.obs_feats[j, 4] * ln[sample.obs_pos[j]]
        assert exp[tick] == pytest.approx(off, abs=1e-9)
    assert (np.diff(exp) >= -1e-9).all()  # monotone along the route


def test_loss_finite_and_counts_missing(model, sample):
    l, n = model.loss(sample)
    assert np.isfinite(l.item())
    assert n == sample.n_ticks - len(sample.obs_tick)


def test_loss_decreases_on_overfit(net_small, sample):
    m = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=2)
    opt = Adam(m.parameters(), lr=3e-3)
    first = m.loss(sample)[0].item()
    for _ in range(25):
        opt.zero_grad()
        l, _ = m.loss(sample)
        l.backward()
        opt.step()
    assert m.loss(sample)[0].item() < first


def test_recover_shapes_and_constraints(model, sample):
    segs, ratios = model.recover(sample)
    assert len(segs) == sample.n_ticks
    assert ((ratios >= 0) & (ratios < 1)).all()
    route = sample.route.tolist()
    pos = [route.index(s) for s in segs]
    assert (np.diff(pos) >= 0).all()  # Eq. (17) order constraint


def test_recover_pins_observed_points(model, sample):
    segs, ratios = model.recover(sample)
    for j, tick in enumerate(sample.obs_tick):
        assert segs[tick] == sample.route[sample.obs_pos[j]]
        assert ratios[tick] == pytest.approx(sample.obs_feats[j, 4])


def test_recover_on_infer_sample(trajs_small, infer_samples, model):
    segs, ratios = model.recover(infer_samples[1])
    assert set(segs.tolist()) <= set(trajs_small[1].route.tolist())


def test_model_pickles(model, sample):
    clone = pickle.loads(pickle.dumps(model))
    a, _ = clone.recover(sample)
    b, _ = model.recover(sample)
    assert np.array_equal(a, b)


def test_decode_feats_mark_containing_segment(sample):
    exp = TRMMAModel.expected_offsets(sample)
    tick = int(sample.n_ticks // 2)
    feats = TRMMAModel._decode_feats(sample, float(sample.tick_tau[tick]), float(exp[tick]))
    inside = np.where(feats[:, 2] > 0)[0]
    assert len(inside) >= 1  # some segment contains the expected offset
    k = inside[0]
    assert 0 <= feats[k, 0] < 1


def test_expected_offsets_equal_loop_form(sample, infer_samples):
    for s in [sample] + infer_samples:
        assert np.array_equal(TRMMAModel.expected_offsets(s), expected_offsets_loop(s))


@pytest.mark.parametrize("use_dualformer", [True, False])
def test_recover_equals_autodiff_reference(net_small, infer_samples, use_dualformer):
    m = TRMMAModel(net_small.n_segments, d_h=16, n_layers=2, seed=1, use_dualformer=use_dualformer)
    for s in infer_samples:
        assert np.array_equal(m.encode(s), m.encode(s, Tensor(s.obs_feats)).data)
        segs, ratios = m.recover(s)
        ref_segs, ref_ratios = recover_autodiff(m, s)
        assert np.array_equal(segs, ref_segs)
        assert np.array_equal(ratios, ref_ratios)


@pytest.mark.parametrize("use_dualformer", [True, False])
def test_loss_and_gradients_equal_per_tick_reference(net_small, train_samples, use_dualformer):
    m = TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=3, use_dualformer=use_dualformer)
    assert len(train_samples) >= 8
    for s in train_samples:
        assert_loss_equals_per_tick(m, s)


def _missing_ticks(s):
    return np.setdiff1d(np.arange(s.n_ticks), s.obs_tick)


def test_loss_without_scored_ticks_is_none(model, sample):
    s = copy.deepcopy(sample)
    s.tick_pos[_missing_ticks(s)] = -1
    assert model.loss(s) == (None, 0)


def test_loss_with_one_scored_tick(model, sample):
    s = copy.deepcopy(sample)
    missing = _missing_ticks(s)
    s.tick_pos[missing[1:]] = -1
    assert model.loss(s)[1] == 1
    assert_loss_equals_per_tick(model, s)


def test_loss_on_single_segment_route(model, sample):
    n_ticks = 6
    s = TrmmaSample(
        obs_feats=np.array([[0.2, 0.3, 0.5, 0.0, 0.1], [0.3, 0.3, 0.6, 1.0, 0.9]]),
        obs_seg=sample.route[:1].repeat(2),
        obs_pos=np.zeros(2, dtype=np.int64),
        obs_tick=np.array([0, n_ticks - 1]),
        route=sample.route[:1],
        route_feats=np.array([[1.0, 0.0]]),
        route_timew=np.ones(1),
        n_ticks=n_ticks,
        tick_tau=np.linspace(0.0, 1.0, n_ticks),
        tick_pos=np.zeros(n_ticks, dtype=np.int64),
        tick_ratio=np.linspace(0.1, 0.9, n_ticks),
    )
    assert model.loss(s)[1] == n_ticks - 2
    assert_loss_equals_per_tick(model, s)
    segs, ratios = model.recover(s)
    assert (segs == s.route[0]).all()
    assert ((ratios >= 0) & (ratios < 1)).all()


def test_decode_feats_of_all_ticks_equal_per_tick(sample, infer_samples):
    for s in [sample] + infer_samples:
        exp = TRMMAModel.expected_offsets(s)
        feats = TRMMAModel._decode_feats(s, s.tick_tau, exp)
        assert feats.shape == (s.n_ticks, len(s.route), 4)
        for tick in range(s.n_ticks):
            one = TRMMAModel._decode_feats(s, float(s.tick_tau[tick]), float(exp[tick]))
            assert np.array_equal(feats[tick], one)
