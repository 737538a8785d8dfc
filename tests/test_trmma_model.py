"""Tests for the TRMMA DualFormer + decoder model (§V)."""
import pickle

import numpy as np
import pytest

from repro.nn.autodiff import Tensor
from repro.nn.optim import Adam
from repro.trmma.features import build_infer_sample, build_train_sample
from repro.trmma.model import TRMMAModel


@pytest.fixture(scope="module")
def sample(net_small, trajs_small, pt_norm):
    return build_train_sample(net_small, trajs_small[0], pt_norm)


@pytest.fixture(scope="module")
def model(net_small):
    return TRMMAModel(net_small.n_segments, d_h=16, n_layers=1, seed=0)


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
    import copy

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

