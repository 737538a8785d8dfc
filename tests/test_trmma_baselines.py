"""Tests for the trajectory-recovery baselines."""
import numpy as np
import pytest

from repro.mma.baselines import HMMMatcher, NearestMatcher, distance_penalty
from repro.nn.autodiff import Tensor
from repro.trmma.baselines import (
    DHTRRecoverer,
    LinearRecoverer,
    MMSTGEDRecoverer,
    MTrajRecRecoverer,
    RNTrajRecRecoverer,
    ST2VecDecRecoverer,
    TERIRecoverer,
    TrajCLDecRecoverer,
    TrajGATDecRecoverer,
    _heading_cos,
    _kalman_smooth,
    snap_with_direction,
)


@pytest.fixture(scope="module")
def one(trajs_small):
    tr = trajs_small[3]
    return tr, np.where(tr.observed)[0]


def _recover(rec, tr, obs):
    return rec.recover(tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, obs, len(tr.t))


def rollout_autodiff(rec, xs, ys, ts, t0, idxs, n_ticks):
    """The all-segment greedy decode through the training graph: the
    reference the forward-only decode must equal bit for bit."""
    X = Tensor(rec._obs_X(xs, ys, ts, t0, n_ticks))
    enc_states, h = rec._encode(X, xs, ys)
    E, b = rec.dec.head(X)
    taus = (np.arange(n_ticks) * rec.eps) / max((n_ticks - 1) * rec.eps, 1e-9)
    bx = np.interp(np.arange(n_ticks), np.asarray(idxs, dtype=float), np.asarray(xs))
    by = np.interp(np.arange(n_ticks), np.asarray(idxs, dtype=float), np.asarray(ys))
    pen = distance_penalty(rec.net, bx, by, delta=150.0) + 4.0 * _heading_cos(rec.net, bx, by)
    segs = np.zeros(n_ticks, dtype=np.int64)
    ratios = np.zeros(n_ticks)
    for tick in range(n_ticks):
        logits, hc = rec.dec.step(E, b, h, rec._ctx(enc_states, h), pen[tick])
        k = int(np.argmax(logits.data))
        r = float(rec.dec.ratio(hc, E[k]).data[0])
        segs[tick], ratios[tick] = k, r
        h = rec.dec.advance(h, E[k], r, float(taus[tick]))
    return segs, ratios


SEQ2SEG = (MTrajRecRecoverer, RNTrajRecRecoverer, MMSTGEDRecoverer, TrajGATDecRecoverer,
           TrajCLDecRecoverer, ST2VecDecRecoverer)


def test_linear_recoverer_full_grid(net_small, index_small, pt_norm, one):
    tr, obs = one
    rec = LinearRecoverer(HMMMatcher(net_small, index_small, pt_norm), eps=15.0)
    segs, ratios = _recover(rec, tr, obs)
    assert len(segs) == len(tr.t)
    assert ((ratios >= 0) & (ratios < 1)).all()


def test_linear_with_oracle_matching_is_accurate(net_small, index_small, pt_norm, trajs_small):
    """With true matched segments, linear interpolation should recover a
    large share of ticks (the kinematics keep it from being perfect)."""

    class Oracle:
        net = net_small

        def __init__(self, tr, obs):
            self._segs = tr.seg[obs]

        def match(self, xs, ys, ts, t0):
            return self._segs

    accs = []
    for tr in trajs_small:
        obs = np.where(tr.observed)[0]
        rec = LinearRecoverer(Oracle(tr, obs), eps=15.0)
        segs, _ = _recover(rec, tr, obs)
        accs.append((segs == tr.seg).mean())
    assert 0.3 < np.mean(accs) < 0.95


def test_kalman_smoother_reduces_noise():
    rng = np.random.default_rng(0)
    t = np.arange(50)
    true_x = 3.0 * t
    true_y = 1.5 * t
    px = true_x + rng.normal(0, 8, 50)
    py = true_y + rng.normal(0, 8, 50)
    sx, sy = _kalman_smooth(px, py, dt=1.0)
    raw = np.hypot(px - true_x, py - true_y).mean()
    smooth = np.hypot(sx - true_x, sy - true_y).mean()
    assert smooth < raw


def test_heading_cos_shape_and_range(net_small):
    px = np.array([0.0, 50.0, 100.0])
    py = np.array([0.0, 0.0, 0.0])
    hc = _heading_cos(net_small, px, py)
    assert hc.shape == (3, net_small.n_segments)
    assert (np.abs(hc) <= 1 + 1e-9).all()


def test_snap_with_direction_picks_right_twin(net_small, index_small):
    s = int(np.where(net_small.twin >= 0)[0][0])
    t = int(net_small.twin[s])
    # synthetic eastbound-ish motion along segment s
    x0, y0 = net_small.point_at(s, 0.2)
    x1, y1 = net_small.point_at(s, 0.8)
    px = np.linspace(x0, x1, 5)
    py = np.linspace(y0, y1, 5)
    segs, ratios = snap_with_direction(net_small, index_small, px, py)
    assert (segs == s).sum() > (segs == t).sum()


def test_fitted_recoverers_emit_all_ticks(net_small, index_small, pt_norm, trajs_small, one):
    tr, obs = one

    class MiniCity:
        net = net_small
        index = index_small
        norm = pt_norm
        eps = 15.0
        gamma = 0.1
        name = "pt"

        def trajs(self, split):
            return trajs_small[:6]

    city = MiniCity()
    for cls in SEQ2SEG + (DHTRRecoverer, TERIRecoverer):
        rec = cls(net_small, index_small, pt_norm, 15.0, d=12, seed=0).fit(city, epochs=1)
        segs, ratios = _recover(rec, tr, obs)
        assert len(segs) == len(tr.t)
        assert ((segs >= 0) & (segs < net_small.n_segments)).all()
        assert ((ratios >= 0) & (ratios <= 1)).all()


def test_recoverers_pickle(net_small, index_small, pt_norm):
    import pickle

    rec = LinearRecoverer(NearestMatcher(net_small, index_small, pt_norm), eps=15.0)
    clone = pickle.loads(pickle.dumps(rec))
    assert clone.name == "Linear"


@pytest.mark.parametrize("cls", SEQ2SEG, ids=lambda c: c.name)
def test_seq2seg_recover_equals_autodiff_reference(net_small, index_small, pt_norm, trajs_small, cls):
    rec = cls(net_small, index_small, pt_norm, 15.0, d=12, seed=1)
    for tr in trajs_small[:4]:
        obs = np.where(tr.observed)[0]
        args = (tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, obs, len(tr.t))
        segs, ratios = rec.recover(*args)
        ref_segs, ref_ratios = rollout_autodiff(rec, *args)
        assert np.array_equal(segs, ref_segs)
        assert np.array_equal(ratios, ref_ratios)


@pytest.mark.parametrize("cls", (RNTrajRecRecoverer, MMSTGEDRecoverer, TrajGATDecRecoverer),
                         ids=lambda c: c.name)
def test_subgraph_encoders_run_node2vec_once(net_small, index_small, pt_norm, monkeypatch, cls):
    """The subgraph embeddings are the Node2Vec columns of the decoder's
    segment features: one Node2Vec run per recoverer, equal to its own."""
    import repro.mma.baselines as mma_baselines
    import repro.trmma.baselines as trmma_baselines
    from repro.roadnet.node2vec import node2vec_embeddings

    runs = []
    for module in (mma_baselines, trmma_baselines):
        monkeypatch.setattr(module, "node2vec_embeddings",
                            lambda *a, **k: runs.append(1) or node2vec_embeddings(*a, **k), raising=False)
    rec = cls(net_small, index_small, pt_norm, 15.0, d=12, seed=2)
    assert len(runs) == 1
    assert np.array_equal(rec.n2v, node2vec_embeddings(net_small, d=16, seed=2))


@pytest.mark.parametrize("cls", (DHTRRecoverer, TERIRecoverer), ids=lambda c: c.name)
def test_free_space_coords_equal_autodiff_reference(net_small, index_small, pt_norm, trajs_small, cls):
    rec = cls(net_small, index_small, pt_norm, 15.0, d=12, seed=1)
    for tr in trajs_small[:4]:
        obs = np.where(tr.observed)[0]
        X = rec._obs_X(tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, len(tr.t))
        coords = rec._coords(X, tr.x[obs], tr.y[obs], obs, len(tr.t))
        assert type(coords) is np.ndarray
        assert np.array_equal(coords, rec._coords(Tensor(X), tr.x[obs], tr.y[obs], obs, len(tr.t)).data)
