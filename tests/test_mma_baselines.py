"""Tests for the map-matching baselines and their shared machinery."""
import numpy as np
import pytest

from repro.mma.baselines import (
    DeepMMMatcher,
    GraphMMMatcher,
    HMMMatcher,
    LHMMMatcher,
    NearestMatcher,
    RNTrajRecRouteMatcher,
    _viterbi,
    distance_penalty,
    matcher_locality_prior,
    segment_feature_matrix,
)
from repro.mma.features import N_CAND_FEATS, point_features
from repro.nn.autodiff import Tensor


@pytest.fixture(scope="module")
def one_traj(trajs_small):
    tr = trajs_small[2]
    o = np.where(tr.observed)[0]
    return tr, o


def test_nearest_matcher_valid(net_small, index_small, pt_norm, one_traj):
    tr, o = one_traj
    m = NearestMatcher(net_small, index_small, pt_norm)
    segs = m.match(tr.x[o], tr.y[o], tr.t[o], tr.t0)
    assert segs.shape == (len(o),)
    assert ((segs >= 0) & (segs < net_small.n_segments)).all()


def test_hmm_matcher_valid_and_beats_nearest(net_small, index_small, pt_norm, trajs_small):
    near = NearestMatcher(net_small, index_small, pt_norm)
    hmm = HMMMatcher(net_small, index_small, pt_norm)
    acc_n = acc_h = tot = 0
    for tr in trajs_small:
        o = np.where(tr.observed)[0]
        sn = near.match(tr.x[o], tr.y[o], tr.t[o], tr.t0)
        sh = hmm.match(tr.x[o], tr.y[o], tr.t[o], tr.t0)
        acc_n += int((sn == tr.seg[o]).sum())
        acc_h += int((sh == tr.seg[o]).sum())
    assert acc_h >= acc_n  # HMM's transitions should not hurt


def test_lhmm_fitted_valid_and_beats_nearest(net_small, index_small, pt_norm, trajs_small):
    """LHMM's learned emission, fit on the same trajectories, in the HMM
    skeleton: valid segments and more points matched than Nearest."""

    class MiniCity:
        net = net_small
        index = index_small
        norm = pt_norm

        def trajs(self, split):
            return trajs_small

    w = LHMMMatcher.fit_emission(MiniCity())
    lhmm = LHMMMatcher(net_small, index_small, pt_norm, w)
    near = NearestMatcher(net_small, index_small, pt_norm)
    acc_n = acc_l = 0
    for tr in trajs_small:
        o = np.where(tr.observed)[0]
        sl = lhmm.match(tr.x[o], tr.y[o], tr.t[o], tr.t0)
        assert sl.shape == (len(o),)
        assert ((sl >= 0) & (sl < net_small.n_segments)).all()
        acc_l += int((sl == tr.seg[o]).sum())
        acc_n += int((near.match(tr.x[o], tr.y[o], tr.t[o], tr.t0) == tr.seg[o]).sum())
    assert acc_l > acc_n


def test_learned_matchers_fit_and_match(net_small, index_small, pt_norm, trajs_small, one_traj):
    """DeepMM, RNTrajRec-route and GraphMM fit one epoch and match every
    observed point to a valid segment."""
    tr, o = one_traj

    class MiniCity:
        net = net_small
        index = index_small
        norm = pt_norm
        name = "pt"

        def trajs(self, split):
            return trajs_small

    city = MiniCity()
    for m in (
        DeepMMMatcher(net_small, index_small, pt_norm, d=12).fit(city, epochs=1, augment=0),
        RNTrajRecRouteMatcher(net_small, index_small, pt_norm, d=12).fit(city, epochs=1),
        GraphMMMatcher(net_small, index_small, pt_norm, d=12).fit(city, epochs=1),
    ):
        segs = m.match(tr.x[o], tr.y[o], tr.t[o], tr.t0)
        assert segs.shape == (len(o),)
        assert ((segs >= 0) & (segs < net_small.n_segments)).all()


def test_viterbi_prefers_consistent_path():
    """Crafted lattice: emissions prefer candidate 1, transitions force 0."""
    cand = np.array([[0, 1], [0, 1], [0, 1]])
    mask = np.ones_like(cand, dtype=bool)
    em = np.log(np.array([[0.4, 0.6], [0.4, 0.6], [0.4, 0.6]]))

    def trans(i, a, b):
        return 0.0 if a == b == 0 else -10.0

    pick = _viterbi(cand, mask, em, trans)
    assert pick.tolist() == [0, 0, 0]


def test_viterbi_single_point():
    cand = np.array([[3, 7]])
    mask = np.ones_like(cand, dtype=bool)
    em = np.array([[0.1, 0.9]])
    pick = _viterbi(cand, mask, em, lambda i, a, b: 0.0)
    assert pick.tolist() == [1]


def test_viterbi_respects_mask():
    cand = np.array([[0, 1], [0, 1]])
    mask = np.array([[True, False], [True, True]])
    em = np.array([[0.0, 100.0], [0.0, 0.0]])
    pick = _viterbi(cand, mask, em, lambda i, a, b: 0.0)
    assert pick[0] == 0  # masked high-emission slot cannot win


def test_distance_penalty_monotone(net_small, one_traj):
    tr, o = one_traj
    pen = distance_penalty(net_small, tr.x[o], tr.y[o], delta=100.0)
    assert pen.shape == (len(o), net_small.n_segments)
    assert (pen <= 0).all()
    assert (pen >= -60.0).all()
    # the nearest segment has the mildest penalty
    i = 0
    d = net_small.seg_distances(float(tr.x[o][i]), float(tr.y[o][i]), np.arange(net_small.n_segments))
    assert pen[i].argmax() == d.argmin()


def test_segment_feature_matrix_shape_and_norm(net_small, pt_norm):
    F = segment_feature_matrix(net_small, pt_norm, d=8)
    assert F.shape == (net_small.n_segments, 5 + 8)
    assert (F[:, 0] >= -0.1).all() and (F[:, 0] <= 1.1).all()  # normalised mid-x
    assert np.allclose(np.linalg.norm(F[:, 2:4], axis=1), 1.0)  # unit dirs


def test_hmm_sigma_beta_params(net_small, index_small, pt_norm, one_traj):
    tr, o = one_traj
    tight = HMMMatcher(net_small, index_small, pt_norm, sigma=1.0)
    loose = HMMMatcher(net_small, index_small, pt_norm, sigma=100.0)
    st = tight.match(tr.x[o], tr.y[o], tr.t[o], tr.t0)
    sl = loose.match(tr.x[o], tr.y[o], tr.t[o], tr.t0)
    assert st.shape == sl.shape  # both run; results may differ


def test_matchers_pickle(net_small, index_small, pt_norm):
    import pickle

    for m in [NearestMatcher(net_small, index_small, pt_norm),
              HMMMatcher(net_small, index_small, pt_norm),
              LHMMMatcher(net_small, index_small, pt_norm, np.zeros(N_CAND_FEATS))]:
        clone = pickle.loads(pickle.dumps(m))
        assert clone.name == m.name


@pytest.mark.parametrize("cls", (DeepMMMatcher, RNTrajRecRouteMatcher), ids=lambda c: c.name)
def test_full_vocab_logits_equal_autodiff_reference(net_small, index_small, pt_norm, trajs_small, cls):
    m = cls(net_small, index_small, pt_norm, d=12, seed=1)
    for tr in trajs_small[:3]:
        o = np.where(tr.observed)[0]
        X = point_features(tr.x[o], tr.y[o], tr.t[o], tr.t0, pt_norm)
        pen = matcher_locality_prior(net_small, tr.x[o], tr.y[o])
        out = m.model.logits(X, pen)
        assert type(out) is np.ndarray
        assert np.array_equal(out, m.model.logits(Tensor(X), pen).data)
