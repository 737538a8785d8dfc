"""Tests for MMA candidate sets and embedding input features (§IV)."""
import numpy as np
import pytest

from repro.mma.features import (
    K_C,
    build_mma_sample,
    candidate_features,
    point_features,
)


@pytest.fixture(scope="module")
def obs(trajs_small):
    tr = trajs_small[0]
    return tr, np.where(tr.observed)[0]


def test_candidate_shapes(net_small, index_small, obs):
    tr, o = obs
    cand, feats, mask = candidate_features(net_small, index_small, tr.x[o], tr.y[o])
    assert cand.shape == (len(o), K_C)
    assert feats.shape == (len(o), K_C, 6)
    assert mask.all()  # network has > k_c segments near any point


def test_candidates_sorted_by_distance(net_small, index_small, obs):
    tr, o = obs
    cand, feats, _ = candidate_features(net_small, index_small, tr.x[o], tr.y[o])
    dist = feats[:, :, 4]
    assert (np.diff(dist, axis=1) >= -1e-12).all()


def test_cosine_features_in_range(net_small, index_small, obs):
    tr, o = obs
    _, feats, _ = candidate_features(net_small, index_small, tr.x[o], tr.y[o])
    assert (np.abs(feats[:, :, :4]) <= 1.0 + 1e-9).all()


def test_twin_separation_by_next_cosine(net_small, index_small, trajs_small):
    """For two-way roads the correct travel direction must have the larger
    cos(segment, motion) on average — the feature MMA relies on."""
    goods, bads = [], []
    for tr in trajs_small:
        o = np.where(tr.observed)[0]
        cand, feats, mask = candidate_features(net_small, index_small, tr.x[o], tr.y[o])
        for i in range(len(o)):
            true = tr.seg[o[i]]
            twin = net_small.twin[true]
            if twin < 0:
                continue
            row = cand[i]
            if true in row and twin in row:
                goods.append(feats[i, np.where(row == true)[0][0], 3])
                bads.append(feats[i, np.where(row == twin)[0][0], 3])
    assert np.mean(goods) > np.mean(bads) + 0.5


def test_point_features_normalised(net_small, obs, pt_norm):
    tr, o = obs
    X = point_features(tr.x[o], tr.y[o], tr.t[o], tr.t0, pt_norm)
    assert X.shape == (len(o), 3)
    assert (X[:, 2] >= 0).all() and (X[:, 2] < 1).all()


def test_sample_labels_hit_at_kc_high(net_small, index_small, trajs_small, pt_norm):
    """Fig. 2's finding: the true segment is inside the top-k_c candidates
    with probability ≈ 1 at k_c = 10."""
    hits = tot = 0
    for tr in trajs_small:
        o = np.where(tr.observed)[0]
        s = build_mma_sample(net_small, index_small, tr.x[o], tr.y[o], tr.t[o], tr.t0,
                             pt_norm, true_seg=tr.seg[o])
        hits += int((s.label >= 0).sum())
        tot += len(s.label)
    assert hits / tot > 0.9


def test_sample_label_positions_correct(net_small, index_small, obs, pt_norm):
    tr, o = obs
    s = build_mma_sample(net_small, index_small, tr.x[o], tr.y[o], tr.t[o], tr.t0,
                         pt_norm, true_seg=tr.seg[o])
    for i in range(len(o)):
        if s.label[i] >= 0:
            assert s.cand[i, s.label[i]] == tr.seg[o[i]]


def test_sample_without_labels(net_small, index_small, obs, pt_norm):
    tr, o = obs
    s = build_mma_sample(net_small, index_small, tr.x[o], tr.y[o], tr.t[o], tr.t0, pt_norm)
    assert s.label is None


def test_nearest_hit_ratio_band(net_small, index_small, trajs_small):
    """Top-1 hit ratio sits well below 1 (the paper's ~0.7 motivation)."""
    hit = tot = 0
    for tr in trajs_small:
        o = np.where(tr.observed)[0]
        cand, _, _ = candidate_features(net_small, index_small, tr.x[o], tr.y[o])
        hit += int((cand[:, 0] == tr.seg[o]).sum())
        tot += len(o)
    assert 0.3 < hit / tot < 0.9
