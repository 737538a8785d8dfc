"""Candidate sets and embedding input features for MMA (§IV-B).

For each GPS point ``p_i`` (observed points of the sparse trajectory), we
build its candidate set ``C_{p_i}`` — the top-``k_c`` nearest segments
(Definition 8) — and per-candidate features:

* the paper's four directional cosine similarities (segment direction vs the
  entrance→point, point→exit, previous-point→point and point→next-point
  vectors);
* two extra scalars: normalised perpendicular distance and candidate rank
  (a documented lite-scale deviation, DESIGN.md §2). The ``-DI`` ablations
  zero the four cosines exactly as the paper's ablation does.

Point features are the min-max normalised coordinates plus time-of-day, the
paper's ``z^(0)`` (we normalise the timestamp by the 24 h day since our
synthetic trips carry a start-of-day offset).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.spatial_index import SegmentIndex

K_C = 10  # the paper's candidate set size (validated in §IV-A / Fig. 2)
N_CAND_FEATS = 6  # 4 cosines + distance + rank
DIST_SCALE = 50.0  # metres; soft scale for the distance feature


@dataclass
class MMASample:
    """Featureised sparse trajectory for the MMA classifier."""

    X: np.ndarray  # (ℓ, 3) normalised x, y, time-of-day per observed point
    cand: np.ndarray  # (ℓ, k_c) candidate segment ids (padded with 0)
    feats: np.ndarray  # (ℓ, k_c, 6) candidate features
    mask: np.ndarray  # (ℓ, k_c) True where the candidate slot is real
    label: np.ndarray | None  # (ℓ,) index of true segment in cand, -1 if absent


def point_features(xs: np.ndarray, ys: np.ndarray, ts: np.ndarray, t0: float, norm: dict) -> np.ndarray:
    """The paper's z^(0): min-max normalised coordinates + timestamp."""
    xn = (xs - norm["x0"]) / max(norm["x1"] - norm["x0"], 1e-9)
    yn = (ys - norm["y0"]) / max(norm["y1"] - norm["y0"], 1e-9)
    tn = ((ts + t0) % 86400.0) / 86400.0
    return np.stack([xn, yn, tn], axis=1)


def candidate_features(
    net: RoadNetwork,
    index: SegmentIndex,
    xs: np.ndarray,
    ys: np.ndarray,
    k_c: int = K_C,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate ids, features and mask for a point sequence.

    Returns ``(cand (ℓ,k), feats (ℓ,k,6), mask (ℓ,k))``; feature columns
    0–3 are the four cosines (which the -DI model ignores, see
    :class:`repro.mma.model.MMAModel`), 4 the distance and 5 the rank.
    """
    n = len(xs)
    cand = np.zeros((n, k_c), dtype=np.int64)
    feats = np.zeros((n, k_c, N_CAND_FEATS))
    mask = np.zeros((n, k_c), dtype=bool)
    for i in range(n):
        ids, dists = index.query(float(xs[i]), float(ys[i]), k_c)
        k = len(ids)
        cand[i, :k] = ids
        mask[i, :k] = True
        dirs = net.seg_dir(ids)  # (k, 2)
        # segment vector vs entrance→p_i
        v_ent = np.stack([xs[i] - net.ux[ids], ys[i] - net.uy[ids]], axis=1)
        # segment vector vs p_i→exit
        v_exit = np.stack([net.vx[ids] - xs[i], net.vy[ids] - ys[i]], axis=1)
        feats[i, :k, 0] = _cos_rows(dirs, v_ent)
        feats[i, :k, 1] = _cos_rows(dirs, v_exit)
        if i > 0:
            v_prev = np.array([xs[i] - xs[i - 1], ys[i] - ys[i - 1]])
            feats[i, :k, 2] = _cos_rows(dirs, np.broadcast_to(v_prev, (k, 2)))
        if i < n - 1:
            v_next = np.array([xs[i + 1] - xs[i], ys[i + 1] - ys[i]])
            feats[i, :k, 3] = _cos_rows(dirs, np.broadcast_to(v_next, (k, 2)))
        feats[i, :k, 4] = np.clip(dists / DIST_SCALE, 0.0, 2.0)
        feats[i, :k, 5] = np.arange(k) / k_c
    return cand, feats, mask


def _cos_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity; 0 for ~zero vectors."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = na * nb
    out = np.zeros(len(a))
    ok = denom > 1e-9
    out[ok] = (a[ok] * b[ok]).sum(axis=1) / denom[ok]
    return out


def build_mma_sample(
    net: RoadNetwork,
    index: SegmentIndex,
    xs: np.ndarray,
    ys: np.ndarray,
    ts: np.ndarray,
    t0: float,
    norm: dict,
    true_seg: np.ndarray | None = None,
    k_c: int = K_C,
) -> MMASample:
    """Full featureisation of one sparse trajectory; labels are positions
    of the true segment within each candidate set (-1 when absent, which
    the paper notes is rare at k_c = 10)."""
    cand, feats, mask = candidate_features(net, index, xs, ys, k_c)
    label = None
    if true_seg is not None:
        label = np.full(len(xs), -1, dtype=np.int64)
        for i in range(len(xs)):
            hits = np.where(mask[i] & (cand[i] == true_seg[i]))[0]
            if len(hits):
                label[i] = hits[0]
    return MMASample(
        X=point_features(xs, ys, ts, t0, norm),
        cand=cand,
        feats=feats,
        mask=mask,
        label=label,
    )
