"""Sample builders for TRMMA.

Training samples use ground-truth matched points and routes (the paper
trains on map-matched historical data); inference samples use the matched
points and stitched route produced by MMA (Alg. 2 line 1).

Observed-point features: MMA's point features (normalised x/y and
time-of-day, :func:`repro.mma.features.point_features`), trip-time fraction,
and the position ratio from projecting the noisy GPS point onto the matched
segment (Alg. 2 line 4). Route features: normalised segment length and
cumulative route offset — explicit route geometry (DESIGN.md §2).
"""
from __future__ import annotations

import numpy as np

from repro.mma.features import point_features
from repro.roadnet.graph import RoadNetwork
from repro.traj.generate import Trajectory
from repro.traj.ops import route_cum_lengths
from repro.trmma.model import TrmmaSample


def route_geometry(net: RoadNetwork, route: np.ndarray) -> np.ndarray:
    """(ℓ_R, 2) per-segment [length, cumulative-start-offset], both
    normalised by the route's total length."""
    cum = route_cum_lengths(net, route)
    total = max(float(cum[-1]), 1e-9)
    return np.stack([np.diff(cum) / total, cum[:-1] / total], axis=1)


def route_time_weights(
    net: RoadNetwork, route: np.ndarray, time_per_meter: np.ndarray | None
) -> np.ndarray:
    """Expected traversal-time share per route segment.

    ``time_per_meter`` comes from historical statistics
    (:func:`repro.trmma.train.segment_time_stats_trajs`); ``None`` falls back to
    uniform speed (time ∝ length), i.e. plain distance interpolation."""
    lens = net.length[np.asarray(route, dtype=np.int64)]
    if time_per_meter is None:
        w = lens.astype(np.float64)
    else:
        w = lens * time_per_meter[np.asarray(route, dtype=np.int64)]
    return w / max(float(w.sum()), 1e-9)


def build_train_sample(
    net: RoadNetwork, tr: Trajectory, norm: dict, time_per_meter: np.ndarray | None = None
) -> TrmmaSample | None:
    """Teacher-forcing sample: GT route, GT per-tick targets; the observed
    points' ratios come from projecting the *noisy* GPS onto the true
    segment, exactly Alg. 2 line 4."""
    obs = np.where(tr.observed)[0]
    if len(obs) < 2 or len(tr.route) < 2:
        return None
    proj_r = np.array([net.project(float(tr.x[i]), float(tr.y[i]), int(tr.seg[i]))[0] for i in obs])
    duration = max(float(tr.t[-1]), 1e-9)
    return TrmmaSample(
        obs_feats=np.column_stack(
            [point_features(tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, norm), tr.t[obs] / duration, proj_r]
        ),
        obs_seg=tr.seg[obs],
        obs_pos=tr.route_pos[obs],
        obs_tick=obs.astype(np.int64),
        route=tr.route,
        route_feats=route_geometry(net, tr.route),
        route_timew=route_time_weights(net, tr.route, time_per_meter),
        n_ticks=len(tr.t),
        tick_tau=tr.t / duration,
        tick_pos=tr.route_pos.astype(np.int64),
        tick_ratio=tr.ratio,
    )


def positions_in_route(route: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Monotone positions of matched segments within a stitched route.

    Each segment is located at its first occurrence at/after the previous
    point's position (routes from :func:`repro.roadnet.routing.stitch_route`
    contain every matched segment in order; the fallback-concatenation case
    may break order, in which case we search anywhere, then clamp)."""
    pos = np.zeros(len(segs), dtype=np.int64)
    prev = 0
    route_list = [int(r) for r in route]
    for i, s in enumerate(segs):
        s = int(s)
        found = -1
        for k in range(prev, len(route_list)):
            if route_list[k] == s:
                found = k
                break
        if found < 0:
            try:
                found = route_list.index(s)
            except ValueError:
                found = prev
        pos[i] = found
        prev = max(prev, found)
    return pos


def build_infer_sample(
    net: RoadNetwork,
    norm: dict,
    xs: np.ndarray,
    ys: np.ndarray,
    ts: np.ndarray,
    t0: float,
    idxs: np.ndarray,
    n_ticks: int,
    eps: float,
    matched_seg: np.ndarray,
    matched_ratio: np.ndarray,
    route: np.ndarray,
    time_per_meter: np.ndarray | None = None,
) -> TrmmaSample:
    """Inference sample over an MMA-matched sparse trajectory."""
    duration = max(float((n_ticks - 1) * eps), 1e-9)
    route = np.asarray(route, dtype=np.int64)
    return TrmmaSample(
        obs_feats=np.column_stack([point_features(xs, ys, ts, t0, norm), ts / duration, matched_ratio]),
        obs_seg=matched_seg.astype(np.int64),
        obs_pos=positions_in_route(route, matched_seg),
        obs_tick=idxs.astype(np.int64),
        route=route,
        route_feats=route_geometry(net, route),
        route_timew=route_time_weights(net, route, time_per_meter),
        n_ticks=int(n_ticks),
        tick_tau=(np.arange(n_ticks) * eps) / duration,
        tick_pos=np.full(n_ticks, -1, dtype=np.int64),
        tick_ratio=np.zeros(n_ticks),
    )
