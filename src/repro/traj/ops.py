"""Route/trajectory geometry helpers shared by the generator, the Linear
interpolation baseline, and both models' pre/post-processing.

A *route* is a list of connected segment ids; positions along it are
expressed either as (route_pos, ratio) or as a scalar distance from the
route's start.
"""
from __future__ import annotations

import numpy as np

from repro.roadnet.graph import RoadNetwork


def route_cum_lengths(net: RoadNetwork, route) -> np.ndarray:
    """Cumulative length boundaries of a route: ``out[i]`` = distance from
    the route start to the *start* of segment ``route[i]``; ``out[-1]`` is
    the total length (shape ``len(route)+1``)."""
    lens = net.length[np.asarray(route, dtype=np.int64)]
    return np.concatenate([[0.0], np.cumsum(lens)])


def locate_on_route(net: RoadNetwork, route, dist: float, cum: np.ndarray | None = None):
    """Map a distance-from-start to ``(route_pos, seg, ratio)``.

    Distances past the end clamp to the last segment's tail (ratio<1), per
    Definition 5's half-open ratio range.
    """
    route = np.asarray(route, dtype=np.int64)
    if cum is None:
        cum = route_cum_lengths(net, route)
    dist = float(np.clip(dist, 0.0, cum[-1] - 1e-9))
    pos = int(np.searchsorted(cum, dist, side="right") - 1)
    pos = min(pos, len(route) - 1)
    seg = int(route[pos])
    ratio = (dist - cum[pos]) / float(net.length[seg])
    return pos, seg, float(np.clip(ratio, 0.0, 1.0 - 1e-9))


def route_offset(net: RoadNetwork, route, pos: int, ratio: float, cum: np.ndarray | None = None) -> float:
    """Inverse of :func:`locate_on_route`: distance-from-start of the
    map-matched point ``(route[pos], ratio)``."""
    if cum is None:
        cum = route_cum_lengths(net, route)
    return float(cum[pos] + ratio * net.length[int(np.asarray(route)[pos])])


def sparsify_mask(n: int, gamma: float, rng: np.random.Generator) -> np.ndarray:
    """Random sparsification mask: keep first/last, keep interior points
    with probability ``gamma`` (paper §VI-A: sparse trajectories average a
    ``ε/γ`` interval). Guarantees at least 2 kept points."""
    if n < 2:
        raise ValueError("trajectory needs >= 2 points")
    mask = np.zeros(n, dtype=bool)
    mask[0] = mask[-1] = True
    if n > 2:
        mask[1:-1] = rng.random(n - 2) < gamma
    return mask
