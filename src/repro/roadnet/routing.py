"""Route planning and network distances.

``plan_route`` fills the gap between two matched segments (Algorithm 1
lines 10-13). The paper uses the DA-based planner of [2], which follows
historically popular continuations; our lite equivalent is Dijkstra over the
segment graph with per-segment costs discounted by historical traversal
counts (``HistoricalCosts``), falling back to pure shortest path when no
history is supplied. See DESIGN.md §2.

``NetworkDistance`` computes the road-network distance between two
map-matched points (the MAE/RMSE metric of §VI-A), caching single-source
node Dijkstra runs.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.roadnet.graph import RoadNetwork


class HistoricalCosts:
    """Per-segment routing costs ``length / (1 + w·log1p(count))`` where
    ``count`` is how often the segment appears in training routes — the
    DA-lite planner preference for historically popular continuations
    (paper [2]); ``w`` keeps the discount gentle so geometry still
    dominates."""

    def __init__(self, net: RoadNetwork, routes=None, w: float = 0.15):
        counts = np.zeros(net.n_segments)
        if routes is not None:
            for r in routes:
                for s in r:
                    counts[s] += 1.0
        self.counts = counts
        self.cost = net.length / (1.0 + w * np.log1p(counts))


def plan_route(
    net: RoadNetwork,
    src: int,
    dst: int,
    costs: np.ndarray | None = None,
    max_expansions: int = 20000,
) -> list[int] | None:
    """Cheapest segment path ``src → dst`` (both inclusive).

    Successors of a segment are the segments leaving its exit node. Returns
    ``None`` when unreachable within the expansion budget (the paper notes
    this is rare, ~0.06%; callers fall back to a straight concatenation).
    """
    if src == dst:
        return [src]
    c = costs if costs is not None else net.length
    dist = {src: 0.0}
    prev: dict[int, int] = {}
    pq = [(0.0, src)]
    pops = 0
    while pq and pops < max_expansions:
        d, s = heapq.heappop(pq)
        pops += 1
        if s == dst:
            path = [dst]
            while path[-1] != src:
                path.append(prev[path[-1]])
            return path[::-1]
        if d > dist.get(s, np.inf):
            continue
        for nxt in net.successors(s):
            nxt = int(nxt)
            nd = d + float(c[nxt])
            if nd < dist.get(nxt, np.inf):
                dist[nxt] = nd
                prev[nxt] = s
                heapq.heappush(pq, (nd, nxt))
    return None


def stitch_route(net: RoadNetwork, segs: list[int], costs: np.ndarray | None = None) -> list[int]:
    """Connect consecutive matched segments into one route (Alg. 1 l.10-13).

    Consecutive duplicates collapse; unreachable hops degrade to simple
    concatenation, matching the paper's fallback discussion.
    """
    route: list[int] = []
    for s in segs:
        s = int(s)
        if not route:
            route.append(s)
            continue
        if s == route[-1]:
            continue
        hop = plan_route(net, route[-1], s, costs)
        if hop is None:
            route.append(s)
        else:
            route.extend(hop[1:])
    return route


class NetworkDistance:
    """Road-network distance between map-matched points, with caching.

    ``dist((e1, r1), (e2, r2))`` = remaining length of ``e1`` + node
    shortest-path + consumed length of ``e2``; symmetrised with the reverse
    direction and the along-segment case. Single-source Dijkstra results per
    origin node are cached (``self._cache``) so evaluating thousands of
    point pairs per city stays cheap.
    """

    def __init__(self, net: RoadNetwork):
        self.net = net
        self.adj = net.node_adjacency()
        self._cache: dict[int, np.ndarray] = {}

    def _sssp(self, src_node: int) -> np.ndarray:
        hit = self._cache.get(src_node)
        if hit is not None:
            return hit
        n = self.net.n_nodes
        dist = np.full(n, np.inf)
        dist[src_node] = 0.0
        pq = [(0.0, src_node)]
        while pq:
            d, u = heapq.heappop(pq)
            if d > dist[u]:
                continue
            for v, _s, w in self.adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(pq, (nd, v))
        self._cache[src_node] = dist
        return dist

    def _directed(self, e1: int, r1: float, e2: int, r2: float) -> float:
        net = self.net
        if e1 == e2:
            if r2 >= r1:
                return (r2 - r1) * float(net.length[e1])
            # must loop around: remaining + cycle back to own entrance
            d = self._sssp(int(net.seg_v[e1]))[int(net.seg_u[e1])]
            return (1 - r1) * float(net.length[e1]) + d + r2 * float(net.length[e2])
        d = self._sssp(int(net.seg_v[e1]))[int(net.seg_u[e2])]
        return (1 - r1) * float(net.length[e1]) + d + r2 * float(net.length[e2])

    def directed(self, e1: int, r1: float, e2: int, r2: float) -> float:
        """Directed travel distance (may be inf when unreachable) — the
        HMM transition feature of FMM-style matchers."""
        return self._directed(e1, r1, e2, r2)

    def dist(self, e1: int, r1: float, e2: int, r2: float) -> float:
        """Symmetric network distance (min of both travel directions),
        additionally bounded below by straight-line distance for safety."""
        d = min(self._directed(e1, r1, e2, r2), self._directed(e2, r2, e1, r1))
        if not np.isfinite(d):
            x1, y1 = self.net.point_at(e1, r1)
            x2, y2 = self.net.point_at(e2, r2)
            return float(np.hypot(x1 - x2, y1 - y2))
        return float(d)


# Per-process cache of NetworkDistance objects keyed by the network's
# digest. Spark python workers are reused across Arrow batches, so Dijkstra
# results accumulate across trajectories of the same city.
_ND_CACHE: dict[str, NetworkDistance] = {}


def network_distance_for(net: RoadNetwork) -> NetworkDistance:
    """Shared cached :class:`NetworkDistance` for ``net`` in this process."""
    nd = _ND_CACHE.get(net.digest)
    if nd is None:
        nd = _ND_CACHE[net.digest] = NetworkDistance(net)
    return nd
