"""Route planning and network distances over one shortest-path search.

``shortest_paths`` is the program's single Dijkstra: a node-level search
from one intersection under per-segment costs. Three callers share it:

* ``plan_route`` fills the gap between two matched segments (Algorithm 1
  lines 10-13). The paper uses the DA-based planner of [2], which follows
  historically popular continuations; our lite equivalent searches with
  per-segment costs discounted by historical traversal counts
  (``HistoricalCosts``), falling back to pure length when no history is
  supplied. See DESIGN.md §2.
* ``NetworkDistance`` computes the road-network distance between two
  map-matched points (the MAE/RMSE metric of §VI-A and the FMM/LHMM
  transitions), caching one search per origin node.
* the trajectory generator (``repro.traj.generate``) draws driver routes
  from a search under per-trip randomised costs.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.roadnet.graph import RoadNetwork


def shortest_paths(
    net: RoadNetwork, src_node: int, cost: np.ndarray | list[float], target: int = -1
) -> tuple[list, list]:
    """Dijkstra over intersection nodes from ``src_node``; entering segment
    ``s`` costs ``cost[s]`` (positive). ``cost`` is an array or, to skip
    the conversion when one caller searches many times, a list.

    Returns ``(dist, prev_seg)``, lists indexed by node: the cheapest cost
    (``inf`` when unreachable) and the segment the cheapest path enters the
    node by (``-1`` at the source and where unreachable). With ``target`` the
    search stops once that node is settled; only its entries are then final.
    """
    # per-edge numpy indexing is several times slower than a list's
    c = cost.tolist() if isinstance(cost, np.ndarray) else cost
    adj = net.adjacency
    dist = [float("inf")] * net.n_nodes
    prev = [-1] * net.n_nodes
    dist[src_node] = 0.0
    pq = [(0.0, src_node)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        if u == target:
            break
        for s, v in adj[u]:
            nd = d + c[s]
            if nd < dist[v]:
                dist[v] = nd
                prev[v] = s
                heapq.heappush(pq, (nd, v))
    return dist, prev


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
    net: RoadNetwork, src: int, dst: int, costs: np.ndarray | list[float] | None = None
) -> list[int] | None:
    """Cheapest segment path ``src → dst`` (both inclusive).

    Searches from ``src``'s exit node to ``dst``'s entrance node under
    ``costs`` (array or list; ``None`` means segment length). Returns
    ``None`` when unreachable (the paper notes this is rare, ~0.06%; callers
    fall back to a straight concatenation).
    """
    if src == dst:
        return [src]
    start, goal = int(net.seg_v[src]), int(net.seg_u[dst])
    dist, prev = shortest_paths(net, start, net.length if costs is None else costs, goal)
    if dist[goal] == float("inf"):
        return None
    path = [dst]
    node = goal
    while node != start:
        path.append(prev[node])
        node = int(net.seg_u[prev[node]])
    path.append(src)
    return path[::-1]


def stitch_route(net: RoadNetwork, segs: list[int], costs: np.ndarray | None = None) -> list[int]:
    """Connect consecutive matched segments into one route (Alg. 1 l.10-13).

    Consecutive duplicates collapse; unreachable hops degrade to simple
    concatenation, matching the paper's fallback discussion.
    """
    costs = (net.length if costs is None else costs).tolist()  # once, not per hop
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
        self._cache: dict[int, np.ndarray] = {}

    def _sssp(self, src_node: int) -> np.ndarray:
        hit = self._cache.get(src_node)
        if hit is None:
            # an array holds a cached row in a quarter of a list's memory
            hit = self._cache[src_node] = np.array(shortest_paths(self.net, src_node, self.net.length)[0])
        return hit

    def directed(self, e1: int, r1: float, e2: int, r2: float) -> float:
        """Directed travel distance (may be inf when unreachable) — the
        HMM transition feature of FMM-style matchers. Behind ``r1`` on the
        same segment, the path loops back to the segment's own entrance."""
        net = self.net
        if e1 == e2 and r2 >= r1:
            return (r2 - r1) * float(net.length[e1])
        d = self._sssp(int(net.seg_v[e1]))[int(net.seg_u[e2])]
        return (1 - r1) * float(net.length[e1]) + d + r2 * float(net.length[e2])

    def dist(self, e1: int, r1: float, e2: int, r2: float) -> float:
        """Symmetric network distance (min of both travel directions),
        additionally bounded below by straight-line distance for safety."""
        d = min(self.directed(e1, r1, e2, r2), self.directed(e2, r2, e1, r1))
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
