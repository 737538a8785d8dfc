"""Tests for route planning, stitching, historical costs and network
distances."""
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import (
    HistoricalCosts,
    NetworkDistance,
    network_distance_for,
    plan_route,
    stitch_route,
)


def test_plan_route_is_connected(net_small):
    route = plan_route(net_small, 0, net_small.n_segments // 2)
    assert route is not None
    assert route[0] == 0
    assert route[-1] == net_small.n_segments // 2
    for a, b in zip(route, route[1:]):
        assert net_small.seg_v[a] == net_small.seg_u[b]


def test_plan_route_same_src_dst(net_small):
    assert plan_route(net_small, 7, 7) == [7]


def _segment_dijkstra(net, src, costs):
    """Reference: Dijkstra over segments, the cost of a path being the
    costs of the segments after ``src``."""
    dist = {src: 0.0}
    pq = [(0.0, src)]
    while pq:
        d, s = heapq.heappop(pq)
        if d > dist.get(s, np.inf):
            continue
        for nxt in net.successors(s):
            nxt = int(nxt)
            nd = d + float(costs[nxt])
            if nd < dist.get(nxt, np.inf):
                dist[nxt] = nd
                heapq.heappush(pq, (nd, nxt))
    return dist


def test_plan_route_minimises_length(net_small):
    """Cost of the planned route equals the segment-level optimum."""
    src, dst = 3, 60
    route = plan_route(net_small, src, dst)
    cost = net_small.length[route[1:]].sum()
    assert cost == pytest.approx(_segment_dijkstra(net_small, src, net_small.length)[dst])


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_plan_route_optimal_under_random_costs(net_small, data, seed):
    """Under any positive costs the planned route is a connected path
    ``src → dst`` whose cost equals the segment-level reference."""
    seg = st.integers(0, net_small.n_segments - 1)
    src, dst = data.draw(seg), data.draw(seg)
    costs = np.random.default_rng(seed).uniform(1.0, 500.0, net_small.n_segments)
    route = plan_route(net_small, src, dst, costs)
    assert route[0] == src and route[-1] == dst
    for a, b in zip(route, route[1:]):
        assert net_small.seg_v[a] == net_small.seg_u[b]
    assert costs[route[1:]].sum() == pytest.approx(_segment_dijkstra(net_small, src, costs)[dst])


def test_stitch_route_contains_anchors(net_small):
    anchors = [2, 40, 90]
    route = stitch_route(net_small, anchors)
    for a in anchors:
        assert a in route
    # connected except possibly at fallback concatenations
    for a, b in zip(route, route[1:]):
        assert net_small.seg_v[a] == net_small.seg_u[b]


def test_stitch_route_dedups_consecutive(net_small):
    route = stitch_route(net_small, [5, 5, 5])
    assert route == [5]


def test_historical_costs_discount_popular(net_small):
    hc0 = HistoricalCosts(net_small)
    hc = HistoricalCosts(net_small, routes=[[1, 2, 3], [1, 2], [1]])
    assert np.allclose(hc0.cost, net_small.length)
    assert hc.cost[1] < hc.cost[4] or net_small.length[1] < net_small.length[4]
    assert hc.cost[1] < net_small.length[1]
    assert hc.counts[1] == 3


def test_network_distance_same_segment(net_small):
    nd = NetworkDistance(net_small)
    d = nd.dist(4, 0.2, 4, 0.7)
    assert d == pytest.approx(0.5 * net_small.length[4])


def test_network_distance_zero_for_same_point(net_small):
    nd = NetworkDistance(net_small)
    assert nd.dist(9, 0.4, 9, 0.4) == pytest.approx(0.0)


def test_network_distance_symmetric(net_small):
    nd = NetworkDistance(net_small)
    assert nd.dist(3, 0.5, 77, 0.25) == pytest.approx(nd.dist(77, 0.25, 3, 0.5))


def test_network_distance_lower_bounded_by_euclid(net_small):
    nd = NetworkDistance(net_small)
    for a, b in [(0, 50), (10, 120), (33, 34)]:
        x1, y1 = net_small.point_at(a, 0.5)
        x2, y2 = net_small.point_at(b, 0.5)
        euclid = float(np.hypot(x1 - x2, y1 - y2))
        assert nd.dist(a, 0.5, b, 0.5) >= euclid - 11.0  # lane offset slack


def test_directed_consistent_with_adjacent_segments(net_small):
    nd = NetworkDistance(net_small)
    s = 0
    nxt = int(net_small.successors(s)[0])
    d = nd.directed(s, 0.5, nxt, 0.5)
    expect = 0.5 * net_small.length[s] + 0.5 * net_small.length[nxt]
    assert d == pytest.approx(expect)


def test_network_distance_cache_shared(net_small):
    a = network_distance_for(net_small)
    b = network_distance_for(net_small)
    assert a is b


def _triangle(last_u: int, last_v: int):
    """Nodes (0,0), (100,0), (0,100); segments 0→1, 1→2 and last_u→last_v."""
    node_x, node_y = np.array([0.0, 100.0, 0.0]), np.array([0.0, 0.0, 100.0])
    seg_u, seg_v = np.array([0, 1, last_u]), np.array([1, 2, last_v])
    return RoadNetwork(
        seg_u, seg_v, node_x[seg_u], node_y[seg_u], node_x[seg_v], node_y[seg_v], node_x, node_y,
        out_segs=[np.where(seg_u == k)[0] for k in range(3)],
        in_segs=[np.where(seg_v == k)[0] for k in range(3)],
        twin=np.full(3, -1),
    )


def test_network_distance_cache_tells_apart_equal_sized_networks():
    """Two triangles alike in segment count, node count and total length,
    differing only in the direction of one segment, get their own caches."""
    closed, open_ = _triangle(2, 0), _triangle(0, 2)
    assert NetworkDistance(closed).directed(0, 0.5, 2, 0.5) == pytest.approx(50 + 100 * np.sqrt(2) + 50)
    assert NetworkDistance(open_).directed(0, 0.5, 2, 0.5) == np.inf
    assert network_distance_for(closed).directed(0, 0.5, 2, 0.5) == pytest.approx(241.42, abs=0.01)
    assert network_distance_for(open_).directed(0, 0.5, 2, 0.5) == np.inf
    assert network_distance_for(_triangle(0, 2)) is network_distance_for(open_)


def test_unreachable_hop_falls_back_to_concatenation():
    """In the open triangle nothing leaves node 2, so segment 0 cannot be
    reached from segment 2: no route, and stitching concatenates."""
    net = _triangle(0, 2)
    assert plan_route(net, 2, 0) is None
    assert stitch_route(net, [2, 0]) == [2, 0]


def test_costs_as_list_or_array_plan_the_same(net_small):
    """``stitch_route`` converts its costs to a list once and plans every
    hop with it; ``plan_route`` still takes the array."""
    costs = HistoricalCosts(net_small, [list(range(0, 40, 3))]).cost
    rng = np.random.default_rng(2)
    for a, b in rng.integers(0, net_small.n_segments, size=(20, 2)):
        assert plan_route(net_small, int(a), int(b), costs) == plan_route(net_small, int(a), int(b), costs.tolist())
    anchors = [int(s) for s in rng.integers(0, net_small.n_segments, size=6)]
    hops = [anchors[0]]
    for s in anchors[1:]:
        if s != hops[-1]:
            hop = plan_route(net_small, hops[-1], s, costs)
            hops.extend(hop[1:] if hop is not None else [s])
    assert stitch_route(net_small, anchors, costs) == hops
