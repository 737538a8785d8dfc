"""Tests for the synthetic city generator."""
import numpy as np
import pytest

from repro.roadnet.generate import _largest_scc, make_city


def test_deterministic_in_seed():
    a = make_city(8, 6, seed=1)
    b = make_city(8, 6, seed=1)
    assert a.n_segments == b.n_segments
    assert np.allclose(a.ux, b.ux)
    c = make_city(8, 6, seed=2)
    assert not (a.n_segments == c.n_segments and np.allclose(a.ux, c.ux))


def test_twins_are_mutual_and_antiparallel(net_small):
    net = net_small
    tw = net.twin
    for s in range(net.n_segments):
        if tw[s] >= 0:
            assert tw[tw[s]] == s
            assert net.seg_u[s] == net.seg_v[tw[s]]
            assert net.seg_v[s] == net.seg_u[tw[s]]
            d1 = net.seg_dir(s)
            d2 = net.seg_dir(int(tw[s]))
            assert np.allclose(d1, -d2, atol=1e-6)


def test_lane_offset_separates_twins(net_small):
    net = net_small
    s = int(np.where(net.twin >= 0)[0][0])
    t = int(net.twin[s])
    # midpoints of the two directions are ~2*lane_off apart
    mx1 = (net.ux[s] + net.vx[s]) / 2
    my1 = (net.uy[s] + net.vy[s]) / 2
    mx2 = (net.ux[t] + net.vx[t]) / 2
    my2 = (net.uy[t] + net.vy[t]) / 2
    d = np.hypot(mx1 - mx2, my1 - my2)
    assert 5.0 < d < 15.0


def test_strong_connectivity(net_small):
    """Every node reaches every other node (largest SCC was kept)."""
    net = net_small
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for _s, v in net.adjacency[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert seen == set(range(net.n_nodes))


def test_one_way_fraction_close_to_param():
    net = make_city(14, 10, one_way_p=0.4, seed=5)
    n_one = int((net.twin < 0).sum())
    # one-way segments count once, two-way roads contribute 2 segments
    n_roads = n_one + (net.n_segments - n_one) // 2
    frac = n_one / n_roads
    assert 0.25 < frac < 0.55


def test_degenerate_network_raises():
    with pytest.raises(ValueError):
        make_city(2, 2, keep_p=0.01, seed=0)


def test_segment_endpoints_near_nodes(net_small):
    net = net_small
    d_u = np.hypot(net.ux - net.node_x[net.seg_u], net.uy - net.node_y[net.seg_u])
    assert (d_u < 6.0).all()  # at most lane_off away


def test_scc_helper_simple_cycle_plus_tail():
    # 0→1→2→0 cycle, 3 dangling
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    assert _largest_scc(4, edges) == {0, 1, 2}


def test_segment_count_scales_with_grid():
    small = make_city(6, 5, seed=0)
    big = make_city(12, 10, seed=0)
    assert big.n_segments > 2.5 * small.n_segments


def test_city_presets_relative_sizes():
    from repro.traj.datasets import CITY_PRESETS

    sizes = {}
    for name, p in CITY_PRESETS.items():
        net = make_city(nx=p["nx"], ny=p["ny"], spacing=p["spacing"],
                        one_way_p=p["one_way_p"], seed=p["net_seed"])
        sizes[name] = net.n_segments
    # paper's ordering: BJ largest, XA smallest
    assert sizes["bj"] == max(sizes.values())
    assert sizes["xa"] == min(sizes.values())
