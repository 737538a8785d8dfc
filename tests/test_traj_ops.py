"""Tests for route/trajectory geometry helpers."""
import numpy as np
import pytest

from repro.traj.ops import (
    locate_on_route,
    route_cum_lengths,
    route_offset,
    sparsify_mask,
)


@pytest.fixture()
def route(net_small):
    from repro.roadnet.routing import plan_route

    return plan_route(net_small, 0, net_small.n_segments // 3)


def test_cum_lengths_monotone(net_small, route):
    cum = route_cum_lengths(net_small, route)
    assert len(cum) == len(route) + 1
    assert (np.diff(cum) > 0).all()
    assert cum[-1] == pytest.approx(net_small.length[route].sum())


def test_locate_offset_roundtrip(net_small, route):
    cum = route_cum_lengths(net_small, route)
    for frac in [0.0, 0.13, 0.5, 0.99]:
        d = frac * cum[-1]
        pos, seg, ratio = locate_on_route(net_small, route, d, cum)
        assert route[pos] == seg
        assert 0.0 <= ratio < 1.0
        back = route_offset(net_small, route, pos, ratio, cum)
        assert back == pytest.approx(min(d, cum[-1] - 1e-9), abs=1e-6)


def test_locate_clamps_out_of_range(net_small, route):
    cum = route_cum_lengths(net_small, route)
    pos, seg, ratio = locate_on_route(net_small, route, -5.0, cum)
    assert (pos, ratio) == (0, 0.0)
    pos2, _, ratio2 = locate_on_route(net_small, route, cum[-1] + 100, cum)
    assert pos2 == len(route) - 1
    assert ratio2 < 1.0


def test_sparsify_mask_keeps_endpoints():
    rng = np.random.default_rng(0)
    for n in [2, 3, 10, 50]:
        m = sparsify_mask(n, 0.1, rng)
        assert m[0] and m[-1]
        assert m.sum() >= 2


def test_sparsify_mask_rate():
    rng = np.random.default_rng(1)
    ms = [sparsify_mask(1000, 0.1, rng)[1:-1].mean() for _ in range(20)]
    assert abs(np.mean(ms) - 0.1) < 0.02


def test_sparsify_mask_rejects_tiny():
    with pytest.raises(ValueError):
        sparsify_mask(1, 0.5, np.random.default_rng(0))
