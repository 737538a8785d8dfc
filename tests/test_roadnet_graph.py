"""Tests for the road-network model and its geometry helpers."""
import numpy as np
import pytest

from repro.roadnet.graph import RoadNetwork


def _line_net():
    """Two segments along the x axis: (0,0)→(100,0)→(200,0)."""
    return RoadNetwork(
        seg_u=np.array([0, 1]),
        seg_v=np.array([1, 2]),
        ux=np.array([0.0, 100.0]),
        uy=np.array([0.0, 0.0]),
        vx=np.array([100.0, 200.0]),
        vy=np.array([0.0, 0.0]),
        node_x=np.array([0.0, 100.0, 200.0]),
        node_y=np.array([0.0, 0.0, 0.0]),
        out_segs=[np.array([0]), np.array([1]), np.array([], dtype=np.int64)],
        in_segs=[np.array([], dtype=np.int64), np.array([0]), np.array([1])],
        twin=np.array([-1, -1]),
    )


def test_lengths_computed():
    net = _line_net()
    assert np.allclose(net.length, [100.0, 100.0])


def test_zero_length_segment_rejected():
    with pytest.raises(ValueError):
        RoadNetwork(
            seg_u=np.array([0]),
            seg_v=np.array([1]),
            ux=np.array([0.0]),
            uy=np.array([0.0]),
            vx=np.array([0.0]),
            vy=np.array([0.0]),
            node_x=np.array([0.0, 0.0]),
            node_y=np.array([0.0, 0.0]),
            out_segs=[np.array([0]), np.array([], dtype=np.int64)],
            in_segs=[np.array([], dtype=np.int64), np.array([0])],
            twin=np.array([-1]),
        )


def test_point_at_interpolates():
    net = _line_net()
    x, y = net.point_at(0, 0.25)
    assert (x, y) == (25.0, 0.0)
    xs, ys = net.point_at([0, 1], [0.5, 0.5])
    assert np.allclose(xs, [50.0, 150.0])


def test_project_perpendicular_and_clamp():
    net = _line_net()
    r, d = net.project(30.0, 7.0, 0)
    assert abs(r - 0.3) < 1e-9
    assert abs(d - 7.0) < 1e-9
    # beyond the exit: ratio clamps below 1, distance includes along-track part
    r2, d2 = net.project(150.0, 0.0, 0)
    assert r2 < 1.0
    assert d2 == pytest.approx(50.0)
    # before the entrance: clamps at 0
    r3, _ = net.project(-10.0, 0.0, 0)
    assert r3 == 0.0


def test_seg_distances_matches_project():
    net = _line_net()
    p = (42.0, -13.0)
    ds = net.seg_distances(*p, np.array([0, 1]))
    assert ds[0] == pytest.approx(net.project(*p, 0)[1])
    assert ds[1] == pytest.approx(net.project(*p, 1)[1])


def test_seg_dir_unit_vectors():
    net = _line_net()
    d = net.seg_dir(np.array([0, 1]))
    assert np.allclose(np.linalg.norm(d, axis=1), 1.0)
    assert np.allclose(d[0], [1.0, 0.0])


def test_successors_predecessors():
    net = _line_net()
    assert list(net.successors(0)) == [1]
    assert list(net.predecessors(1)) == [0]
    assert len(net.successors(1)) == 0


def test_bbox_covers_segments():
    net = _line_net()
    x0, y0, x1, y1 = net.bbox()
    assert (x0, y0, x1, y1) == (0.0, 0.0, 200.0, 0.0)


def test_node_adjacency_roundtrip():
    net = _line_net()
    assert net.adjacency == [[(0, 1)], [(1, 2)], []]
    assert net.adjacency is net.adjacency  # computed once


def test_counts(net_small):
    assert net_small.n_segments == len(net_small.seg_u)
    assert net_small.n_nodes == len(net_small.node_x)
    assert net_small.n_segments > net_small.n_nodes  # directed grid
