"""Directed road-network model (Definition 1 of the paper).

A :class:`RoadNetwork` stores ``n`` directed segments over ``m`` intersection
nodes as flat numpy arrays, plus adjacency lists. Coordinates are metres in a
local planar frame (the synthetic cities substitute real lat/lng; see
DESIGN.md §2) — geometry helpers therefore use plain Euclidean algebra.

Segment geometry: segment ``i`` runs from its entrance ``(ux, uy)`` to its
exit ``(vx, vy)``; a *map-matched point* ``(i, r)`` with position ratio
``r ∈ [0, 1)`` sits at ``entrance + r * (exit - entrance)`` (Definition 5).
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class RoadNetwork:
    """Flat-array road network; picklable for Spark broadcast."""

    seg_u: np.ndarray  # (n,) entrance node id per segment
    seg_v: np.ndarray  # (n,) exit node id per segment
    ux: np.ndarray  # (n,) entrance x (m)
    uy: np.ndarray
    vx: np.ndarray  # (n,) exit x (m)
    vy: np.ndarray
    node_x: np.ndarray  # (m,) intersection coords (road centreline)
    node_y: np.ndarray
    out_segs: list  # per node: np.ndarray of outgoing segment ids
    in_segs: list  # per node: np.ndarray of incoming segment ids
    twin: np.ndarray  # (n,) id of the antiparallel twin segment, -1 if one-way

    def __post_init__(self) -> None:
        self.length = np.hypot(self.vx - self.ux, self.vy - self.uy)
        if (self.length <= 0).any():
            raise ValueError("zero-length segment")

    @property
    def n_segments(self) -> int:
        return len(self.seg_u)

    @property
    def n_nodes(self) -> int:
        return len(self.node_x)

    @cached_property
    def digest(self) -> str:
        """Digest of the arrays every other attribute derives from: equal
        digests mean the same network. Computed once per object."""
        h = hashlib.sha1()
        for a in (self.seg_u, self.seg_v, self.ux, self.uy, self.vx, self.vy, self.node_x, self.node_y):
            h.update(f"{a.dtype}{a.shape}".encode() + np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    @cached_property
    def adjacency(self) -> list:
        """Per node, its out-edges as ``(seg, exit_node)`` Python ints, for
        the node-level search of :func:`repro.roadnet.routing.shortest_paths`.
        Computed once per object."""
        adj = [[] for _ in range(self.n_nodes)]
        for s, (u, v) in enumerate(zip(self.seg_u.tolist(), self.seg_v.tolist())):
            adj[u].append((s, v))
        return adj

    def successors(self, seg: int) -> np.ndarray:
        """Segments that can follow ``seg`` on a route (share its exit node)."""
        return self.out_segs[self.seg_v[seg]]

    def predecessors(self, seg: int) -> np.ndarray:
        return self.in_segs[self.seg_u[seg]]

    def point_at(self, seg, ratio):
        """Coordinates of map-matched point(s) ``(seg, ratio)``; vectorised."""
        seg = np.asarray(seg, dtype=np.int64)
        ratio = np.asarray(ratio, dtype=np.float64)
        x = self.ux[seg] + ratio * (self.vx[seg] - self.ux[seg])
        y = self.uy[seg] + ratio * (self.vy[seg] - self.uy[seg])
        return x, y

    def project(self, x: float, y: float, seg: int) -> tuple[float, float]:
        """Orthogonal projection of ``(x, y)`` onto ``seg``.

        Returns ``(ratio, distance)`` with the ratio clamped into
        ``[0, 1)`` per Definition 5 (Algorithm 2 line 4 uses this to turn
        an observed GPS point into its map-matched point).
        """
        ax, ay = self.ux[seg], self.uy[seg]
        bx, by = self.vx[seg], self.vy[seg]
        dx, dy = bx - ax, by - ay
        t = ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)
        t = float(np.clip(t, 0.0, 1.0 - 1e-9))
        px, py = ax + t * dx, ay + t * dy
        return t, float(np.hypot(x - px, y - py))

    def seg_distances(self, x: float, y: float, segs: np.ndarray) -> np.ndarray:
        """Perpendicular (clamped) distance from a point to each segment."""
        ax, ay = self.ux[segs], self.uy[segs]
        dx, dy = self.vx[segs] - ax, self.vy[segs] - ay
        t = ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)
        t = np.clip(t, 0.0, 1.0)
        return np.hypot(x - (ax + t * dx), y - (ay + t * dy))

    def seg_dir(self, segs) -> np.ndarray:
        """Unit direction vector(s) entrance→exit, shape (..., 2)."""
        segs = np.asarray(segs, dtype=np.int64)
        d = np.stack([self.vx[segs] - self.ux[segs], self.vy[segs] - self.uy[segs]], axis=-1)
        return d / np.linalg.norm(d, axis=-1, keepdims=True)

    def bbox(self) -> tuple[float, float, float, float]:
        xs = np.concatenate([self.ux, self.vx])
        ys = np.concatenate([self.uy, self.vy])
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())
