"""Correctness gate run on every benchmark run.

Two kinds of result:

* **findings** — a trajectory's output breaks an invariant of Algorithm 1
  or 2. Each trajectory with a finding counts as failed, and the share
  without one is ``traj_ok_share``.
* **disagreements** — two computations of the same output differ: the
  Spark runner against the direct call, or a Spark SQL metric against its
  DuckDB re-derivation. Any disagreement fails the whole run.

The checks are plain functions over numpy arrays so that the gate's own
test can feed them corrupted outputs.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

RATIO_TOL = 1e-9


def route_hop_findings(net, route, plannable) -> tuple[list[str], int]:
    """Connectivity of a stitched route.

    A hop ``a → b`` must be a successor step, unless ``plannable(a, b)`` is
    False, i.e. the planner finds no path and the stitcher fell back to
    concatenation. Returns ``(findings, unplannable hops)``.
    """
    found, unplannable = [], 0
    for a, b in zip(route[:-1], route[1:]):
        a, b = int(a), int(b)
        if b in set(net.successors(a).tolist()):
            continue
        if plannable(a, b):
            found.append(f"hop {a}->{b} is disconnected but plannable")
        else:
            unplannable += 1
    return found, unplannable


def in_route_order(route, segs) -> bool:
    """True when ``segs`` can be read left to right along ``route`` with
    positions that never decrease (Eq. 17)."""
    route = [int(r) for r in route]
    p = 0
    for s in segs:
        s = int(s)
        while p < len(route) and route[p] != s:
            p += 1
        if p == len(route):
            return False
    return True


def _point_findings(idx, segs, ratios, want_idx, n_segments) -> list[str]:
    out = []
    idx = np.asarray(idx)
    if len(idx) != len(want_idx) or not np.array_equal(np.sort(idx), np.asarray(want_idx)):
        out.append(f"{len(idx)} rows for {len(want_idx)} expected points")
    segs = np.asarray(segs)
    ratios = np.asarray(ratios, dtype=np.float64)
    if len(segs) and ((segs < 0) | (segs >= n_segments)).any():
        out.append("segment id out of range")
    if len(ratios) and not ((ratios >= 0.0) & (ratios < 1.0)).all():
        out.append("ratio outside [0, 1)")
    return out


def recovery_findings(net, idx, segs, ratios, n_ticks, route, plannable) -> tuple[list[str], int]:
    """Invariants of one recovered trajectory (Algorithm 2): one
    ``(seg, ratio)`` per ε tick, ratios in [0, 1), valid ids, segments on
    the stitched route in non-decreasing route order, connected route."""
    out = _point_findings(idx, segs, ratios, np.arange(n_ticks), net.n_segments)
    order = np.argsort(np.asarray(idx), kind="stable")
    segs = np.asarray(segs)[order]
    if not set(segs.tolist()) <= set(int(r) for r in route):
        out.append("recovered segment off the stitched route")
    elif not in_route_order(route, segs):
        out.append("route position decreases")
    hops, unplannable = route_hop_findings(net, route, plannable)
    return out + hops, unplannable


def match_findings(net, idx, segs, ratios, obs_idx, route, plannable) -> tuple[list[str], int]:
    """Invariants of one matched trajectory (Algorithm 1): one point per
    observation, ratios in [0, 1), valid ids, matched segments along the
    route in order, connected route."""
    out = _point_findings(idx, segs, ratios, np.sort(obs_idx), net.n_segments)
    order = np.argsort(np.asarray(idx), kind="stable")
    if not in_route_order(route, np.asarray(segs)[order]):
        out.append("matched segments not in route order")
    hops, unplannable = route_hop_findings(net, route, plannable)
    return out + hops, unplannable


def spark_vs_direct(spark_pdf: pd.DataFrame, direct: dict) -> list[str]:
    """Disagreements between the Spark runner's rows and direct-call
    outputs. ``direct[traj_id]`` holds ``segs`` and ``ratios`` in tick
    order; the Spark rows are matched on (traj_id, idx)."""
    out = []
    got_ids = set(int(t) for t in spark_pdf["traj_id"].unique())
    if got_ids != set(direct):
        out.append(f"trajectory sets differ: {len(got_ids)} from Spark, {len(direct)} direct")
    for tid, g in spark_pdf.groupby("traj_id"):
        d = direct.get(int(tid))
        if d is None:
            continue
        g = g.sort_values("idx")
        segs = g["seg"].to_numpy(np.int64)
        if len(segs) != len(d["segs"]) or not np.array_equal(segs, np.asarray(d["segs"], np.int64)):
            out.append(f"traj {tid}: segments differ")
            continue
        if "ratio" in g and "ratios" in d:
            if np.abs(g["ratio"].to_numpy(np.float64) - np.asarray(d["ratios"])).max(initial=0.0) > RATIO_TOL:
                out.append(f"traj {tid}: ratios differ")
    return out
