"""The gate's own test: it must pass true outputs and reject corrupted ones.

    python3 trbench/gate_check.py        # or: python3 -m pytest trbench/gate_check.py

Ground-truth trajectories on a small synthetic city are valid outputs of
both algorithms by construction; each test corrupts one property and
expects the matching finding or disagreement. No Spark session is needed:
the DuckDB oracle is fed pandas frames.
"""
from __future__ import annotations

import os
import sys

import numpy as np
import pandas as pd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from gate import match_findings, recovery_findings, spark_vs_direct  # noqa: E402
from repro.roadnet.generate import make_city  # noqa: E402
from repro.roadnet.routing import plan_route  # noqa: E402
from repro.traj.generate import simulate_city_trajectories  # noqa: E402

NET = make_city(nx=8, ny=6, spacing=120.0, seed=3)
TRAJS = simulate_city_trajectories(NET, 6, eps=15.0, target_len=2000.0, speed_mu=8.0,
                                   noise_sigma=9.0, seed=5, outlier_p=0.0)


def plannable(a, b):
    return plan_route(NET, a, b) is not None


def recover(tr, idx=None, segs=None, ratios=None, route=None, n_ticks=None):
    return recovery_findings(
        NET,
        np.arange(len(tr.t)) if idx is None else idx,
        tr.seg if segs is None else segs,
        tr.ratio if ratios is None else ratios,
        len(tr.t) if n_ticks is None else n_ticks,
        tr.route if route is None else route,
        plannable,
    )[0]


def test_true_outputs_pass():
    for tr in TRAJS:
        assert recover(tr) == []
        obs = np.where(tr.observed)[0]
        assert match_findings(NET, obs, tr.seg[obs], tr.ratio[obs], obs, tr.route, plannable)[0] == []


def test_missing_tick_is_found():
    tr = TRAJS[0]
    keep = np.arange(len(tr.t) - 1)
    assert recover(tr, idx=keep, segs=tr.seg[keep], ratios=tr.ratio[keep])


def test_ratio_out_of_range_is_found():
    tr = TRAJS[0]
    r = tr.ratio.copy()
    r[2] = 1.0
    assert any("ratio" in f for f in recover(tr, ratios=r))


def test_bad_segment_id_is_found():
    tr = TRAJS[0]
    s = tr.seg.copy()
    s[1] = NET.n_segments
    assert any("out of range" in f for f in recover(tr, segs=s))


def test_segment_off_route_is_found():
    tr = TRAJS[0]
    s = tr.seg.copy()
    s[3] = next(x for x in range(NET.n_segments) if x not in set(tr.route.tolist()))
    assert any("off the stitched route" in f for f in recover(tr, segs=s))


def test_position_going_back_is_found():
    tr = next(t for t in TRAJS if len(set(t.seg.tolist())) > 2)
    s = tr.seg.copy()
    last = len(s) - 1
    s[last] = tr.route[0]  # back to the first route segment at the end
    assert any("decreases" in f for f in recover(tr, segs=s))


def test_disconnected_plannable_hop_is_found():
    tr = next(t for t in TRAJS if len(t.route) > 3)
    route = np.delete(tr.route, 1)  # skip a segment: the hop is plannable
    keep = tr.seg != tr.route[1]
    segs, ratios = tr.seg[keep], tr.ratio[keep]
    findings, unplannable = recovery_findings(NET, np.arange(len(segs)), segs, ratios, len(segs), route,
                                              plannable)
    assert any("disconnected" in f for f in findings) and unplannable == 0


def test_unplannable_hop_is_counted_not_found():
    tr = TRAJS[0]
    route = np.concatenate([tr.route, [tr.route[0]]])
    never = lambda a, b: False  # noqa: E731
    findings, unplannable = recovery_findings(NET, np.arange(len(tr.t)), tr.seg, tr.ratio, len(tr.t),
                                              route, never)
    assert findings == [] and unplannable >= 1


def test_matched_points_out_of_order_are_found():
    tr = next(t for t in TRAJS if len(set(t.seg[t.observed].tolist())) > 2)
    obs = np.where(tr.observed)[0]
    segs = tr.seg[obs][::-1]
    assert match_findings(NET, obs, segs, tr.ratio[obs], obs, tr.route, plannable)[0]


def test_spark_direct_disagreement_is_found():
    tr = TRAJS[0]
    pdf = pd.DataFrame({"traj_id": tr.traj_id, "idx": np.arange(len(tr.t)), "seg": tr.seg, "ratio": tr.ratio})
    direct = {tr.traj_id: {"segs": tr.seg.copy(), "ratios": tr.ratio.copy()}}
    assert spark_vs_direct(pdf, direct) == []
    direct[tr.traj_id]["ratios"][0] += 1e-6
    assert spark_vs_direct(pdf, direct)
    direct[tr.traj_id]["ratios"] = tr.ratio.copy()
    direct[tr.traj_id]["segs"][0] += 1
    assert spark_vs_direct(pdf, direct)
    assert spark_vs_direct(pdf, {})


class _Frame:
    """Stands in for a Spark DataFrame in ``assert_equivalent``."""

    def __init__(self, pdf):
        self.pdf = pdf

    def toPandas(self):
        return self.pdf


def _oracle_frames():
    rows_p, rows_g = [], []
    for tr in TRAJS:
        pred = tr.seg.copy()
        pred[::3] = tr.route[0]
        rows_p.append(pd.DataFrame({"traj_id": tr.traj_id, "idx": np.arange(len(pred)), "seg": pred}))
        rows_g.append(pd.DataFrame({"traj_id": tr.traj_id, "idx": np.arange(len(pred)), "seg": tr.seg}))
    return pd.concat(rows_p), pd.concat(rows_g)


def test_oracle_rejects_corrupted_accuracy():
    from repro.oracle import assert_equivalent
    from workloads import ORACLE_ACCURACY

    pred, gt = _oracle_frames()
    m = pred.merge(gt, on=["traj_id", "idx"], suffixes=("_p", "_g"))
    acc = (m["seg_p"] == m["seg_g"]).groupby(m["traj_id"]).mean().rename("accuracy").reset_index()
    assert_equivalent(_Frame(acc), ORACLE_ACCURACY, pred=pred, gt=gt)
    acc.loc[0, "accuracy"] += 0.01
    try:
        assert_equivalent(_Frame(acc), ORACLE_ACCURACY, pred=pred, gt=gt)
    except AssertionError:
        return
    raise AssertionError("a corrupted accuracy passed the oracle")


def test_oracle_rejects_corrupted_route_f1():
    from repro.oracle import assert_equivalent
    from workloads import ORACLE_ROUTE_F1

    pred, gt = _oracle_frames()
    rows = []
    for tid in gt["traj_id"].unique():
        p = set(pred.loc[pred.traj_id == tid, "seg"])
        g = set(gt.loc[gt.traj_id == tid, "seg"])
        pr, re = len(p & g) / len(p), len(p & g) / len(g)
        rows.append({"traj_id": tid, "f1": 2 * pr * re / (pr + re) if pr + re else 0.0})
    f1 = pd.DataFrame(rows)
    assert_equivalent(_Frame(f1), ORACLE_ROUTE_F1, pr=pred, gr=gt)
    f1.loc[1, "f1"] *= 0.9
    try:
        assert_equivalent(_Frame(f1), ORACLE_ROUTE_F1, pr=pred, gr=gt)
    except AssertionError:
        return
    raise AssertionError("a corrupted route F1 passed the oracle")


if __name__ == "__main__":
    tests = [(k, v) for k, v in sorted(globals().items()) if k.startswith("test_") and callable(v)]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} gate checks passed")
