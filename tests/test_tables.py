"""Integration tests for the table harnesses (small configurations)."""
import numpy as np
import pytest

from repro.evalx.tables import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    ROUTE_METRIC_COLS,
    historical_costs,
    table2_city,
    table5_city,
    table_markdown,
)
from repro.oracle import assert_equivalent


def test_table2_city_values(spark, pt_city):
    stats = table2_city(pt_city)
    assert stats["n_trajectories"] == 60
    assert stats["eps_s"] == 15.0
    assert stats["n_segments"] == pt_city.net.n_segments
    assert stats["n_intersections"] == pt_city.net.n_nodes
    assert 20 < stats["avg_points"] < 80
    assert stats["avg_travel_time_s"] == pytest.approx(
        (stats["avg_points"] - 1) * 15.0, rel=0.05
    )


def test_table2_oracle_check(spark, pt_city):
    """``table2_city``'s own numbers, re-derived in DuckDB from the points."""
    stats = table2_city(pt_city)
    cols = ["n_trajectories", "avg_points", "avg_length_m", "avg_travel_time_s"]
    assert_equivalent(
        spark.createDataFrame([{c: float(stats[c]) for c in cols}]),
        """
        WITH steps AS (
            SELECT traj_id, t,
                   SQRT((LEAD(tx) OVER w - tx) ** 2 + (LEAD(ty) OVER w - ty) ** 2) AS d
            FROM points WINDOW w AS (PARTITION BY traj_id ORDER BY idx)),
        per AS (SELECT traj_id, COUNT(*) AS n, MAX(t) AS tt, SUM(d) AS len FROM steps GROUP BY traj_id)
        SELECT COUNT(*) AS n_trajectories, AVG(n) AS avg_points, AVG(len) AS avg_length_m,
               AVG(tt) AS avg_travel_time_s
        FROM per
        """,
        points=pt_city.points,
    )


def test_historical_costs_shape(pt_city):
    costs = historical_costs(pt_city)
    assert costs.shape == (pt_city.net.n_segments,)
    assert (costs > 0).all()
    assert (costs <= pt_city.net.length + 1e-9).all()


def test_table5_city_subset(spark, pt_city):
    """Run the Table V pipeline with 2 cheap matchers end to end."""
    from repro.mma.baselines import HMMMatcher, NearestMatcher

    matchers = {
        "Nearest": NearestMatcher(pt_city.net, pt_city.index, pt_city.norm),
        "FMM": HMMMatcher(pt_city.net, pt_city.index, pt_city.norm),
    }
    out = table5_city(spark, pt_city, matchers=matchers)
    assert set(out) == {"Nearest", "FMM"}
    for vals in out.values():
        assert set(vals) == set(ROUTE_METRIC_COLS)
        assert all(0 <= v <= 1 for v in vals.values())
    # the HMM must beat plain nearest on route F1 (paper's Table V shape)
    assert out["FMM"]["f1"] > out["Nearest"]["f1"]


def test_markdown_rendering():
    data = {"pt": {"MMA": {"f1": 0.9412, "mae": 84.3}}}
    md = table_markdown(data, ["f1", "mae"])
    assert "94.12" in md
    assert "84.3" in md
    assert "| MMA |" in md


def test_paper_constants_complete():
    for city in ("pt", "xa", "bj", "cd"):
        assert len(PAPER_TABLE3[city]) == 10
        assert len(PAPER_TABLE4[city]) == 8
        assert len(PAPER_TABLE5[city]) == 7
        assert PAPER_TABLE2[city]["n_segments"] > 0
    # spot-check against the paper text
    assert PAPER_TABLE3["pt"]["TRMMA"]["accuracy"] == 57.83
    assert PAPER_TABLE5["pt"]["MMA"]["jaccard"] == 91.53
    assert PAPER_TABLE4["cd"]["TRMMA-DI"] == 69.15
    assert PAPER_TABLE2["bj"]["n_segments"] == 65276
