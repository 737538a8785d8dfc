"""Benchmark: regenerate Table II (dataset statistics) for all 4 cities.

Run with ``pytest benchmarks/bench_table2.py --benchmark-only``.
"""
import pytest

from repro.evalx.tables import per_city, table2_city


@pytest.mark.benchmark(group="table2")
def test_table2_all_cities(benchmark, spark):
    data = benchmark.pedantic(
        lambda: per_city(spark, table2_city, n_traj=150), rounds=1, iterations=1
    )
    assert set(data) == {"pt", "xa", "bj", "cd"}
    for stats in data.values():
        assert stats["n_trajectories"] == 150
