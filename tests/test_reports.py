"""Gates on the committed ``reports/table*.json`` that the jobs write.

Each test checks the row set of one table and the headline result the
paper draws from it, on every city the report covers.
"""
import json
import pathlib

import pytest

from repro.evalx.tables import PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"
CITIES = {"pt", "xa", "bj", "cd"}
PAPER = {3: PAPER_TABLE3, 4: PAPER_TABLE4, 5: PAPER_TABLE5}


def _report(n: int) -> dict:
    return json.loads((REPORTS / f"table{n}.json").read_text())


def test_table2_covers_four_cities_equally():
    data = _report(2)
    assert set(data) == CITIES
    assert len({stats["n_trajectories"] for stats in data.values()}) == 1


@pytest.mark.parametrize("n", sorted(PAPER))
def test_rows_match_paper(n):
    data = _report(n)
    assert set(data) == CITIES
    for city, rows in data.items():
        assert set(rows) == set(PAPER[n][city]), city


def test_table3_trmma_beats_every_learned_baseline():
    for city, rows in _report(3).items():
        learned = [k for k in rows if k not in ("Linear", "TRMMA")]
        assert rows["TRMMA"]["accuracy"] > max(rows[k]["accuracy"] for k in learned), city


def test_table4_trmma_beats_nearest_linear():
    for city, rows in _report(4).items():
        assert rows["TRMMA"]["accuracy"] > rows["Nearest+linear"]["accuracy"], city


# MMA's F1 margin over Nearest. BJ is EXPERIMENTS.md deviation 1 (map
# matching on the sparsest, largest network): MMA must still beat Nearest
# there, but by less than on the other three cities.
F1_MARGIN = {"pt": 0.03, "xa": 0.03, "cd": 0.03, "bj": 0.0}


@pytest.mark.parametrize("city", sorted(F1_MARGIN))
def test_table5_mma_beats_nearest(city):
    rows = _report(5)[city]
    assert rows["MMA"]["f1"] > rows["Nearest"]["f1"] + F1_MARGIN[city]
