"""Tests for the Table IV ablation suite plumbing."""
import pytest

from repro.trmma.ablations import train_ablation_suite

PAPER_ROWS = ["TRMMA", "TRMMA-HMM", "TRMMA-Near", "MMA+linear",
              "Nearest+linear", "TRMMA-DF", "TRMMA-C", "TRMMA-DI"]


@pytest.fixture(scope="module")
def suite(pt_city):
    return train_ablation_suite(pt_city, mma_epochs=1, trmma_epochs=1,
                                mma_augment=0, trmma_augment=0)


def test_suite_has_paper_rows(suite):
    assert list(suite.keys()) == PAPER_ROWS


def test_variants_share_trmma_model(suite):
    assert suite["TRMMA"].model is suite["TRMMA-HMM"].model
    assert suite["TRMMA"].model is suite["TRMMA-Near"].model
    assert suite["TRMMA"].model is not suite["TRMMA-DF"].model


def test_matcher_variants_differ(suite):
    assert suite["TRMMA"].matcher is not suite["TRMMA-C"].matcher
    assert suite["TRMMA-DI"].matcher.model.use_direction is False
    assert suite["TRMMA"].matcher.model.use_direction is True
    assert type(suite["TRMMA-HMM"].matcher).__name__ == "HMMMatcher"
    assert type(suite["Nearest+linear"].matcher).__name__ == "NearestMatcher"


def test_df_variant_flag(suite):
    assert suite["TRMMA-DF"].model.use_dualformer is False
    assert suite["TRMMA"].model.use_dualformer is True


def test_suite_recovers_one_trajectory(pt_city, suite):
    import numpy as np

    tr = pt_city.trajs("test")[0]
    obs = np.where(tr.observed)[0]
    for name in ("TRMMA", "MMA+linear", "Nearest+linear"):
        segs, ratios = suite[name].recover(tr.x[obs], tr.y[obs], tr.t[obs], tr.t0,
                                           obs, len(tr.t))
        assert len(segs) == len(tr.t)
