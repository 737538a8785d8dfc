"""Tests for the Table IV ablation suite plumbing."""
import pytest

import repro.mma.train as mma_train
from repro.trmma.ablations import train_ablation_suite

PAPER_ROWS = ["TRMMA", "TRMMA-HMM", "TRMMA-Near", "MMA+linear",
              "Nearest+linear", "TRMMA-DF", "TRMMA-C", "TRMMA-DI"]


@pytest.fixture(scope="module")
def suite_run(pt_city):
    """The suite, and how many MMA training samples building it featureised."""
    built = []
    featureise = mma_train.build_mma_sample
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mma_train, "build_mma_sample", lambda *a, **k: built.append(1) or featureise(*a, **k))
        suite = train_ablation_suite(pt_city, mma_epochs=1, trmma_epochs=1,
                                     mma_augment=0, trmma_augment=0)
    return suite, len(built)


@pytest.fixture(scope="module")
def suite(suite_run):
    return suite_run[0]


def test_mma_samples_built_once(pt_city, suite_run):
    """The full MMA and the -C / -DI variants train on one sample set."""
    assert suite_run[1] == len(mma_train.mma_training_samples(pt_city))


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
