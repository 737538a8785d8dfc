"""Inference builds no autodiff graph: every Table III recoverer and every
Table V matcher runs ``match``/``recover`` on plain arrays, encoders
included, so not one ``Tensor`` is constructed."""
import numpy as np
import pytest

from repro.mma.baselines import (
    DeepMMMatcher,
    GraphMMMatcher,
    HMMMatcher,
    LHMMMatcher,
    MMAMatcher,
    NearestMatcher,
    RNTrajRecRouteMatcher,
)
from repro.mma.features import N_CAND_FEATS
from repro.mma.model import MMAModel
from repro.nn.autodiff import Tensor
from repro.trmma.baselines import (
    DHTRRecoverer,
    LinearRecoverer,
    MMSTGEDRecoverer,
    MTrajRecRecoverer,
    RNTrajRecRecoverer,
    ST2VecDecRecoverer,
    TERIRecoverer,
    TrajCLDecRecoverer,
    TrajGATDecRecoverer,
)
from repro.trmma.infer import TRMMARecoverer
from repro.trmma.model import TRMMAModel

LEARNED_RECOVERERS = (DHTRRecoverer, TERIRecoverer, TrajGATDecRecoverer, TrajCLDecRecoverer, ST2VecDecRecoverer,
                      MTrajRecRecoverer, MMSTGEDRecoverer, RNTrajRecRecoverer)


@pytest.fixture
def tensors_made(monkeypatch):
    made = []
    init = Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting)
    return made


@pytest.fixture(scope="module")
def inputs(trajs_small):
    out = []
    for tr in trajs_small[:3]:
        obs = np.where(tr.observed)[0]
        out.append((tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, obs, len(tr.t)))
    return out


@pytest.fixture(scope="module")
def matcher(net_small, index_small, pt_norm):
    model = MMAModel(net_small.n_segments, d0=16, d2=16, d1=24, d3=24, seed=0)
    return MMAMatcher(net_small, index_small, pt_norm, model)


@pytest.fixture(scope="module")
def table5_baselines(net_small, index_small, pt_norm):
    args = (net_small, index_small, pt_norm)
    graphmm = GraphMMMatcher(*args, d=12)
    graphmm.emb = graphmm._propagated()
    return [NearestMatcher(*args), HMMMatcher(*args), LHMMMatcher(*args, np.linspace(-1, 1, N_CAND_FEATS)),
            RNTrajRecRouteMatcher(*args, d=12), DeepMMMatcher(*args, d=12), graphmm]


def test_mma_match_builds_no_tensor(matcher, inputs, tensors_made):
    for xs, ys, ts, t0, _, _ in inputs:
        matcher.match(xs, ys, ts, t0)
    assert not tensors_made


def test_every_table5_matcher_builds_no_tensor(table5_baselines, inputs, tensors_made):
    """The Table V baselines; MMA's own matcher is checked above."""
    for m in table5_baselines:
        for xs, ys, ts, t0, _, _ in inputs:
            assert len(m.match(xs, ys, ts, t0)) == len(xs)
        assert not tensors_made, m.name


def test_trmma_recover_builds_no_tensor(net_small, pt_norm, matcher, inputs, tensors_made):
    models = [TRMMAModel(net_small.n_segments, d_h=16, seed=0, use_dualformer=df) for df in (True, False)]
    tensors_made.clear()  # the parameters
    for model in models:
        rec = TRMMARecoverer(matcher, model, pt_norm, 15.0)
        for args in inputs:
            rec.recover(*args)
    assert not tensors_made


def test_linear_recover_builds_no_tensor(net_small, index_small, pt_norm, inputs, tensors_made):
    rec = LinearRecoverer(HMMMatcher(net_small, index_small, pt_norm), 15.0)
    for args in inputs:
        rec.recover(*args)
    assert not tensors_made


def test_foil_decode_builds_no_tensor(net_small, index_small, pt_norm, inputs, tensors_made):
    """Every learned Table III baseline: the all-segment foils' encoders
    and decode, and the free-space methods' coordinate heads."""
    for cls in LEARNED_RECOVERERS:
        rec = cls(net_small, index_small, pt_norm, 15.0, d=12, seed=0)
        tensors_made.clear()  # the parameters
        for args in inputs:
            segs, ratios = rec.recover(*args)
            assert len(segs) == len(ratios) == args[-1]
        assert not tensors_made, cls.name
