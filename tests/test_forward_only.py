"""Inference builds no autodiff graph: MMA matching, TRMMA recovery and the
all-segment foil's decode run on plain arrays (``forward_np``)."""
import numpy as np
import pytest

from repro.mma.baselines import MMAMatcher
from repro.mma.model import MMAModel
from repro.nn.autodiff import Tensor
from repro.trmma.baselines import RNTrajRecRecoverer
from repro.trmma.infer import TRMMARecoverer
from repro.trmma.model import TRMMAModel


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


def test_mma_match_builds_no_tensor(matcher, inputs, tensors_made):
    for xs, ys, ts, t0, _, _ in inputs:
        matcher.match(xs, ys, ts, t0)
    assert not tensors_made


def test_trmma_recover_builds_no_tensor(net_small, pt_norm, matcher, inputs, tensors_made):
    models = [TRMMAModel(net_small.n_segments, d_h=16, seed=0, use_dualformer=df) for df in (True, False)]
    tensors_made.clear()  # the parameters
    for model in models:
        rec = TRMMARecoverer(matcher, model, pt_norm, 15.0)
        for args in inputs:
            rec.recover(*args)
    assert not tensors_made


def test_foil_decode_builds_no_tensor(net_small, index_small, pt_norm, inputs, tensors_made, monkeypatch):
    """The all-segment foil's encoder may build its graph; every tensor of
    ``recover`` must come from there, none from the per-tick decode."""
    rec = RNTrajRecRecoverer(net_small, index_small, pt_norm, 15.0, d=12, seed=0)
    tensors_made.clear()  # the parameters
    in_encode = []
    encode = RNTrajRecRecoverer._encode

    def counted_encode(self, *args):
        before = len(tensors_made)
        out = encode(self, *args)
        in_encode.append(len(tensors_made) - before)
        return out

    monkeypatch.setattr(RNTrajRecRecoverer, "_encode", counted_encode)
    for args in inputs:
        rec.recover(*args)
    assert len(in_encode) == len(inputs)
    assert len(tensors_made) == sum(in_encode)
