"""Tests for MMA training utilities (samples, augmentation, training)."""
import numpy as np
import pytest

from repro.mma.train import augmented_trajs, mma_training_samples, train_mma
from repro.roadnet.node2vec import node2vec_embeddings


@pytest.fixture(scope="module")
def n2v16(pt_city):
    return node2vec_embeddings(pt_city.net, d=16)


def test_training_samples_from_split(pt_city):
    samples = mma_training_samples(pt_city)
    assert len(samples) > 10
    for s in samples[:5]:
        assert s.label is not None
        assert s.X.shape[0] == s.cand.shape[0]


def test_augmented_trajs_deterministic(pt_city):
    a = augmented_trajs(pt_city, 5, seed=1)
    b = augmented_trajs(pt_city, 5, seed=1)
    assert len(a) == 5
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.route, tb.route)
    assert augmented_trajs(pt_city, 0) == []


def test_augmentation_extends_samples(pt_city):
    base = mma_training_samples(pt_city)
    more = mma_training_samples(pt_city, augment=8)
    assert len(more) > len(base)


def test_train_mma_improves_over_init(pt_city, n2v16):
    samples = mma_training_samples(pt_city)
    model = train_mma(pt_city, samples, n2v16, epochs=8, d=16)

    def acc(m):
        c = t = 0
        for s in samples:
            pred = m.forward(s, s.X).argmax(1)
            ok = s.label >= 0
            c += int((pred == s.label)[ok].sum())
            t += int(ok.sum())
        return c / t

    from repro.mma.model import MMAModel

    untrained = MMAModel(pt_city.net.n_segments, d0=16, d2=16, seed=99)
    assert acc(model) > acc(untrained) + 0.1


def test_train_mma_deterministic(pt_city, n2v16):
    samples = mma_training_samples(pt_city)[:10]
    a = train_mma(pt_city, samples, n2v16, epochs=1, d=16, seed=3)
    b = train_mma(pt_city, samples, n2v16, epochs=1, d=16, seed=3)
    assert all(np.allclose(x.data, y.data) for x, y in zip(a.parameters(), b.parameters()))
