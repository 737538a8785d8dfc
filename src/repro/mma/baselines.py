"""Map-matching baselines (Table V competitors), lite re-implementations
sharing this repo's substrates — see DESIGN.md §3 for the faithfulness notes.

Every matcher implements ``match(xs, ys, ts, t0) -> np.ndarray`` of segment
ids for the observed points of one sparse trajectory, and is picklable so
the Spark runner in :mod:`repro.mma.infer` can broadcast it.

* :class:`NearestMatcher` — top-1 perpendicular distance.
* :class:`HMMMatcher` — FMM / Newson-Krumm: Gaussian emission on distance,
  ``exp(-|d_gc - d_route|/β)`` transition with Dijkstra route distances,
  Viterbi decode.
* :class:`LHMMMatcher` — the same HMM skeleton with a *learned* emission
  (logistic scorer over the candidate features), LHMM's key idea; it
  overrides only ``HMMMatcher._emission``.
* :class:`DeepMMMatcher` — learned seq2seq flavour: GRU over point features,
  per-point softmax over *all* n segments, trained with DeepMM's trademark
  synthetic-trajectory data augmentation.
* :class:`GraphMMMatcher` — per-point candidate scorer over graph-propagated
  (1-hop mean) Node2Vec embeddings + geometry, no sequence model.
* :class:`RNTrajRecRouteMatcher` — transformer point encoder + softmax over
  all n segments (RNTrajRec modified to only return routes, as the paper
  evaluates it in Table V).
"""
from __future__ import annotations

import numpy as np

from repro.mma.features import build_mma_sample, candidate_features, point_features
from repro.mma.train import mma_training_samples
from repro.nn.autodiff import Tensor, like, mean_of
from repro.nn.gru import GRU
from repro.nn.layers import Linear, MLP, Module
from repro.nn.optim import fit
from repro.nn.transformer import TransformerEncoder
from repro.roadnet.graph import RoadNetwork
from repro.roadnet.node2vec import node2vec_embeddings
from repro.roadnet.routing import network_distance_for
from repro.roadnet.spatial_index import SegmentIndex
from repro.traj.datasets import CityData, preset_trajectories


class NearestMatcher:
    """Map every GPS point to its nearest segment (the Nearest baseline)."""

    name = "Nearest"

    def __init__(self, net: RoadNetwork, index: SegmentIndex, norm: dict):
        self.net, self.index, self.norm = net, index, norm

    def match(self, xs, ys, ts, t0) -> np.ndarray:
        return np.array([self.index.nearest(float(x), float(y)) for x, y in zip(xs, ys)], dtype=np.int64)


def _viterbi(cand, mask, em_logp, trans_logp) -> np.ndarray:
    """Generic Viterbi over per-point candidate lattices.

    ``em_logp (ℓ,k)``; ``trans_logp`` callable (i, a_idx, b_idx) → logp of
    moving from candidate ``a`` of point i to candidate ``b`` of point i+1.
    Returns the best candidate index per point.
    """
    ell, k = cand.shape
    score = np.full((ell, k), -np.inf)
    back = np.zeros((ell, k), dtype=np.int64)
    score[0, mask[0]] = em_logp[0, mask[0]]
    for i in range(1, ell):
        for b in range(k):
            if not mask[i, b]:
                continue
            best, arg = -np.inf, 0
            for a in range(k):
                if not mask[i - 1, a] or not np.isfinite(score[i - 1, a]):
                    continue
                s = score[i - 1, a] + trans_logp(i - 1, a, b)
                if s > best:
                    best, arg = s, a
            score[i, b] = best + em_logp[i, b]
            back[i, b] = arg
    out = np.zeros(ell, dtype=np.int64)
    out[-1] = int(np.argmax(np.where(mask[-1], score[-1], -np.inf)))
    for i in range(ell - 2, -1, -1):
        out[i] = back[i + 1, out[i + 1]]
    return out


class HMMMatcher:
    """FMM-style HMM map matching (Newson & Krumm emission/transition)."""

    name = "FMM"

    def __init__(self, net, index, norm, sigma: float = 12.0):
        self.net, self.index, self.norm = net, index, norm
        self.sigma = sigma

    def _emission(self, feats, mask) -> np.ndarray:
        """Log emission per candidate: Gaussian on the perpendicular distance."""
        dists = feats[:, :, 4] * 50.0  # undo the feature scaling
        em = -(dists**2) / (2 * self.sigma**2)
        em[~mask] = -np.inf
        return em

    def match(self, xs, ys, ts, t0) -> np.ndarray:
        cand, feats, mask = candidate_features(self.net, self.index, xs, ys)
        ratios = np.zeros(cand.shape)
        for i in range(len(xs)):
            for j in np.where(mask[i])[0]:
                ratios[i, j], _ = self.net.project(float(xs[i]), float(ys[i]), int(cand[i, j]))
        em = self._emission(feats, mask)
        nd = network_distance_for(self.net)

        def trans(i, a, b):
            d_gc = float(np.hypot(xs[i + 1] - xs[i], ys[i + 1] - ys[i]))
            d_rt = nd.directed(int(cand[i, a]), float(ratios[i, a]), int(cand[i + 1, b]), float(ratios[i + 1, b]))
            if not np.isfinite(d_rt):
                return -1e9
            return -abs(d_gc - d_rt) / 150.0  # β, metres

        pick = _viterbi(cand, mask, em, trans)
        return cand[np.arange(len(pick)), pick]


class LHMMMatcher(HMMMatcher):
    """LHMM-lite: HMM whose emission comes from a learned logistic scorer
    over the candidate features (fit on the train split)."""

    name = "LHMM"

    def __init__(self, net, index, norm, weights: np.ndarray):
        super().__init__(net, index, norm)
        self.w = weights

    @staticmethod
    def fit_emission(city: CityData) -> np.ndarray:
        """Softmax logistic regression over candidate features: 300
        full-batch gradient steps at rate 0.5."""
        X, Y = [], []
        for s in mma_training_samples(city):
            for i in np.where(s.label >= 0)[0]:
                X.append(s.feats[i])
                Y.append(s.label[i])
        X = np.array(X)
        Y = np.array(Y, dtype=np.int64)
        w = np.zeros(X.shape[2])
        for _ in range(300):
            logits = X @ w
            logits -= logits.max(1, keepdims=True)
            P = np.exp(logits)
            P /= P.sum(1, keepdims=True)
            grad = P
            grad[np.arange(len(Y)), Y] -= 1
            w -= 0.5 * np.einsum("nk,nkf->f", grad, X) / len(Y)
        return w

    def _emission(self, feats, mask) -> np.ndarray:
        """Log emission per candidate: log-softmax of the learned scores."""
        logits = feats @ self.w
        logits[~mask] = -np.inf
        top = logits.max(1, keepdims=True)
        return logits - np.log(np.exp(logits - top).sum(1, keepdims=True)) - top


class SegmentHead(Module):
    """The all-segment output head of DeepMM, RNTrajRec and the MTrajRec
    family: every segment's embedding ``E = proj(seg_features)`` and bias
    ``b``, against which a query scores all n segments as ``q · E + b``.
    Segment features are normalised midpoint, direction and Node2Vec
    embedding (:func:`segment_feature_matrix`)."""

    def __init__(self, seg_feats: np.ndarray, d: int, rng: np.random.Generator):
        self.seg_feats = seg_feats  # (n, d_f) constant
        self.proj = MLP([seg_feats.shape[1], 64, d], rng)
        self.bias = Linear(seg_feats.shape[1], 1, rng)

    def forward(self, x):
        """``(E (n, d), b (n,))`` in the mode of ``x``, any input of the
        calling model."""
        F = like(self.seg_feats, x)
        return self.proj(F), self.bias(F).reshape(len(self.seg_feats))


class _FullVocabModel(Module):
    """Shared core of DeepMM-lite / RNTrajRec-route-lite: sequence encoder
    over point features + per-point softmax over **all n segments** (their
    defining trait vs MMA's candidate restriction).

    The n-way output scores each segment through :class:`SegmentHead`,
    from the road-network-enhanced segment representations both papers
    use, which lets the full-vocab head generalise geometrically at our
    small training scale instead of memorising n independent classes.
    """

    def __init__(self, seg_feats: np.ndarray, d: int, encoder: str, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.inp = Linear(3, d, rng)
        if encoder == "gru":
            self.enc = GRU(d, d, rng)
        else:
            self.enc = TransformerEncoder(d, n_layers=2, n_heads=2, rng=rng)
        self.head = SegmentHead(seg_feats, d, rng)
        # learned-score gain, initialised small so the locality prior
        # dominates until the learned scores become informative
        self.gain = Tensor(np.array([0.3]), requires_grad=True)

    def logits(self, X, penalty: np.ndarray):
        """Per-point scores over all n segments for point features ``X``
        (a Tensor builds the graph, an array builds none); ``penalty (ℓ, n)``
        is the locality prior (DeepMM's grid restriction / RNTrajRec's
        surrounding-subgraph focus expressed as a soft distance penalty)."""
        h = self.enc(self.inp(X))  # (ℓ, d)
        E, b = self.head(X)
        return (h @ E.transpose()) * like(self.gain, X) + b + penalty


def distance_penalty(net: RoadNetwork, xs, ys, delta: float = 100.0) -> np.ndarray:
    """Soft locality prior ``-(d/δ)²`` from each point to every segment,
    floored at -60."""
    all_ids = np.arange(net.n_segments)
    out = np.empty((len(xs), net.n_segments))
    for i in range(len(xs)):
        d = net.seg_distances(float(xs[i]), float(ys[i]), all_ids)
        out[i] = np.maximum(-((d / delta) ** 2), -60.0)
    return out


def heading_cos(net: RoadNetwork, px, py) -> np.ndarray:
    """(ℓ, n) cosine between each point's motion direction (central
    difference over the coordinate sequence) and every segment's direction
    — the heading feature that separates antiparallel twin segments."""
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    n = len(px)
    dirs = net.seg_dir(np.arange(net.n_segments))
    out = np.zeros((n, net.n_segments))
    for i in range(n):
        a, b = max(0, i - 1), min(n - 1, i + 1)
        mx, my = px[b] - px[a], py[b] - py[a]
        nrm = float(np.hypot(mx, my))
        if nrm > 1e-6:
            out[i] = (dirs[:, 0] * mx + dirs[:, 1] * my) / nrm
    return out


def matcher_locality_prior(net: RoadNetwork, xs, ys) -> np.ndarray:
    """Distance + 2 × heading prior for the full-vocab matchers (DeepMM's
    grid restriction and RNTrajRec's surrounding subgraph both carry
    position AND heading information)."""
    return distance_penalty(net, xs, ys) + 2.0 * heading_cos(net, xs, ys)


def segment_feature_matrix(net: RoadNetwork, norm: dict, d: int = 16, seed: int = 0) -> np.ndarray:
    """Per-segment features for the full-vocab heads: normalised midpoint,
    unit direction, normalised length, Node2Vec embedding."""
    mx = (net.ux + net.vx) / 2
    my = (net.uy + net.vy) / 2
    sx = max(norm["x1"] - norm["x0"], 1e-9)
    sy = max(norm["y1"] - norm["y0"], 1e-9)
    dirs = net.seg_dir(np.arange(net.n_segments))
    n2v = node2vec_embeddings(net, d=d, seed=seed)
    return np.concatenate(
        [
            ((mx - norm["x0"]) / sx)[:, None],
            ((my - norm["y0"]) / sy)[:, None],
            dirs,
            (net.length / net.length.max())[:, None],
            n2v,
        ],
        axis=1,
    )


class DeepMMMatcher:
    """DeepMM-lite (see module docstring). ``fit(augment=n)`` adds ``n``
    simulator-generated trajectories to the train split — DeepMM's data
    augmentation idea, which is what lifts it above the HMM family in the
    paper."""

    name = "DeepMM"
    encoder = "gru"

    def __init__(self, net, index, norm, d: int = 32, seed: int = 0):
        self.net, self.index, self.norm = net, index, norm
        self.model = _FullVocabModel(segment_feature_matrix(net, norm, seed=seed), d, self.encoder, seed)

    def fit(self, city: CityData, epochs: int = 8, lr: float = 3e-3, augment: int = 0, seed: int = 0):
        seqs, labels, pens = [], [], []
        trajs = city.trajs("train")
        if augment:
            trajs = trajs + preset_trajectories(city.net, city.name, augment, city.gamma, seed + 991, 0.05)
        for tr in trajs:
            obs = np.where(tr.observed)[0]
            if len(obs) < 2:
                continue
            seqs.append(point_features(tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, self.norm))
            labels.append(tr.seg[obs])
            pens.append(matcher_locality_prior(self.net, tr.x[obs], tr.y[obs]))

        def nll(i):
            lp = self.model.logits(Tensor(seqs[i]), pens[i]).log_softmax(axis=-1)
            return -lp[np.arange(len(labels[i])), labels[i]].mean()

        fit(self.model.parameters(), len(seqs), lambda idx: mean_of([nll(i) for i in idx]),
            epochs, lr, batch=8, seed=seed)
        return self

    def match(self, xs, ys, ts, t0) -> np.ndarray:
        X = point_features(np.asarray(xs), np.asarray(ys), np.asarray(ts), t0, self.norm)
        pen = matcher_locality_prior(self.net, xs, ys)
        return self.model.logits(X, pen).argmax(axis=1).astype(np.int64)


class RNTrajRecRouteMatcher(DeepMMMatcher):
    """RNTrajRec modified to only return routes: transformer encoder over
    the sparse points, classification over the full segment vocabulary (its
    defining trait vs MMA's candidate restriction); no augmentation."""

    name = "RNTrajRec"
    encoder = "transformer"


class GraphMMMatcher:
    """GraphMM-lite: candidate classification from graph-propagated segment
    embeddings + geometric features, per point (no sequence model)."""

    name = "GraphMM"

    def __init__(self, net, index, norm, d: int = 32, seed: int = 0):
        self.net, self.index, self.norm = net, index, norm
        self.d = d
        self.seed = seed
        self.emb: np.ndarray | None = None
        rng = np.random.default_rng(seed)
        self.mlp = MLP([d + 6, 64, 1], rng)

    def _propagated(self) -> np.ndarray:
        """Node2Vec embeddings averaged with 1-hop successors/predecessors
        (the graph-correlation propagation of GraphMM, 1 layer)."""
        base = node2vec_embeddings(self.net, d=self.d, seed=self.seed)
        out = base.copy()
        for s in range(self.net.n_segments):
            nbrs = np.concatenate([self.net.successors(s), self.net.predecessors(s)])
            if len(nbrs):
                out[s] = 0.5 * base[s] + 0.5 * base[nbrs].mean(axis=0)
        return out

    def fit(self, city: CityData, epochs: int = 6, lr: float = 3e-3, seed: int = 0, batch: int = 64):
        self.emb = self._propagated()
        X, Y = [], []
        for s in mma_training_samples(city):
            for i in np.where(s.label >= 0)[0]:
                X.append(np.concatenate([self.emb[s.cand[i]], s.feats[i]], axis=1))
                Y.append(s.label[i])
        X = np.array(X)  # (N, k, d+6)
        Y = np.array(Y, dtype=np.int64)

        def batch_loss(idx):
            logits = self.mlp(Tensor(X[idx])).reshape(len(idx), X.shape[1])
            return -logits.log_softmax(axis=-1)[np.arange(len(idx)), Y[idx]].mean()

        fit(self.mlp.parameters(), len(X), batch_loss, epochs, lr, batch, seed)
        return self

    def match(self, xs, ys, ts, t0) -> np.ndarray:
        cand, feats, mask = candidate_features(self.net, self.index, np.asarray(xs), np.asarray(ys))
        out = np.zeros(len(xs), dtype=np.int64)
        for i in range(len(xs)):
            Xi = np.concatenate([self.emb[cand[i]], feats[i]], axis=1)
            logits = self.mlp(Xi).reshape(-1)
            logits[~mask[i]] = -np.inf
            out[i] = cand[i, int(np.argmax(logits))]
        return out


class MMAMatcher:
    """Adapter giving the trained :class:`repro.mma.model.MMAModel` the
    common matcher interface used by the Spark runner."""

    name = "MMA"

    def __init__(self, net, index, norm, model):
        self.net, self.index, self.norm = net, index, norm
        self.model = model

    def match(self, xs, ys, ts, t0) -> np.ndarray:
        s = build_mma_sample(self.net, self.index, np.asarray(xs), np.asarray(ys), np.asarray(ts), t0, self.norm)
        return self.model.predict(s)
