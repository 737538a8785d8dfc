"""Trajectory-recovery baselines (Table III competitors), lite
re-implementations on this repo's substrates — DESIGN.md §3 documents the
faithfulness notes per method.

All recoverers implement the common interface used by
:func:`repro.trmma.infer.run_recovery`::

    recover(xs, ys, ts, t0, idxs, n_ticks) -> (segs, ratios)  # per ε tick

Three families:

* **Linear** — FMM map matching + route + linear (time→distance)
  interpolation; the non-learned benchmark.
* **All-segment seq2seq decoders** (MTrajRec / RNTrajRec / MM-STGED and the
  representation-learning trio TrajGAT/TrajCL/ST2Vec + Dec): an encoder
  over the observed points and a GRU decoder that classifies each ε tick
  over *all n segments* of the network — the paper's efficiency foil — and
  regresses the ratio. The encoders differ per method; the representation-
  learning trio compresses the trajectory to a single vector first (their
  information bottleneck).
* **Free-space methods** (DHTR / TERI): predict per-tick coordinates
  without road constraints (DHTR: BiGRU + constant-velocity Kalman
  smoothing; TERI: time-aware attention interpolation), then snap to the
  nearest segment.
"""
from __future__ import annotations

import numpy as np

from repro.mma.baselines import SegmentHead, distance_penalty, heading_cos as _heading_cos, segment_feature_matrix
from repro.mma.features import point_features
from repro.mma.infer import match_and_stitch
from repro.nn.autodiff import Tensor, concat, like, mean, mean_of, sigmoid, softmax
from repro.nn.gru import BiGRU, GRU, GRUCell
from repro.nn.layers import Linear, MLP, Module
from repro.nn.optim import fit
from repro.nn.transformer import TransformerEncoder
from repro.roadnet.spatial_index import SegmentIndex
from repro.traj.datasets import CityData
from repro.traj.ops import locate_on_route, route_cum_lengths, route_offset
from repro.trmma.features import positions_in_route
from repro.trmma.model import LAMBDA


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------
class LinearRecoverer:
    """FMM + linear interpolation along the matched route (non-learned)."""

    name = "Linear"

    def __init__(self, matcher, eps: float, costs=None):
        self.matcher = matcher  # typically HMMMatcher (FMM), holds net
        self.eps = eps
        self.costs = costs

    def recover(self, xs, ys, ts, t0, idxs, n_ticks):
        net = self.matcher.net
        segs_m, ratios_m, route = match_and_stitch(self.matcher, xs, ys, ts, t0, self.costs)
        cum = route_cum_lengths(net, route)
        # offsets of observed points along the route (monotone projection);
        # the route holds every matched segment, so route[pos[i]] == segs_m[i]
        # and the point's ratio there is its matched ratio
        pos = positions_in_route(np.asarray(route), segs_m)
        offs = [route_offset(net, route, int(k), r, cum) for k, r in zip(pos, ratios_m)]
        offs = np.maximum.accumulate(np.array(offs))
        tick_off = np.interp(np.arange(n_ticks), idxs.astype(float), offs)
        segs = np.zeros(n_ticks, dtype=np.int64)
        ratios = np.zeros(n_ticks)
        for j, d in enumerate(tick_off):
            _, sg, rr = locate_on_route(net, route, float(d), cum)
            segs[j], ratios[j] = sg, rr
        return segs, ratios


def snap_with_direction(net, index, px, py):
    """Snap coordinate estimates to segments, scoring each point's 6 nearest
    candidates by perpendicular distance minus 30 × a heading cosine (twin
    disambiguation)."""
    n = len(px)
    segs = np.zeros(n, dtype=np.int64)
    ratios = np.zeros(n)
    for i in range(n):
        ids, d = index.query(float(px[i]), float(py[i]), 6)
        a = max(0, i - 1)
        b = min(n - 1, i + 1)
        mx, my = px[b] - px[a], py[b] - py[a]
        nrm = float(np.hypot(mx, my))
        score = d.copy()
        if nrm > 1e-6:
            dirs = net.seg_dir(ids)
            score = score - 30.0 * (dirs[:, 0] * mx + dirs[:, 1] * my) / nrm
        sg = int(ids[int(np.argmin(score))])
        segs[i] = sg
        ratios[i], _ = net.project(float(px[i]), float(py[i]), sg)
    return segs, ratios


# ---------------------------------------------------------------------------
# Learned recoverers
# ---------------------------------------------------------------------------
# candidate segments per point in a surrounding subgraph
K_C = 5
# Node2Vec columns of the seq2seq decoders' segment features
N2V_D = 16


def subgraph_means(index: SegmentIndex, n2v: np.ndarray, xs, ys) -> np.ndarray:
    """(ℓ, d) mean Node2Vec embedding of each point's top-``K_C`` candidate
    segments (its surrounding subgraph); zeros where a point has none."""
    sub = np.zeros((len(xs), n2v.shape[1]))
    for i in range(len(xs)):
        ids, _ = index.query(float(xs[i]), float(ys[i]), K_C)
        if len(ids):
            sub[i] = n2v[ids].mean(axis=0)
    return sub


class _LearnedRecoverer:
    """Shared base of the learned recovery baselines: construction, the
    parameter list and training.

    A family defines ``_build(rng)`` (its modules, drawn from ``rng`` in a
    fixed order), ``_parts`` (the module attributes, in parameter order),
    ``_targets(tr)`` (the supervision read off a ground-truth trajectory)
    and ``_loss(d)`` (one training trajectory's loss tensor).
    """

    _parts: tuple[str, ...] = ()

    def __init__(self, net, index: SegmentIndex, norm: dict, eps: float, d: int = 32, seed: int = 0):
        self.net, self.index, self.norm, self.eps, self.d, self.seed = net, index, norm, eps, d, seed
        self._build(np.random.default_rng(seed))

    def parameters(self):
        # Adam's gradient clip sums over this order, so the order is part
        # of the trained weights
        return [p for attr in self._parts if hasattr(self, attr) for p in getattr(self, attr).parameters()]

    def _obs_X(self, xs, ys, ts, t0, n_ticks):
        """Per observed point: MMA's point features plus the trip-time
        fraction."""
        pf = point_features(np.asarray(xs), np.asarray(ys), np.asarray(ts), t0, self.norm)
        tau = (np.asarray(ts) / max((n_ticks - 1) * self.eps, 1e-9))[:, None]
        return np.concatenate([pf, tau], axis=1)

    def fit(self, city: CityData, epochs: int = 4, lr: float = 2e-3, batch: int = 4, seed: int = 0,
            verbose: bool = False):
        data = []
        for tr in city.trajs("train"):
            obs = np.where(tr.observed)[0]
            if len(obs) < 2:
                continue
            data.append((tr.x[obs], tr.y[obs], tr.t[obs], tr.t0, obs, len(tr.t)) + self._targets(tr))
        means = fit(self.parameters(), len(data), lambda idx: mean_of([self._loss(data[i]) for i in idx]),
                    epochs, lr, batch, seed)
        if verbose:
            for ep, loss in enumerate(means):
                print(f"[{self.name}:{city.name}] epoch {ep + 1}/{epochs} loss={loss:.4f}")
        return self


# ---------------------------------------------------------------------------
# All-segment seq2seq decoders
# ---------------------------------------------------------------------------
class _FullVocabDecoder(Module):
    """GRU decoder classifying every ε tick over all n segments.

    Segment scores are ``q · E + b`` from the shared
    :class:`repro.mma.baselines.SegmentHead`; the ratio head is an MLP over
    the state and the predicted segment's embedding.
    """

    def __init__(self, seg_feats: np.ndarray, d: int, rng: np.random.Generator):
        self.d = d
        self.head = SegmentHead(seg_feats, d, rng)
        self.gru = GRUCell(d + 2, d, rng)
        self.q = Linear(2 * d, d, rng)  # state+attn-ctx → query
        self.reg = MLP([2 * d, d, 1], rng)
        # learned-score gain, initialised small so the constraint prior
        # dominates until the learned scores become informative
        self.gain = Tensor(np.array([0.3]), requires_grad=True)

    def step(self, E, b, h, ctx, penalty: np.ndarray):
        """One tick: returns (logits over n segments, query state).

        ``penalty`` is MTrajRec's road-constraint layer expressed as a soft
        locality prior around the time-interpolated position (the original
        masks candidates to the region around the interpolated point)."""
        hc = concat([h, ctx], axis=-1)
        q = self.q(hc)  # (d,)
        return (E @ q) * like(self.gain, q) + b + penalty, hc

    def ratio(self, hc, e_k):
        return sigmoid(self.reg(concat([self.q(hc), e_k], axis=-1)))

    def advance(self, h, e_prev, r_prev: float, tau: float):
        return self.gru(concat([e_prev, np.array([r_prev, tau])], axis=-1), h)


class _Seq2SegRecoverer(_LearnedRecoverer):
    """Shared skeleton of the all-segment seq2seq recovery baselines.

    Subclasses define ``_build_encoder(rng)`` and
    ``_encode(X, xs, ys) -> (enc_states (m, d), h0)`` where ``m`` may be 1
    for pooled (representation-learning) encoders.
    """

    name = "Seq2Seg"
    use_step_attention = True
    _parts = ("dec", "inp", "enc", "enc2", "pool")

    def _build(self, rng):
        self.dec = _FullVocabDecoder(segment_feature_matrix(self.net, self.norm, d=N2V_D, seed=self.seed),
                                     self.d, rng)
        self.inp = Linear(4, self.d, rng)
        self._build_encoder(rng)

    @property
    def n2v(self) -> np.ndarray:
        """(n, ``N2V_D``) Node2Vec embeddings for the subgraph encoders: the
        last columns of the decoder's segment features, so no second run."""
        return self.dec.head.seg_feats[:, -N2V_D:]

    def _targets(self, tr):
        return tr.seg, tr.ratio

    def _loss(self, d):
        return self._rollout(*d[:6], teacher=d[6:])

    # -- subclass hooks ----------------------------------------------------
    def _build_encoder(self, rng):
        self.enc = GRU(self.d, self.d, rng)

    def _encode(self, X, xs, ys):
        states = self.enc(self.inp(X))
        return states, mean(states, axis=0)

    # -- shared machinery --------------------------------------------------
    def _ctx(self, enc_states, h):
        if not self.use_step_attention or enc_states.shape[0] == 1:
            return mean(enc_states, axis=0)
        return softmax(enc_states @ h, axis=-1) @ enc_states

    def _rollout(self, xs, ys, ts, t0, idxs, n_ticks, teacher=None):
        """Run the decoder over all ticks.

        With ``teacher=(gt_seg, gt_ratio)`` the point features enter as a
        Tensor and it returns the training loss tensor; otherwise they stay
        arrays, it builds no graph, and it returns the greedy
        ``(segs, ratios)``.
        """
        X = self._obs_X(xs, ys, ts, t0, n_ticks)
        if teacher is not None:
            X = Tensor(X)
        enc_states, h = self._encode(X, xs, ys)
        taus = (np.arange(n_ticks) * self.eps) / max((n_ticks - 1) * self.eps, 1e-9)
        # MTrajRec-style constraint region around the time-interpolated
        # position of each tick (soft penalty; see _FullVocabDecoder.step),
        # plus a heading prior from the interpolated motion direction (the
        # originals carry heading in their road-aware features)
        bx = np.interp(np.arange(n_ticks), np.asarray(idxs, dtype=float), np.asarray(xs))
        by = np.interp(np.arange(n_ticks), np.asarray(idxs, dtype=float), np.asarray(ys))
        pen = distance_penalty(self.net, bx, by, delta=150.0)
        pen = pen + 4.0 * _heading_cos(self.net, bx, by)
        E, b = self.dec.head(X)  # (n, d), (n,)
        segs = np.zeros(n_ticks, dtype=np.int64)
        ratios = np.zeros(n_ticks)
        losses = []
        for tick in range(n_ticks):
            logits, hc = self.dec.step(E, b, h, self._ctx(enc_states, h), pen[tick])
            if teacher is None:
                k = int(np.argmax(logits))
                r = float(self.dec.ratio(hc, E[k])[0])
                segs[tick], ratios[tick] = k, r
            else:
                k = int(teacher[0][tick])
                r = float(teacher[1][tick])
                ce = -logits.log_softmax(axis=-1)[k]
                diff = self.dec.ratio(hc, E[k]) - Tensor(np.array([r]))
                mae = (diff.relu() + (-diff).relu()).reshape(())
                losses.append(ce + mae * LAMBDA)
            h = self.dec.advance(h, E[k], r, float(taus[tick]))
        return mean_of(losses) if teacher is not None else (segs, ratios)

    # -- public API --------------------------------------------------------
    def recover(self, xs, ys, ts, t0, idxs, n_ticks):
        return self._rollout(xs, ys, ts, t0, idxs, n_ticks)


class MTrajRecRecoverer(_Seq2SegRecoverer):
    """MTrajRec-lite: GRU encoder, attention, all-segment GRU decoder."""

    name = "MTrajRec"


class RNTrajRecRecoverer(_Seq2SegRecoverer):
    """RNTrajRec-lite: transformer encoder over points enriched with the
    mean Node2Vec embedding of each point's candidate subgraph (the
    GNN-over-surrounding-subgraph surrogate)."""

    name = "RNTrajRec"

    def _build_encoder(self, rng):
        self.inp = Linear(4 + N2V_D, self.d, rng)
        self.enc = TransformerEncoder(self.d, n_layers=2, n_heads=2, rng=rng)

    def _encode(self, X, xs, ys):
        sub = subgraph_means(self.index, self.n2v, xs, ys)
        states = self.enc(self.inp(concat([X, sub], axis=1)))
        return states, mean(states, axis=0)


class MMSTGEDRecoverer(RNTrajRecRecoverer):
    """MM-STGED-lite: micro/macro graph features — candidate-subgraph mean
    (micro) + trajectory-level aggregates appended to the state (macro) —
    over a GRU encoder."""

    name = "MM-STGED"

    def _build_encoder(self, rng):
        self.inp = Linear(4 + N2V_D + 4, self.d, rng)
        self.enc = GRU(self.d, self.d, rng)

    def _encode(self, X, xs, ys):
        sub = subgraph_means(self.index, self.n2v, xs, ys)
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        span = max(self.norm["x1"] - self.norm["x0"], 1e-9)
        macro = np.array(
            [
                (xs[-1] - xs[0]) / span,
                (ys[-1] - ys[0]) / span,
                np.hypot(np.diff(xs), np.diff(ys)).sum() / span,
                len(xs) / 50.0,
            ]
        )
        feats = concat([X, sub, np.broadcast_to(macro, (len(xs), 4))], axis=1)
        states = self.enc(self.inp(feats))
        return states, mean(states, axis=0)


class _PooledRecoverer(_Seq2SegRecoverer):
    """Base for the representation-learning trio: the encoder collapses the
    trajectory into ONE embedding that conditions the decoder (no per-step
    attention over points) — the bottleneck that costs them accuracy."""

    use_step_attention = False

    def _encode(self, X, xs, ys):
        pooled = self._pool(X, xs, ys).reshape(1, self.d)
        return pooled, pooled.reshape(self.d)

    def _pool(self, X, xs, ys):
        raise NotImplementedError


class TrajGATDecRecoverer(_PooledRecoverer):
    """TrajGAT+Dec-lite: graph-attention pooling over the candidate-segment
    embeddings of the trajectory's points."""

    name = "TrajGAT+Dec"

    def _build_encoder(self, rng):
        self.enc = Linear(N2V_D, self.d, rng)  # candidate-embedding projector
        self.pool = MLP([self.d, self.d, 1], rng)  # attention scorer

    def _pool(self, X, xs, ys):
        z = self.enc(like(subgraph_means(self.index, self.n2v, xs, ys), X))  # (ℓ, d)
        return softmax(self.pool(z).reshape(len(xs)), axis=-1) @ z


class TrajCLDecRecoverer(_PooledRecoverer):
    """TrajCL+Dec-lite: dual-feature (structural mean-point ⊕ spatial
    displacement histogram) MLP pooling."""

    name = "TrajCL+Dec"

    def _build_encoder(self, rng):
        self.enc = MLP([4 + 4, self.d, self.d], rng)

    def _pool(self, X, xs, ys):
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        span = max(self.norm["x1"] - self.norm["x0"], 1e-9)
        disp = np.array(
            [
                (xs[-1] - xs[0]) / span,
                (ys[-1] - ys[0]) / span,
                np.abs(np.diff(xs)).sum() / span,
                np.abs(np.diff(ys)).sum() / span,
            ]
        )
        # X's plain array: its statistics take numpy's mean, in either mode
        feat = np.concatenate([like(X, None).mean(axis=0), disp])
        return self.enc(like(feat, X))


class ST2VecDecRecoverer(_PooledRecoverer):
    """ST2Vec+Dec-lite: separate spatial and temporal poolings fused."""

    name = "ST2Vec+Dec"

    def _build_encoder(self, rng):
        self.enc = MLP([2, self.d, self.d // 2], rng)  # spatial
        self.enc2 = MLP([2, self.d, self.d - self.d // 2], rng)  # temporal

    def _pool(self, X, xs, ys):
        x = like(X, None)  # X's plain array: its statistics take numpy's mean, in either mode
        sp = self.enc(like(x[:, :2].mean(axis=0), X))
        tm = self.enc2(like(np.array([x[:, 2].mean(), x[:, 3].mean()]), X))
        return concat([sp, tm], axis=-1)


# ---------------------------------------------------------------------------
# Free-space methods
# ---------------------------------------------------------------------------
def _kalman_smooth(px: np.ndarray, py: np.ndarray, dt: float, q: float = 0.5, r: float = 25.0):
    """Constant-velocity Kalman filter + RTS smoother over 2-D positions
    (DHTR's calibration component). ``q``/``r`` are process/measurement
    noise scales in metres."""
    n = len(px)
    A = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]])
    Hm = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    Q = q * np.eye(4)
    R = r * np.eye(2)
    xs_f = np.zeros((n, 4))
    Ps_f = np.zeros((n, 4, 4))
    xs_p = np.zeros((n, 4))
    Ps_p = np.zeros((n, 4, 4))
    x = np.array([px[0], py[0], 0, 0])
    P = 10 * np.eye(4)
    for i in range(n):
        if i:
            x = A @ x
            P = A @ P @ A.T + Q
        xs_p[i] = x
        Ps_p[i] = P
        z = np.array([px[i], py[i]])
        S = Hm @ P @ Hm.T + R
        K = P @ Hm.T @ np.linalg.inv(S)
        x = x + K @ (z - Hm @ x)
        P = (np.eye(4) - K @ Hm) @ P
        xs_f[i] = x
        Ps_f[i] = P
    xs_s = xs_f.copy()
    for i in range(n - 2, -1, -1):
        C = Ps_f[i] @ A.T @ np.linalg.inv(Ps_p[i + 1])
        xs_s[i] = xs_f[i] + C @ (xs_s[i + 1] - xs_p[i + 1])
    return xs_s[:, 0], xs_s[:, 1]


class _FreeSpaceRecoverer(_LearnedRecoverer):
    """Base: predict per-tick coordinates, then snap to nearest segment."""

    name = "FreeSpace"
    _parts = ("inp", "enc", "head")

    def _targets(self, tr):
        return tr.tx, tr.ty

    def _loss(self, d):
        xs, ys, ts, t0, idxs, n_ticks = d[:6]
        span = max(self.norm["x1"] - self.norm["x0"], 1e-9)
        pred = self._coords(Tensor(self._obs_X(xs, ys, ts, t0, n_ticks)), xs, ys, idxs, n_ticks)
        target = Tensor(np.stack(d[6:], axis=1) / span)
        return ((pred * (1.0 / span) - target) ** 2).mean()

    def _coords(self, X, xs, ys, idxs, n_ticks):
        """(ℓ_ε, 2) coordinates from point features ``X`` (a Tensor builds
        the graph, an array builds none)."""
        raise NotImplementedError

    def recover(self, xs, ys, ts, t0, idxs, n_ticks):
        coords = self._coords(self._obs_X(xs, ys, ts, t0, n_ticks), xs, ys, idxs, n_ticks)
        px, py = self._post(coords[:, 0], coords[:, 1])
        return snap_with_direction(self.net, self.index, px, py)

    def _post(self, px, py):
        return px, py


class DHTRRecoverer(_FreeSpaceRecoverer):
    """DHTR-lite: BiGRU over observed points → per-tick coordinate
    residual on top of time-linear interpolation, Kalman-smoothed."""

    name = "DHTR"

    def _build(self, rng):
        self.inp = Linear(4, self.d, rng)
        self.enc = BiGRU(self.d, self.d // 2, rng)
        self.head = MLP([self.d + 1, self.d, 2], rng)

    def _coords(self, X, xs, ys, idxs, n_ticks):
        states = self.enc(self.inp(X))  # (ℓ, d)
        base_x = np.interp(np.arange(n_ticks), idxs.astype(float), np.asarray(xs))
        base_y = np.interp(np.arange(n_ticks), idxs.astype(float), np.asarray(ys))
        taus = (np.arange(n_ticks) / max(n_ticks - 1, 1))[:, None]
        pe = mean(states, axis=0).reshape(1, self.d) + np.zeros((n_ticks, 1))
        res = self.head(concat([pe, taus], axis=-1))  # (ℓ_ε, 2)
        scale = 0.02 * max(self.norm["x1"] - self.norm["x0"], 1.0)
        return res * scale + np.stack([base_x, base_y], axis=1)

    def _post(self, px, py):
        return _kalman_smooth(px, py, self.eps)


class TERIRecoverer(_FreeSpaceRecoverer):
    """TERI-lite: transformer over observed points; per-tick coordinates
    from time-difference attention over the observed points (+ residual)."""

    name = "TERI"

    def _build(self, rng):
        self.inp = Linear(4, self.d, rng)
        self.enc = TransformerEncoder(self.d, n_layers=2, n_heads=2, rng=rng)
        self.head = MLP([self.d + 1, self.d, 2], rng)

    def _coords(self, X, xs, ys, idxs, n_ticks):
        xs = np.asarray(xs)
        ys = np.asarray(ys)
        states = self.enc(self.inp(X))
        # time-difference attention: each tick attends to observed points
        # with weights softmax(-|Δt|/ε̄)
        dt = np.abs(np.arange(n_ticks)[:, None] - idxs[None, :].astype(float))
        W = np.exp(-dt / 2.0)
        W = W / W.sum(axis=1, keepdims=True)
        base = W @ np.stack([xs, ys], axis=1)  # (ℓ_ε, 2)
        ctx = like(W, states) @ states  # (ℓ_ε, d)
        taus = (np.arange(n_ticks) / max(n_ticks - 1, 1))[:, None]
        res = self.head(concat([ctx, taus], axis=-1))
        scale = 0.02 * max(self.norm["x1"] - self.norm["x0"], 1.0)
        return res * scale + base
