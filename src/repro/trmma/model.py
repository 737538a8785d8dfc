"""The TRMMA model (paper §V, Fig. 4, Algorithm 2).

**DualFormer encoding** (Eqs. 11-14): one transformer over the observed
points of ``T`` (features: normalised x/y/t, projected position ratio, and
the id embedding of the matched segment) and another over the segments of
route ``R`` (id embeddings); fused by attention from each route segment over
all trajectory points into ``H ∈ R^{ℓ_R × d_h}``. The ``-DF`` ablation uses
``H = R`` without the fusion.

**Multitask decoding** (Eqs. 15-18): a GRU whose state is seeded by mean
pooling ``H`` (Alg. 2 line 6) advances once per recovered point; at each
missing ε-tick the segment is the probability-argmax among the route's
segments *at or after* the previously emitted point's segment (the order
constraint of Eq. 17), and the ratio comes from the attention-pooled
regression head of Eq. 18. Observed points also advance the GRU state (with
their matched segment/ratio) so the state tracks progress along the route.

Training (Eqs. 19-21) teacher-forces the GRU and combines per-tick BCE over
route segments with λ-weighted MAE on ratios, through the autodiff graph.
``loss`` and ``recover`` call the same ``encode``, ``_step_scores``,
``_step_ratio`` and GRU step; ``loss`` feeds them Tensors, which build the
graph, and ``recover`` plain arrays, which build none. Both modes run the
same ops, so their outputs are bit-identical.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.autodiff import Tensor, concat, mean, mean_of, softmax, tanh
from repro.nn.gru import GRUCell
from repro.nn.layers import Embedding, Linear, MLP, Module
from repro.nn.transformer import TransformerEncoder

LAMBDA = 2.0  # Eq. (21): weight of the ratio loss L_r against L_seg


@dataclass
class TrmmaSample:
    """One trajectory prepared for TRMMA.

    Tick arrays cover the full ε grid (length ``ℓ_ε``); ``obs_*`` arrays
    cover the observed (sparse) points, with ``obs_tick`` giving each
    observed point's tick index. Training samples carry GT ``tick_pos`` /
    ``tick_ratio`` targets (positions within ``route``); inference samples
    carry -1 targets.
    """

    obs_feats: np.ndarray  # (ℓ, 5) xn, yn, tod, trip-fraction, matched ratio
    obs_seg: np.ndarray  # (ℓ,) matched segment ids
    obs_pos: np.ndarray  # (ℓ,) position of matched segment within route
    obs_tick: np.ndarray  # (ℓ,) tick index of each observed point
    route: np.ndarray  # (ℓ_R,)
    route_feats: np.ndarray  # (ℓ_R, 2) normalised length + cumulative offset
    route_timew: np.ndarray  # (ℓ_R,) expected traversal-time share per segment
    n_ticks: int
    tick_tau: np.ndarray  # (ℓ_ε,) normalised time-in-trip per tick
    tick_pos: np.ndarray  # (ℓ_ε,) GT route position (targets), -1 unknown
    tick_ratio: np.ndarray  # (ℓ_ε,) GT ratio targets


class TRMMAModel(Module):
    """DualFormer encoder + GRU multitask decoder (see module docstring)."""

    def __init__(
        self,
        n_segments: int,
        d_h: int = 32,
        n_layers: int = 2,
        n_heads: int = 2,
        seed: int = 0,
        n2v_init: np.ndarray | None = None,
        use_dualformer: bool = True,
    ):
        rng = np.random.default_rng(seed)
        self.d_h = d_h
        self.use_dualformer = use_dualformer
        self.emb_t = Embedding(n_segments, d_h, rng, init=n2v_init)  # T_0 segment ids
        self.emb_r = Embedding(n_segments, d_h, rng, init=n2v_init)  # Eq.(12) W7
        self.fc_t = Linear(5 + d_h, d_h, rng)  # Eq.(11) W6
        # Eq.(12) input enriched with segment length / cumulative route
        # offset — explicit route geometry the paper's model absorbs from
        # large-scale training (DESIGN.md §2 lite-scale note)
        self.fc_r = Linear(2 + d_h, d_h, rng)
        self.trans_t = TransformerEncoder(d_h, n_layers=n_layers, n_heads=n_heads, rng=rng)
        self.trans_r = TransformerEncoder(d_h, n_layers=n_layers, n_heads=n_heads, rng=rng)
        self.gru = GRUCell(d_h + 2, d_h, rng)
        # Eq.(15) W8/W9 — enriched with (a) an elementwise-product term (a
        # relational bias for comparing a segment's row of H against the
        # state) and (b) two decode-time scalars per segment: its start/end
        # route offsets minus the target tick's trip-time fraction. These
        # make constant-speed interpolation the model's easy baseline
        # behaviour, which it then refines with learned speeds/stop
        # patterns — small-data aids documented in DESIGN.md §2.
        self.cls = MLP([3 * d_h + 4, d_h, 1], rng)
        self.reg = MLP([2 * d_h + 4, d_h, 1], rng)  # Eq.(18) W10/W11 (+ scalars)

    # -- encoding ---------------------------------------------------------
    def encode(self, s: TrmmaSample, X=None):
        """DualFormer encoding H (Eqs. 11-14), shape (ℓ_R, d_h).

        ``X`` is ``s.obs_feats`` (the default, which builds no graph) or a
        :class:`Tensor` of it, which builds the autodiff graph."""
        X = s.obs_feats if X is None else X
        T = self.trans_t(self.fc_t(concat([X, self.emb_t(s.obs_seg, X)], axis=-1)))  # (ℓ, d_h)
        R = self.trans_r(self.fc_r(concat([s.route_feats, self.emb_r(s.route, X)], axis=-1)))  # (ℓ_R, d_h)
        if not self.use_dualformer:
            return R
        return R + softmax(R @ T.transpose(), axis=-1) @ T  # Eqs.(13)-(14), rows = segments

    # -- decoding ---------------------------------------------------------
    @staticmethod
    def expected_offsets(s: TrmmaSample) -> np.ndarray:
        """Per-tick expected route offset by interpolating between the
        bracketing observed points in *expected-travel-time* space.

        ``route_timew`` holds each segment's expected traversal-time share
        learned from historical trajectories (per-road speeds + stop
        propensities, :func:`repro.trmma.train.segment_time_stats_trajs`); with
        uniform time-per-metre this degenerates to plain distance-linear
        interpolation (what the Linear baseline does). This is the
        "capture patterns from historical data" part of TRMMA expressed as
        an explicit statistic at lite scale (DESIGN.md §2)."""
        ln = np.maximum(s.route_feats[:, 0], 1e-9)
        start = s.route_feats[:, 1]
        tw = np.maximum(s.route_timew, 1e-9)
        cum_t = np.concatenate([[0.0], np.cumsum(tw)])
        off_obs = start[s.obs_pos] + s.obs_feats[:, 4] * ln[s.obs_pos]
        # route offset → time: the segment holding each offset, then its share
        k = (np.searchsorted(start, off_obs, side="right") - 1).clip(0, len(ln) - 1)
        t_obs = cum_t[k] + ((off_obs - start[k]) / ln[k]).clip(0, 1) * tw[k]
        t_ticks = np.interp(np.arange(s.n_ticks), s.obs_tick.astype(float), t_obs)
        # and back: time → route offset
        k = (np.searchsorted(cum_t, t_ticks, side="right") - 1).clip(0, len(ln) - 1)
        return start[k] + ((t_ticks - cum_t[k]) / tw[k]).clip(0, 1) * ln[k]

    @staticmethod
    def _decode_feats(s: TrmmaSample, tau: float, exp_off: float) -> np.ndarray:
        """(ℓ_R, 4) per-segment decode-time features in *segment-relative*
        coordinates (O(1)-scaled so the MLP can resolve the containment
        boundary): the would-be ratio of ``exp_off``/``tau`` inside each
        segment — in [0, 1) exactly for the containing segment."""
        ln = np.maximum(s.route_feats[:, 0], 1e-6)
        start = s.route_feats[:, 1]
        r_exp = ((exp_off - start) / ln).clip(-3.0, 4.0)
        r_tau = ((tau - start) / ln).clip(-3.0, 4.0)
        inside = ((r_exp >= 0) & (r_exp < 1)).astype(np.float64)
        inside_tau = ((r_tau >= 0) & (r_tau < 1)).astype(np.float64)
        return np.stack([r_exp, r_tau, inside, inside_tau], axis=1)

    def _step_scores(self, H, h, feats: np.ndarray):
        """Eq.(15): w_k for every route segment, shape (ℓ_R,); ``feats`` is
        the tick's :meth:`_decode_feats`."""
        lr = H.shape[0]
        he = h.reshape(1, self.d_h) + np.zeros((lr, 1))
        return self.cls(concat([H, he, H * he, feats], axis=-1)).reshape(lr)

    def _step_ratio(self, H, h, w, feats: np.ndarray, exp_off: float, k: int):
        """Eq.(18): attention-pooled ratio regression, shape (1,).

        Predicts a bounded *correction* around the historical-speed
        interpolation prior of the target segment ``k`` (the prior is what
        a perfect constant-progress model would answer; the head shifts it
        using the state and the attended encoding)."""
        psi = softmax(w, axis=-1).reshape(1, -1)
        prior = float(feats[k, 0].clip(0.0, 1.0))
        z = concat([h.reshape(1, self.d_h), psi @ H, psi @ feats[:, :2], np.array([[prior, exp_off]])], axis=-1)
        delta = tanh(self.reg(z).reshape(1))
        return (delta * 0.5 + prior).clip(0.0, 1.0 - 1e-6)

    def _gru_in(self, H, k: int, ratio: float, tau: float):
        return concat([H[k], np.array([ratio, tau])], axis=-1)

    # -- training loss ----------------------------------------------------
    def loss(self, s: TrmmaSample):
        """Teacher-forced L_seg + λ·L_r (Eqs. 19-21, λ = :data:`LAMBDA`),
        averaged per tick.

        Returns ``(loss_tensor, n_missing_ticks)``; callers weight by tick
        count when batching trajectories.
        """
        H = self.encode(s, Tensor(s.obs_feats))
        h = mean(H, axis=0)  # Alg.2 line 6
        obs_by_tick = {int(t): i for i, t in enumerate(s.obs_tick)}
        exp_offs = self.expected_offsets(s)
        terms = []
        for tick in range(s.n_ticks):
            oi = obs_by_tick.get(tick)
            if oi is not None:
                # observed point: advance the state with its matched seg/ratio
                h = self.gru(
                    self._gru_in(H, int(s.obs_pos[oi]), float(s.obs_feats[oi, 4]), float(s.tick_tau[tick])), h
                )
                continue
            k_gt = int(s.tick_pos[tick])
            if k_gt < 0:
                continue
            tau = float(s.tick_tau[tick])
            exp_off = float(exp_offs[tick])
            feats = self._decode_feats(s, tau, exp_off)
            w = self._step_scores(H, h, feats)
            # BCE over the route's segments (Eq. 19), class-balanced: the
            # single positive among ℓ_R segments is up-weighted so it is
            # not drowned by the negatives at small ℓ_R-to-data ratios.
            z = w.clip(-30.0, 30.0)
            p = z.sigmoid()
            y = np.zeros(len(s.route))
            y[k_gt] = 1.0
            eps = 1e-9
            pos_w = max(1.0, (len(s.route) - 1) / 2.0)
            bce = -(
                Tensor(y * pos_w) * (p + eps).log() + Tensor(1 - y) * (1 - p + eps).log()
            ).mean()
            r = self._step_ratio(H, h, w, feats, exp_off, k_gt)
            diff = r - Tensor(np.array([s.tick_ratio[tick]]))
            mae = (diff.relu() + (-diff).relu()).reshape(())  # |diff|, Eq.(20)
            terms.append(bce + mae * LAMBDA)
            # teacher forcing: GT segment/ratio feed the next state
            h = self.gru(self._gru_in(H, k_gt, float(s.tick_ratio[tick]), float(s.tick_tau[tick])), h)
        if not terms:
            return None, 0
        return mean_of(terms), len(terms)

    # -- inference --------------------------------------------------------
    def recover(self, s: TrmmaSample) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2: emit (segment, ratio) for every ε tick.

        Observed ticks carry their matched point (Alg. 2 lines 2-4);
        missing ticks are decoded sequentially under the route-order
        constraint (Eq. 17). Runs ``loss``'s steps on plain arrays, so it
        builds no graph.
        """
        H = self.encode(s)
        h = mean(H, axis=0)  # Alg.2 line 6
        obs_by_tick = {int(t): i for i, t in enumerate(s.obs_tick)}
        exp_offs = self.expected_offsets(s)
        segs = np.zeros(s.n_ticks, dtype=np.int64)
        ratios = np.zeros(s.n_ticks)
        k_prev = 0
        for tick in range(s.n_ticks):
            tau = float(s.tick_tau[tick])
            oi = obs_by_tick.get(tick)
            if oi is not None:
                k = int(s.obs_pos[oi])
                r = float(s.obs_feats[oi, 4])
            else:
                exp_off = float(exp_offs[tick])
                feats = self._decode_feats(s, tau, exp_off)
                w = self._step_scores(H, h, feats)
                wd = w.copy()
                wd[:k_prev] = -np.inf  # Eq.(17): not before a_{j-1}.e
                k = int(np.argmax(wd))
                r = float(self._step_ratio(H, h, w, feats, exp_off, k)[0])
            segs[tick] = s.route[k]
            ratios[tick] = r
            k_prev = max(k_prev, k)
            h = self.gru(self._gru_in(H, k, r, tau), h)
        return segs, ratios
