"""Ground-truth trajectory simulator.

Substitutes the paper's real taxi/ride-hailing data (DESIGN.md §2). Each
trajectory is produced by:

1. **Route**: the cheapest path between a random origin/destination node
   pair under per-trip randomised edge costs (drivers follow near-shortest,
   preference-perturbed routes) — a simple path per Definition 3.
2. **Kinematics**: per-segment cruise speed = city-wide base speed × a
   *persistent* per-segment factor (some roads are slow — learnable from
   history, which is what gives learned recovery its edge over linear
   interpolation) × a per-trip lognormal factor; plus stochastic **stops**
   at signalized intersections (a persistent subset of nodes) with
   exponential waiting times. The resulting time→distance profile is
   piecewise linear with plateaus, like real urban driving.
3. **ε-sampling**: a map-matched point ``(seg, ratio, t)`` every ε seconds
   along the profile — the ground-truth ``T_ε`` of Definition 6.
4. **GPS noise**: observed coordinates = true point + isotropic Gaussian
   noise, with a heavy tail (prob. ``outlier_p`` of 3× sigma), calibrated
   so the nearest segment is the true one ~70% of the time as the paper
   measures on its real data (Fig. 2).

Sparse trajectories (Definition 2's input ``T``) are obtained afterwards by
:func:`repro.traj.ops.sparsify_mask`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.roadnet.graph import RoadNetwork
from repro.roadnet.routing import shortest_paths
from repro.traj.ops import locate_on_route, route_cum_lengths


@dataclass
class Trajectory:
    """One ground-truth ε-sampling trajectory plus its sparse observation."""

    traj_id: int
    route: np.ndarray  # (ℓ_R,) segment ids, a simple path
    t: np.ndarray  # (ℓ_ε,) seconds from trip start
    t0: float  # trip start, seconds since midnight
    seg: np.ndarray  # (ℓ_ε,) true segment per point
    route_pos: np.ndarray  # (ℓ_ε,) index of seg within route
    ratio: np.ndarray  # (ℓ_ε,) true position ratio
    tx: np.ndarray  # (ℓ_ε,) true coords
    ty: np.ndarray
    x: np.ndarray  # (ℓ_ε,) observed (noisy) coords
    y: np.ndarray
    observed: np.ndarray  # (ℓ_ε,) bool sparsification mask


def _sp_route(net: RoadNetwork, rng: np.random.Generator, target_len: float) -> np.ndarray:
    """A driver-like route: cheapest path under per-trip randomised edge
    costs, from a random origin to a destination whose true path length
    lands near ``target_len``.

    Real trajectories follow roughly-reasonable (near-shortest, driver-
    preference-perturbed) routes; modelling them as randomised shortest
    paths keeps the paper's premise intact that route planning between
    matched segments can recover the driven route (Alg. 1 line 12). The
    Dijkstra tree guarantees a simple path (Definition 3).
    """
    src = int(rng.integers(net.n_nodes))
    factor = np.exp(rng.normal(0, 0.06, net.n_segments))  # per-trip cost jitter
    dist, prev_seg = shortest_paths(net, src, net.length * factor)
    # true (unjittered) length along the tree; costs are positive, so in
    # order of dist every node's parent comes before it
    seg_u, length = net.seg_u.tolist(), net.length.tolist()
    true_len = [0.0] * net.n_nodes
    for v in np.argsort(dist).tolist():
        s = prev_seg[v]
        if s >= 0:
            true_len[v] = true_len[seg_u[s]] + length[s]
    true_len = np.array(true_len)
    reach = np.isfinite(dist)
    ok = np.where((true_len >= 0.75 * target_len) & (true_len <= 1.25 * target_len) & reach)[0]
    if len(ok) == 0:
        # small networks may not span target_len — fall back to the longest
        # reachable trips instead of failing
        ok = np.where((true_len >= 0.5 * target_len) & reach)[0]
    if len(ok) == 0:
        far = np.argsort(true_len)[-8:]
        ok = far[reach[far]]
    if len(ok) == 0:
        return np.empty(0, dtype=np.int64)
    dst = int(ok[rng.integers(len(ok))])
    route = []
    node = dst
    while prev_seg[node] >= 0:
        route.append(prev_seg[node])
        node = seg_u[prev_seg[node]]
    return np.array(route[::-1], dtype=np.int64)


@dataclass
class CityKinematics:
    """Persistent (per-city) kinematic state: per-segment speed factors and
    per-node signal probabilities — the structure that makes recovery
    *learnable* (it repeats across historical trajectories)."""

    seg_speed_factor: np.ndarray  # (n,) lognormal, fixed per city
    node_signal: np.ndarray  # (m,) bool: signalized intersection
    wait_mean: float  # mean stop duration at a signal (s)

    @staticmethod
    def for_net(net: RoadNetwork, seed: int, signal_p: float = 0.55, wait_mean: float = 20.0):
        rng = np.random.default_rng(seed)
        return CityKinematics(
            seg_speed_factor=np.exp(rng.normal(0, 0.40, net.n_segments)),
            node_signal=rng.random(net.n_nodes) < signal_p,
            wait_mean=wait_mean,
        )


def simulate_trajectory(
    net: RoadNetwork,
    traj_id: int,
    rng: np.random.Generator,
    eps: float,
    target_len: float,
    speed_mu: float,
    noise_sigma: float,
    gamma: float,
    outlier_p: float = 0.05,
    min_points: int = 6,
    kin: CityKinematics | None = None,
) -> Trajectory | None:
    """Simulate one trajectory; ``None`` if the route came out too short."""
    if kin is None:
        kin = CityKinematics.for_net(net, seed=0)
    route = _sp_route(net, rng, target_len * float(rng.uniform(0.8, 1.2)))
    if len(route) < 4:
        return None
    cum = route_cum_lengths(net, route)
    # speed = base × persistent per-segment factor × per-trip driver factor
    trip_factor = float(np.exp(rng.normal(0, 0.15)))
    speeds = speed_mu * kin.seg_speed_factor[route] * trip_factor * np.exp(
        rng.normal(0, 0.08, size=len(route))
    )
    move_time = net.length[route] / speeds
    # stop at the exit node of each segment if it is signalized and the
    # light happens to be red (p=0.55), waiting ~Exp(wait_mean)
    exit_nodes = net.seg_v[route]
    red = kin.node_signal[exit_nodes] & (rng.random(len(route)) < 0.6)
    waits = np.where(red, rng.exponential(kin.wait_mean, len(route)), 0.0)
    # piecewise timeline: move over segment i, then wait at its exit
    move_start = np.empty(len(route))
    move_end = np.empty(len(route))
    tcur = 0.0
    for i in range(len(route)):
        move_start[i] = tcur
        tcur += move_time[i]
        move_end[i] = tcur
        tcur += waits[i]
    duration = float(move_end[-1])  # trip ends when the last segment ends
    n_pts = int(duration // eps) + 1
    if n_pts < min_points:
        return None
    t = np.arange(n_pts) * float(eps)
    # distance travelled at each tick: plateau during waits
    seg_i = np.clip(np.searchsorted(move_start, t, side="right") - 1, 0, len(route) - 1)
    in_move = t <= move_end[seg_i]
    dist = np.where(
        in_move,
        cum[seg_i] + np.clip(t - move_start[seg_i], 0, None) * speeds[seg_i],
        cum[seg_i + 1] - 1e-6,
    )
    segs = np.empty(n_pts, dtype=np.int64)
    rpos = np.empty(n_pts, dtype=np.int64)
    ratio = np.empty(n_pts)
    for i, di in enumerate(dist):
        p, s, r = locate_on_route(net, route, float(di), cum)
        rpos[i], segs[i], ratio[i] = p, s, r
    tx, ty = net.point_at(segs, ratio)
    sig = np.full(n_pts, float(noise_sigma))
    sig[rng.random(n_pts) < outlier_p] *= 3.0
    x = tx + rng.normal(0, 1, n_pts) * sig
    y = ty + rng.normal(0, 1, n_pts) * sig
    from repro.traj.ops import sparsify_mask

    observed = sparsify_mask(n_pts, gamma, rng)
    return Trajectory(
        traj_id=traj_id,
        route=route,
        t=t.astype(np.float64),
        t0=float(rng.uniform(0, 86400 - duration - 1)),
        seg=segs,
        route_pos=rpos,
        ratio=ratio,
        tx=tx,
        ty=ty,
        x=x,
        y=y,
        observed=observed,
    )


def simulate_city_trajectories(
    net: RoadNetwork,
    n_traj: int,
    eps: float,
    target_len: float,
    speed_mu: float,
    noise_sigma: float,
    gamma: float = 0.1,
    seed: int = 0,
    outlier_p: float = 0.05,
    kin_seed: int = 7,
) -> list[Trajectory]:
    """Simulate ``n_traj`` trajectories (rejection-samples short walks)."""
    rng = np.random.default_rng(seed)
    # kinematics are keyed to the *network* (kin_seed), not the trajectory
    # seed, so train/test draws share the same persistent city structure
    kin = CityKinematics.for_net(net, seed=kin_seed)
    out: list[Trajectory] = []
    attempts = 0
    while len(out) < n_traj and attempts < n_traj * 20:
        attempts += 1
        tr = simulate_trajectory(
            net, len(out), rng, eps, target_len, speed_mu, noise_sigma, gamma, outlier_p, kin=kin,
        )
        if tr is not None:
            out.append(tr)
    if len(out) < n_traj:
        raise RuntimeError(f"only simulated {len(out)}/{n_traj} trajectories")
    return out
