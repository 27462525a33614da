"""Slot-synchronous simulator of the decentralized DeCENTREx protocol.

Each sensor holds one observation and accumulates partial sums (P, Q, c)
pushed to it by other sensors over perfect links.  Rounds of T slots estimate
one centroid network-wide; each sensor then marks its own observation, and at
the end fuses and classifies locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centralized import ClusteringResult, Dataset, classify, fuse
from .statfn import KernelSpec, r_squared, weight
from .wald import WaldConfig

__all__ = [
    "NetworkConfig",
    "SensorNetwork",
    "RoundLog",
    "init_round",
    "slot_step",
    "run_decentrex",
]


@dataclass(frozen=True)
class NetworkConfig:
    """Protocol parameters: slots per round T, update threshold L, push fanout."""

    n_sensors: int
    T: int
    L: int
    fanout: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_sensors < 2:
            raise ValueError("n_sensors must be at least 2: a sensor pushes to another")
        if self.T < 1:
            raise ValueError("T must be positive")
        if not 1 <= self.L <= self.n_sensors:
            raise ValueError("L must lie in [1, n_sensors]")
        if not 1 <= self.fanout <= self.n_sensors - 1:
            raise ValueError("fanout must lie in [1, n_sensors - 1]")


class SensorNetwork:
    """Vectorized state of all sensors.

    Per sensor: observation y, current estimate, accumulator (P, Q, c) where c
    counts the own-observation contributions aggregated in (P, Q), marked flag,
    and the list of centroids estimated so far.

    The own contribution (own_P, own_Q) = (w * y, w), w = kernel(||y - estimate||^2),
    is kept as long as the estimate does not move.  Only init_round and
    slot_step may write estimate, and each refreshes own_P/own_Q for the
    sensors it moved; any other writer would leave them stale.
    """

    def __init__(self, points: np.ndarray, kernel: KernelSpec):
        self.y = np.asarray(points, dtype=float)
        self.n, self.d = self.y.shape
        self.kernel = kernel
        self.estimate = np.zeros_like(self.y)
        self.P = np.zeros_like(self.y)
        self.Q = np.zeros(self.n)
        self.c = np.zeros(self.n, dtype=int)
        self.own_P = np.zeros_like(self.y)
        self.own_Q = np.zeros(self.n)
        self.marked = np.zeros(self.n, dtype=bool)
        self.phi = [[] for _ in range(self.n)]

    def fresh_contribution(self, idx=None):
        """Own-observation contribution (P, Q) evaluated at the current estimate."""
        if idx is None:
            idx = slice(None)
        diff = self.y[idx] - self.estimate[idx]
        w = np.atleast_1d(weight(self.kernel, np.sum(diff * diff, axis=1)))
        return w[:, None] * self.y[idx], w

    def refresh_own(self, idx=None):
        """Re-evaluate the own contribution of sensors whose estimate moved."""
        if idx is None:
            idx = slice(None)
        self.own_P[idx], self.own_Q[idx] = self.fresh_contribution(idx)

    def reset_accumulators(self, idx=None):
        if idx is None:
            idx = slice(None)
        self.P[idx] = self.own_P[idx]
        self.Q[idx] = self.own_Q[idx]
        self.c[idx] = 1


@dataclass
class RoundLog:
    """Aggregate accounting over all completed rounds."""

    messages_sent: int = 0
    rounds: int = 0


def init_round(net: SensorNetwork, rng: np.random.Generator) -> int:
    """Broadcast the observation of a uniformly chosen unmarked sensor.

    Every sensor sets its estimate to the broadcast vector and resets its
    accumulator to its own fresh contribution.  Returns the chosen index.
    """
    unmarked = np.flatnonzero(~net.marked)
    if unmarked.size == 0:
        raise RuntimeError("cannot start a round: all sensors are marked")
    chosen = int(rng.choice(unmarked))
    net.estimate[:] = net.y[chosen]
    net.refresh_own()
    net.reset_accumulators()
    return chosen


def _pick_targets(n: int, fanout: int, rng: np.random.Generator) -> np.ndarray:
    """(n, fanout) matrix of push targets, distinct from each sender."""
    if fanout == 1:
        t = rng.integers(0, n - 1, size=n)
        t[t >= np.arange(n)] += 1
        return t[:, None]
    targets = np.empty((n, fanout), dtype=int)
    for i in range(n):
        t = rng.choice(n - 1, size=fanout, replace=False)
        t[t >= i] += 1
        targets[i] = t
    return targets


def slot_step(net: SensorNetwork, config: NetworkConfig, rng: np.random.Generator):
    """One synchronous time slot.

    Every sensor pushes its accumulator snapshot to `fanout` distinct others
    and keeps only a fresh own contribution; receivers add incoming sums
    termwise.  All receptions are applied before any update check; sensors
    whose counter reaches L then set estimate = P/Q and reset.  A sensor whose
    weights all underflowed (Q = 0) keeps its estimate and still resets.

    Returns (messages_sent, updated_mask).
    """
    n = net.n
    targets = _pick_targets(n, config.fanout, rng)
    P_snap, Q_snap, c_snap = net.P.copy(), net.Q.copy(), net.c.copy()
    net.reset_accumulators()
    for f in range(config.fanout):
        t = targets[:, f]
        np.add.at(net.P, t, P_snap)
        np.add.at(net.Q, t, Q_snap)
        np.add.at(net.c, t, c_snap)
    updated = net.c >= config.L
    if updated.any():
        moved = updated & (net.Q > 0)
        net.estimate[moved] = net.P[moved] / net.Q[moved, None]
        net.refresh_own(moved)
        net.reset_accumulators(updated)
    return n * config.fanout, updated


def run_decentrex(data: Dataset, config: NetworkConfig, gamma: float = 1e-3):
    """Run the full decentralized protocol on one dataset.

    Returns (results, log) where results[n] is the local ClusteringResult of
    sensor n (its centroid list after local fusion, and the assignment of its
    own observation only) and log aggregates message and round counts.
    Deterministic for a given (data, config).
    """
    pts = data.normalized_points()
    n, d = pts.shape
    if n != config.n_sensors:
        raise ValueError("config.n_sensors must match the dataset size")
    kernel = KernelSpec("wald", d)
    rng = np.random.default_rng(config.seed)
    wald_cfg = WaldConfig(d=d, gamma=gamma)
    net = SensorNetwork(pts, kernel)
    log = RoundLog()

    while not net.marked.all():
        chosen = init_round(net, rng)
        for _ in range(config.T):
            sent, _ = slot_step(net, config, rng)
            log.messages_sent += sent
        for s in range(n):
            net.phi[s].append(net.estimate[s].copy())
        dist = np.linalg.norm(net.y - net.estimate, axis=1)
        net.marked |= dist <= wald_cfg.threshold
        net.marked[chosen] = True
        log.rounds += 1

    # Local fusion: sensors cannot observe per-cluster supports, so each one
    # uses the network-wide surrogate N / |phi_n|.
    r = math.sqrt(r_squared(d, method="quadrature", kernel=kernel).value)
    scale = 1.0 if data.normalized else data.sigma
    results = []
    for s in range(n):
        phi = net.phi[s]
        counts = [n / len(phi)] * len(phi)
        cents, fused_counts = fuse(phi, counts, r, wald_cfg)
        label = int(classify(pts[s : s + 1], cents)[0])
        results.append(
            ClusteringResult(
                centroids=cents * scale,
                assignments=np.array([label]),
                support_counts=np.rint(fused_counts).astype(int),
                k_hat=len(cents),
            )
        )
    return results, log
