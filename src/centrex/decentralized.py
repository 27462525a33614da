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

from .centralized import ClusteringResult, Dataset, classify, fuse, mark, sq_dist
from .statfn import KernelSpec, WaldConfig, r_squared, weight

__all__ = [
    "NetworkConfig",
    "SensorNetwork",
    "RoundLog",
    "init_round",
    "slot_step",
    "run_decentrex",
]

# Bytes allowed for one block of a round's push targets: a whole round of
# the dim2k4 gossip run (T = 300, n = 400, fanout 1) is 960 000.
BUDGET = 1 << 20


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
    counts the own-observation contributions aggregated in (P, Q), and a marked
    flag.

    The accumulators are one (n, d+2) row per sensor, state = [P | Q | c], so
    a slot copies, resets and adds one array; P, Q and c are views of it.  The
    counter c is a float, exact while it stays below 2**53 (it is at most
    n * (T + 1)).

    The own contribution own = [w * y | w | 1], w = kernel(||y - estimate||^2),
    is kept as long as the estimate does not move; own_P and own_Q are views
    of it.  Only init_round and slot_step may write estimate, and each
    refreshes the own contribution of the sensors it moved; any other writer
    would leave it stale.
    """

    def __init__(self, points: np.ndarray, kernel: KernelSpec):
        self.y = np.asarray(points, dtype=float)
        self.n, self.d = self.y.shape
        self.kernel = kernel
        self.estimate = np.zeros_like(self.y)
        d = self.d
        self.state = np.zeros((self.n, d + 2))
        self.P, self.Q, self.c = self.state[:, :d], self.state[:, d], self.state[:, d + 1]
        self.own = np.zeros((self.n, d + 2))
        self.own[:, d + 1] = 1.0
        self.own_P, self.own_Q = self.own[:, :d], self.own[:, d]
        # Column of each entry of the flattened state.
        self.lane = np.tile(np.arange(d + 2), self.n)
        self.marked = np.zeros(self.n, dtype=bool)

    def fresh_contribution(self, idx=None):
        """Own-observation contribution (P, Q) evaluated at the current estimate."""
        if idx is None:
            idx = slice(None)
        y = self.y[idx]
        w = weight(self.kernel, sq_dist(y, self.estimate[idx]))
        return w[:, None] * y, w

    def refresh_own(self, idx=None):
        """Re-evaluate the own contribution of sensors whose estimate moved."""
        if idx is None:
            idx = slice(None)
        self.own_P[idx], self.own_Q[idx] = self.fresh_contribution(idx)


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
    net.state[:] = net.own
    return chosen


def _target_blocks(n: int, fanout: int, slots: int, rng: np.random.Generator):
    """Yield (b, n, fanout) push targets for `slots` slots, b slots at a time.

    Entry [s, i] holds the `fanout` distinct targets of sender i in slot s,
    none equal to i.  A block holds as many slots as fit BUDGET bytes (at
    least one), and the draws are those of one slot after another: fanout 1
    takes one rng.integers call per block, which PCG64 answers with the same
    integers and leaves in the same state as one call per slot.
    """
    per_block = max(1, BUDGET // (8 * n * fanout))
    sender = np.arange(n)
    for start in range(0, slots, per_block):
        b = min(per_block, slots - start)
        if fanout == 1:
            block = rng.integers(0, n - 1, size=(b, n))[:, :, None]
        else:
            block = np.empty((b, n, fanout), dtype=np.int64)
            for s in range(b):
                for i in range(n):
                    block[s, i] = rng.choice(n - 1, size=fanout, replace=False)
        block += block >= sender[:, None]
        yield block


def slot_step(net: SensorNetwork, config: NetworkConfig, targets: np.ndarray):
    """One synchronous time slot with (n, fanout) push targets.

    Every sensor pushes its accumulator snapshot to its `fanout` targets
    and keeps only a fresh own contribution; receivers add incoming sums
    termwise, in sender order.  All receptions are applied before any update
    check; sensors whose counter reaches L then set estimate = P/Q and reset.
    A sensor whose weights all underflowed (Q = 0) keeps its estimate and
    still resets.

    Returns (messages_sent, updated_mask).
    """
    n, fanout = targets.shape
    width = net.d + 2
    snap = net.state.ravel().copy()
    net.state[:] = net.own
    flat = net.state.ravel()
    for f in range(fanout):
        np.add.at(flat, np.repeat(targets[:, f] * width, width) + net.lane, snap)
    updated = net.c >= config.L
    idx = np.flatnonzero(updated)
    if idx.size:
        moved = idx[net.Q[idx] > 0]
        net.estimate[moved] = net.P[moved] / net.Q[moved, None]
        net.refresh_own(moved)
        net.state[idx] = net.own[idx]
    return n * fanout, updated


def run_decentrex(data: Dataset, config: NetworkConfig, gamma: float = 1e-3):
    """Run the full decentralized protocol on one dataset.

    Returns (results, log) where results[n] is the local ClusteringResult of
    sensor n (its centroid list after local fusion, and the assignment of its
    own observation only) and log aggregates message and round counts.
    Deterministic for a given (data, config).  Sensor s's centroid list is
    row s of the estimates taken at the end of each round.
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
    rounds = []

    while not net.marked.all():
        chosen = init_round(net, rng)
        for block in _target_blocks(n, config.fanout, config.T, rng):
            for targets in block:
                sent, _ = slot_step(net, config, targets)
                log.messages_sent += sent
        rounds.append(net.estimate.copy())
        net.marked[mark(net.y, net.estimate, wald_cfg)] = True
        net.marked[chosen] = True
        log.rounds += 1

    # Local fusion: sensors cannot observe per-cluster supports, so each one
    # uses the network-wide surrogate N / (number of rounds).
    r = math.sqrt(r_squared(kernel))
    counts = [n / len(rounds)] * len(rounds)
    results = []
    for s in range(n):
        cents, fused_counts = fuse([est[s] for est in rounds], counts, r, wald_cfg)
        label = int(classify(pts[s : s + 1], cents)[0])
        results.append(
            ClusteringResult(
                centroids=cents * data.sigma,
                assignments=np.array([label]),
                support_counts=np.rint(fused_counts).astype(int),
                k_hat=len(cents),
            )
        )
    return results, log
