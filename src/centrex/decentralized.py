"""Slot-synchronous simulator of the decentralized DeCENTREx protocol.

Each sensor holds one observation and a push-sum state [P | Q] shared over
perfect links.  A round of T slots estimates one centroid network-wide in
epochs of L slots, each a fixed-point step of h_map, and each sensor marks its
own observation.  Rounds run in CENTREx's loop, centralized.recover, which
records each round's epochs and whether every sensor took P/Q at its end.
At the end each sensor fuses and labels locally; sensors that take the same
merges share one fuse scan and one nearest-centroid argmin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centralized import BUDGET, ClusteringResult, Dataset, fuse, recover, sq_dist
from .centralized import classify  # noqa: F401  (benchmarks/tracer.py traces decentralized.classify)
from .statfn import KernelSpec, WaldConfig, r_squared, weight

__all__ = [
    "NetworkConfig",
    "SensorNetwork",
    "init_round",
    "slot_step",
    "run_decentrex",
]


@dataclass(frozen=True)
class NetworkConfig:
    """Protocol parameters: slots per round T, slots per epoch L, push fanout."""

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
        if self.L < 1:
            raise ValueError("L must be positive")
        if not 1 <= self.fanout <= self.n_sensors - 1:
            raise ValueError("fanout must lie in [1, n_sensors - 1]")


class SensorNetwork:
    """Vectorized state of all sensors: observation y, estimate, push-sum
    state [P | Q] as one (n, d+1) row per sensor (P and Q are views of it) and
    a marked flag; `slot` counts the slots of the current round.
    """

    def __init__(self, points: np.ndarray, kernel: KernelSpec):
        self.y = np.asarray(points, dtype=float)
        self.n, self.d = self.y.shape
        self.kernel = kernel
        self.estimate = np.zeros_like(self.y)
        self.state = np.zeros((self.n, self.d + 1))
        self.P, self.Q = self.state[:, : self.d], self.state[:, self.d]
        # Column of each entry of the flattened state.
        self.lane = np.tile(np.arange(self.d + 1), self.n)
        self.marked = np.zeros(self.n, dtype=bool)
        self.slot = 0

    def restart(self):
        """Set each state to its own contribution [w * y | w] at the estimate."""
        self.Q[:] = weight(self.kernel, sq_dist(self.y, self.estimate))
        self.P[:] = self.Q[:, None] * self.y


def init_round(net: SensorNetwork, rng: np.random.Generator) -> int:
    """Broadcast the observation of a uniformly chosen unmarked sensor.

    Every sensor sets its estimate to the broadcast vector and restarts its
    state from its own contribution there.  Returns the chosen index.
    """
    unmarked = np.flatnonzero(~net.marked)
    if unmarked.size == 0:
        raise RuntimeError("cannot start a round: all sensors are marked")
    chosen = int(rng.choice(unmarked))
    net.estimate[:] = net.y[chosen]
    net.restart()
    net.slot = 0
    return chosen


def _target_blocks(n: int, fanout: int, slots: int, rng: np.random.Generator):
    """Yield (b, n, fanout) push targets for `slots` slots, b slots at a time.

    Entry [s, i] holds the `fanout` distinct targets of sender i in slot s,
    none equal to i.  A block holds as many slots as fit BUDGET bytes (at
    least one), and the draws are those of one slot after another: fanout 1
    takes one rng.integers call per block, which PCG64 answers as it would one
    call per slot.  Fanout f > 1 is Floyd's sampling (CACM 1987) for all
    senders at once: column k draws from [0, j], j = n - 1 - f + k, and takes
    j if the draw is taken.
    """
    per_block = max(1, BUDGET // (8 * n * fanout))
    for start in range(0, slots, per_block):
        b = min(per_block, slots - start)
        if fanout == 1:
            block = rng.integers(0, n - 1, size=(b, n))[:, :, None]
        else:
            block = np.empty((b, n, fanout), dtype=np.int64)
            for picks in block:
                for k, j in enumerate(range(n - 1 - fanout, n - 1)):
                    t = rng.integers(0, j + 1, size=n)
                    picks[:, k] = np.where((picks[:, :k] == t[:, None]).any(axis=1), j, t)
        block += block >= np.arange(n)[:, None]
        yield block


def slot_step(net: SensorNetwork, config: NetworkConfig, targets: np.ndarray):
    """One synchronous push-sum slot with (n, fanout) push targets.

    Every sensor keeps 1/(fanout + 1) of its state and pushes that share to
    each target; receivers add shares in sender order.  This conserves the
    total, so within an epoch every P/Q tends to sum P / sum Q, which is h_map
    at the epoch's estimates.  At every L-th slot of the round and at slot T,
    sensors with Q > 0 set estimate = P/Q (one whose weights all underflowed
    keeps its estimate) and all restart from their own contribution.

    Returns (messages_sent, updated_mask), the mask marking who set estimate.
    """
    n, fanout = targets.shape
    width = net.d + 1
    net.state /= fanout + 1
    share = net.state.ravel().copy()
    for t in targets.T:
        np.add.at(net.state.ravel(), np.repeat(t * width, width) + net.lane, share)
    net.slot += 1
    updated = np.zeros(n, dtype=bool)
    if net.slot % config.L == 0 or net.slot == config.T:
        updated = net.Q > 0
        net.estimate[updated] = net.P[updated] / net.Q[updated, None]
        net.restart()
    return n * fanout, updated


def run_decentrex(data: Dataset, config: NetworkConfig, gamma: float = 1e-3):
    """Run the full decentralized protocol on one dataset.

    Returns (results, messages): results[s] is sensor s's ClusteringResult
    (its centroids after local fusion, the label of its own observation, and
    per round the epochs, ceil(T / L), and whether every sensor took P/Q at
    its end), messages the sum of slot_step's counts.  Deterministic for a
    given (data, config).  Sensor s's centroids are row s of the round estimates,
    all fused by one fuse call; its label is classify's, from one sq_dist argmin.
    """
    pts = data.normalized_points()
    n, d = pts.shape
    if n != config.n_sensors:
        raise ValueError("config.n_sensors must match the dataset size")
    kernel = KernelSpec("wald", d)
    rng = np.random.default_rng(config.seed)
    wald_cfg = WaldConfig(d=d, gamma=gamma)
    net = SensorNetwork(pts, kernel)
    messages = 0

    def estimate():
        nonlocal messages
        chosen = init_round(net, rng)
        for block in _target_blocks(n, config.fanout, config.T, rng):
            for targets in block:
                sent, updated = slot_step(net, config, targets)
                messages += sent
        return chosen, net.estimate.copy(), math.ceil(config.T / config.L), bool(updated.all())

    rounds, _, iters, converged = recover(pts, net.marked, wald_cfg, estimate)

    # Local fusion: sensors cannot observe per-cluster supports, so each one
    # uses the network-wide surrogate N / (number of rounds).
    r = math.sqrt(r_squared(kernel))
    results = [None] * n
    for rows, cents, fused_counts in fuse(rounds, [n / len(rounds)] * len(rounds), r, wald_cfg):
        labels = np.argmin(sq_dist(pts[rows][:, None, :], cents), axis=-1)
        for s, sensor_cents, label in zip(np.arange(n)[rows], cents * data.sigma, labels):
            results[s] = ClusteringResult(
                centroids=sensor_cents,
                assignments=np.array([label]),
                support_counts=np.rint(fused_counts).astype(int),
                k_hat=len(fused_counts),
                iterations_per_centroid=list(iters),
                converged_per_centroid=list(converged),
            )
    return results, messages
