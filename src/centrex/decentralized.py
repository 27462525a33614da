"""Slot-synchronous simulator of the decentralized DeCENTREx protocol.

Each sensor holds one observation and a push-sum state [P | Q] shared over
perfect links.  A round of T slots estimates one centroid network-wide in
epochs of L slots, each a fixed-point step of h_map, and each sensor marks its
own observation.  Rounds run in CENTREx's loop, centralized.recover, which
draws each round's start among the unmarked sensors, owns the marks and
records each round's epochs and whether every sensor took P/Q at its end.
A round's push targets are drawn in blocks and written once per block as flat
indices into the sensors' lane-major state, so a slot is one np.add.at per
fanout column.  At the end each sensor fuses and labels locally; sensors that
take the same merges share one fuse scan and one nearest-centroid argmin.
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
    """Vectorized state of all sensors: observation y, estimate and push-sum
    state [P | Q]; `slot` counts the slots of the current round.  The states
    are one lane-major (d+1)·n buffer `flat`, entry c·n + i holding column c
    of sensor i; `state` is its (n, d+1) view and P and Q are views of that.
    `no_update` is the read-only all-False mask of a slot that ends no epoch.
    """

    def __init__(self, points: np.ndarray, kernel: KernelSpec):
        self.y = np.asarray(points, dtype=float)
        self.n, self.d = self.y.shape
        self.kernel = kernel
        self.estimate = np.zeros_like(self.y)
        self.flat = np.zeros((self.d + 1) * self.n)
        self.state = self.flat.reshape(self.d + 1, self.n).T
        self.P, self.Q = self.state[:, : self.d], self.state[:, self.d]
        self.no_update = np.broadcast_to(False, self.n)
        self.slot = 0

    def restart(self):
        """Set each state to its own contribution [w * y | w] at the estimate."""
        self.Q[:] = weight(self.kernel, sq_dist(self.y, self.estimate))
        self.P[:] = self.Q[:, None] * self.y


def init_round(net: SensorNetwork, chosen: int):
    """Broadcast the observation of sensor `chosen` to start a round.

    Every sensor sets its estimate to the broadcast vector and restarts its
    state from its own contribution there; the slot count restarts at 0.
    """
    net.estimate[:] = net.y[chosen]
    net.restart()
    net.slot = 0


def _target_blocks(n: int, fanout: int, slots: int, per_block: int, rng: np.random.Generator):
    """Yield (b, n, fanout) push targets for `slots` slots, `per_block` at a time.

    Entry [s, i] holds the `fanout` distinct targets of sender i in slot s,
    none equal to i.  The draws are those of one slot after another: fanout 1
    takes one rng.integers call per block, which PCG64 answers as it would one
    call per slot.  Fanout f > 1 is Floyd's sampling (CACM 1987) for all
    senders at once: column k draws from [0, j], j = n - 1 - f + k, and takes
    j if the draw is taken.
    """
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


def slot_step(net: SensorNetwork, config: NetworkConfig, rows: np.ndarray):
    """One synchronous push-sum slot on (fanout, (d+1)·n) flat push rows.

    Row k holds, in lane then sender order, the entry c·n + t of net.flat that
    receives column c of sender i's share, t being i's k-th target.  Every
    sensor keeps 1/(fanout + 1) of its state and pushes that share to each
    target, one np.add.at per row, so receivers add shares in sender order.
    This conserves the total, so within an epoch every P/Q tends to
    sum P / sum Q, which is h_map at the epoch's estimates.  At every L-th
    slot of the round and at slot T, sensors with Q > 0 set estimate = P/Q
    (one whose weights all underflowed keeps its estimate) and all restart
    from their own contribution.

    Returns (messages_sent, updated_mask), the mask marking who set estimate;
    a slot that ends no epoch returns net.no_update.
    """
    net.flat /= len(rows) + 1
    share = net.flat.copy()
    for row in rows:
        np.add.at(net.flat, row, share)
    net.slot += 1
    if net.slot % config.L and net.slot != config.T:
        return net.n * len(rows), net.no_update
    updated = net.Q > 0
    net.estimate[updated] = net.P[updated] / net.Q[updated, None]
    net.restart()
    return net.n * len(rows), updated


def run_decentrex(data: Dataset, config: NetworkConfig, gamma: float = 1e-3):
    """Run the full decentralized protocol on one dataset.

    Returns (results, messages): results[s] is sensor s's ClusteringResult
    (its centroids after local fusion, the label of its own observation, and
    per round the epochs, ceil(T / L), and whether every sensor took P/Q at
    its end), messages the number of pushes, n·fanout in each of a round's T
    slots.  Deterministic for a given (data, config).  Sensor s's centroids
    are row s of the round estimates, all fused by one fuse call; its label is
    classify's, from one sq_dist argmin per group of sensors that took the
    same merges, which share their supports.
    """
    pts = data.normalized_points()
    n, d = pts.shape
    if n != config.n_sensors:
        raise ValueError("config.n_sensors must match the dataset size")
    kernel = KernelSpec("wald", d)
    rng = np.random.default_rng(config.seed)
    wald_cfg = WaldConfig(d=d, gamma=gamma)
    net = SensorNetwork(pts, kernel)
    # Flat push rows of as many slots as fit BUDGET (at least one); lane offsets.
    per_block = min(config.T, max(1, BUDGET // (8 * config.fanout * net.flat.size)))
    flat_rows = np.empty((per_block, config.fanout, net.flat.size), dtype=np.int64)
    lanes = np.repeat(np.arange(0, net.flat.size, n), n)

    def estimate(chosen):
        init_round(net, chosen)
        for block in _target_blocks(n, config.fanout, config.T, per_block, rng):
            rows = flat_rows[: len(block)]
            rows.reshape(len(block), config.fanout, d + 1, n)[:] = block.transpose(0, 2, 1)[:, :, None]
            rows += lanes
            for slot_rows in rows:
                _, updated = slot_step(net, config, slot_rows)
        return net.estimate.copy(), math.ceil(config.T / config.L), bool(updated.all())

    rounds, _, iters, converged = recover(pts, wald_cfg, rng, estimate)

    # Local fusion: sensors cannot observe per-cluster supports, so each one
    # uses the network-wide surrogate N / (number of rounds).
    r = math.sqrt(r_squared(kernel))
    results = [None] * n
    for rows, cents, fused_counts in fuse(rounds, [n / len(rounds)] * len(rounds), r, wald_cfg):
        labels = np.argmin(sq_dist(pts[rows][:, None, :], cents), axis=-1)[:, None]
        supports = np.rint(fused_counts).astype(int)
        for s, sensor_cents, label in zip(np.arange(n)[rows], cents * data.sigma, labels):
            results[s] = ClusteringResult(
                centroids=sensor_cents,
                assignments=label,
                support_counts=supports,
                k_hat=len(fused_counts),
                iterations_per_centroid=list(iters),
                converged_per_centroid=list(converged),
            )
    return results, len(rounds) * config.T * n * config.fanout
