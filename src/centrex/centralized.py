"""Centralized CENTREx pipeline.

Centroids are recovered one after the other by iterating a weighted-average
fixed-point map over the whole dataset, marking the points a norm test
attributes to the fresh centroid, fusing duplicate estimates, and finally
classifying every point to its nearest centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .statfn import KernelSpec, r_squared, threshold_mu, weight
from .wald import WaldConfig, fusion_sigma

__all__ = [
    "Dataset",
    "ClusteringResult",
    "h_map",
    "fixed_point",
    "mark",
    "fuse",
    "classify",
    "distortion",
    "run_centrex",
    "sigma_lim",
]


@dataclass
class Dataset:
    """N measurement vectors of dimension d with known noise std sigma.

    Points are stored in raw measurement units unless `normalized` is set, in
    which case every coordinate has already been divided by sigma so that the
    model covariance is the identity.
    """

    points: np.ndarray
    sigma: float
    normalized: bool = False
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, d) array")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (self.points.shape[0],):
                raise ValueError("labels must have one entry per point")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def normalized_points(self) -> np.ndarray:
        if self.normalized:
            return self.points
        if self.sigma == 0:
            raise ValueError("cannot normalize a noiseless dataset")
        return self.points / self.sigma


@dataclass
class ClusteringResult:
    """Estimated centroids (raw units), per-point assignments and supports.

    run_centrex fills the per-centroid lists in the order the centroids were
    estimated, before fusion; converged_per_centroid is False where the
    estimate stopped at the iteration cap rather than at a fixed point.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    support_counts: np.ndarray
    k_hat: int
    iterations_per_centroid: list = field(default_factory=list)
    converged_per_centroid: list = field(default_factory=list)


def h_map(points: np.ndarray, kernel: KernelSpec, x) -> np.ndarray:
    """Weighted mean of all points with weights kernel(||y - x||^2)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a nonempty (N, d) array")
    x = np.asarray(x, dtype=float)
    diffs = points - x
    u = np.sum(diffs * diffs, axis=1)
    w = np.atleast_1d(weight(kernel, u))
    total = np.sum(w)
    if total <= 0.0:
        # All weights underflowed; the ratio's limit is carried by the
        # nearest points since the kernel is decreasing.
        nearest = u == u.min()
        return points[nearest].mean(axis=0)
    return np.asarray(points.T @ w / total, dtype=float)


def fixed_point(points, kernel: KernelSpec, init, epsilon: float, max_iter: int = 100):
    """Iterate x <- h_map(x) from init until the step norm is <= epsilon.

    Returns (centroid, iterations, converged).  On convergence the returned
    point x satisfies ||h_map(x) - x|| <= epsilon; if max_iter is hit the last
    iterate is returned with converged = False.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = np.asarray(init, dtype=float).copy()
    for it in range(1, max_iter + 1):
        nx = h_map(points, kernel, x)
        if np.linalg.norm(nx - x) <= epsilon:
            return x, it, True
        x = nx
    return x, max_iter, False


def mark(points, centroid, marking_cfg: WaldConfig) -> np.ndarray:
    """Indices of the points whose distance to the centroid passes the test."""
    points = np.asarray(points, dtype=float)
    if points.shape[1] != marking_cfg.d:
        raise ValueError("marking test dimension does not match the data")
    dist = np.linalg.norm(points - np.asarray(centroid, dtype=float), axis=1)
    return np.flatnonzero(dist <= marking_cfg.threshold)


def fuse(centroids, support_counts, r: float, wald_cfg: WaldConfig):
    """Merge centroid estimates that a pairwise norm test declares identical.

    A pair is identical when its distance is at most wald_cfg.threshold times
    the fusion_sigma of its two supports.

    Pairs (k1 < k2) are scanned in lexicographic order; a merge replaces k1 by
    the midpoint, removes k2, sums the two supports, and restarts the scan.
    Terminates since every merge shortens the list.
    """
    cents = [np.asarray(c, dtype=float) for c in centroids]
    counts = [float(c) for c in support_counts]
    if not cents:
        raise ValueError("centroid list must be nonempty")
    if any(c <= 0 for c in counts):
        raise ValueError("support counts must be positive")
    mu = wald_cfg.threshold
    merged = True
    while merged:
        merged = False
        for k1 in range(len(cents)):
            for k2 in range(k1 + 1, len(cents)):
                thr = fusion_sigma(r, counts[k1], counts[k2]) * mu
                if np.linalg.norm(cents[k1] - cents[k2]) <= thr:
                    cents[k1] = 0.5 * (cents[k1] + cents[k2])
                    counts[k1] += counts[k2]
                    del cents[k2], counts[k2]
                    merged = True
                    break
            if merged:
                break
    return np.asarray(cents), np.asarray(counts)


def classify(points, centroids) -> np.ndarray:
    """Nearest-centroid assignment; ties go to the lowest centroid index.

    Centroids are (K, d), or (R, K, d) for R centroid sets at once; row r of
    the (R, N) result is then classify(points, centroids[r]), bit for bit.
    """
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    if centroids.ndim not in (2, 3) or centroids.shape[-2] == 0:
        raise ValueError("centroid list must be nonempty")
    d2 = np.sum((points[:, None, :] - centroids[..., None, :, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=-1)


def distortion(points_raw, centroids, assignments) -> float:
    """Mean distance to the assigned centroid, raw units."""
    points_raw = np.asarray(points_raw, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    dists = np.linalg.norm(points_raw - centroids[np.asarray(assignments)], axis=1)
    return float(np.mean(dists))


def run_centrex(
    data: Dataset,
    gamma: float = 1e-3,
    epsilon: float = 1e-2,
    kernel: KernelSpec | None = None,
    seed: int | None = 0,
    max_iter: int = 100,
) -> ClusteringResult:
    """Full centralized pipeline on one dataset.

    The data are normalized by sigma, centroids estimated until every point is
    marked, duplicates fused using supports taken from the marked-set sizes,
    and all points classified.  Output centroids are de-normalized back to raw
    units.  Runs are reproducible for a given seed.
    """
    pts = data.normalized_points()
    n, d = pts.shape
    if kernel is None:
        kernel = KernelSpec("wald", d)
    rng = np.random.default_rng(seed)
    wald_cfg = WaldConfig(d=d, gamma=gamma)

    marked = np.zeros(n, dtype=bool)
    centroids = []
    marked_sets = []
    iters_per = []
    converged_per = []
    while not marked.all():
        candidates = np.flatnonzero(~marked)
        start = int(rng.choice(candidates))
        theta, iters, converged = fixed_point(pts, kernel, pts[start], epsilon, max_iter)
        mk = mark(pts, theta, wald_cfg)
        marked[mk] = True
        marked[start] = True
        centroids.append(theta)
        marked_sets.append(set(mk.tolist()) | {start})
        iters_per.append(iters)
        converged_per.append(converged)

    counts = [len(s) for s in marked_sets]
    r = math.sqrt(r_squared(d, method="quadrature", kernel=kernel).value)
    fused_cents, fused_counts = fuse(centroids, counts, r, wald_cfg)
    assignments = classify(pts, fused_cents)
    scale = 1.0 if data.normalized else data.sigma
    return ClusteringResult(
        centroids=fused_cents * scale,
        assignments=assignments,
        support_counts=np.rint(fused_counts).astype(int),
        k_hat=len(fused_cents),
        iterations_per_centroid=iters_per,
        converged_per_centroid=converged_per,
    )


def sigma_lim(true_centroids, gamma: float, d: int) -> float:
    """Noise level above which the closest pair of clusters stops separating."""
    cents = np.asarray(true_centroids, dtype=float)
    if cents.ndim != 2 or cents.shape[0] < 2:
        raise ValueError("need at least two centroids")
    mu = threshold_mu(d, gamma)
    dmin = np.inf
    for i in range(len(cents)):
        for j in range(i + 1, len(cents)):
            dmin = min(dmin, float(np.linalg.norm(cents[i] - cents[j])))
    return dmin / mu
