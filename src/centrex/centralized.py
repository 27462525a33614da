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

from .statfn import KernelSpec, WaldConfig, fusion_sigma, r_squared, threshold_mu, weight

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
    """N measurement vectors of dimension d with known noise std sigma, in raw
    measurement units; dividing by sigma makes the model covariance the identity.

    Points enter the library here and are checked here, once: the stages that
    use them (h_map, mark, fuse, classify, ...) do not check them again.
    """

    points: np.ndarray
    sigma: float
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, d) array")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and nonnegative")
        # The pipelines work on the points raw or divided by sigma, both bounded
        # by the points divided by min(sigma, 1).  Squared distances to estimates
        # in their convex hull, and sums of N of them, are at most N squared
        # bounding-box diagonals; a gossip accumulator adds fewer than N^2 points.
        with np.errstate(over="ignore"):
            scale = self.sigma if 0 < self.sigma < 1 else 1.0
            span = np.ptp(self.points, axis=0) / scale
            reach = max(self.points.max(), -self.points.min()) / scale
            bound = self.n * np.sum(span**2) + self.n**2 * reach
        if not np.isfinite(bound):
            raise ValueError("squared distances or sums of the points overflow float64")
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


def sq_dist(a, b) -> np.ndarray:
    """Squared distance ||a - b||^2 along the last axis, broadcast over the rest.

    Below 8 coordinates numpy sums the last axis left to right, so adding the
    squares one coordinate at a time gives the same bits as
    np.sum((a - b) ** 2, axis=-1) without building the (..., d) difference.
    From 8 on numpy sums pairwise, and only np.sum itself matches it.
    """
    d = np.shape(a)[-1]
    if d >= 8:
        return np.sum((a - b) ** 2, axis=-1)
    acc = (a[..., 0] - b[..., 0]) ** 2
    for j in range(1, d):
        acc += (a[..., j] - b[..., j]) ** 2
    return acc


def h_map(points: np.ndarray, kernel: KernelSpec, x: np.ndarray) -> np.ndarray:
    """Weighted mean of all points with weights kernel(||y - x||^2).

    Takes validated input: a Dataset's nonempty (N, d) points and a (d,) x.
    """
    u = sq_dist(points, x)
    w = weight(kernel, u)
    total = np.sum(w)
    if total <= 0.0:
        # All weights underflowed; the ratio's limit is carried by the
        # nearest points since the kernel is decreasing.
        nearest = u == u.min()
        return points[nearest].mean(axis=0)
    return points.T @ w / total


def fixed_point(points, kernel: KernelSpec, init, epsilon: float, max_iter: int = 100):
    """Iterate x <- h_map(x) from init until the step norm is <= epsilon.

    Returns (centroid, iterations, converged).  On convergence the returned
    point x satisfies ||h_map(x) - x|| <= epsilon; if max_iter is hit the last
    iterate is returned with converged = False.  Takes validated input, as
    h_map does, and epsilon > 0.
    """
    x = np.array(init, dtype=float)
    for it in range(1, max_iter + 1):
        nx = h_map(points, kernel, x)
        if np.linalg.norm(nx - x) <= epsilon:
            return x, it, True
        x = nx
    return x, max_iter, False


def mark(points, centroid, marking_cfg: WaldConfig) -> np.ndarray:
    """Indices of the points whose distance to the centroid passes the test.

    Takes validated input: (N, d) points, a (d,) centroid, a test of dimension d.
    """
    dist = np.sqrt(sq_dist(points, centroid))
    return np.flatnonzero(dist <= marking_cfg.threshold)


def fuse(centroids, support_counts, r: float, wald_cfg: WaldConfig):
    """Merge centroid estimates that a pairwise norm test declares identical.

    A pair is identical when its distance is at most wald_cfg.threshold times
    the fusion_sigma of its two supports.

    Pairs (k1 < k2) are scanned in lexicographic order; a merge replaces k1 by
    the midpoint, removes k2, sums the two supports, and restarts the scan.
    Terminates since every merge shortens the list.  Takes validated input:
    a nonempty sequence of (d,) arrays with positive supports, and r > 0.
    """
    cents, counts = list(centroids), list(support_counts)
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
    Takes validated input: (N, d) points and at least one centroid per set.
    """
    return np.argmin(sq_dist(points[:, None, :], centroids[..., None, :, :]), axis=-1)


def distortion(points_raw, centroids, assignments) -> float:
    """Mean distance to the assigned centroid, raw units.

    Takes validated input: (N, d) points, (K, d) centroids and N indices into them.
    """
    dists = np.sqrt(sq_dist(points_raw, centroids[assignments]))
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
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pts = data.normalized_points()
    n, d = pts.shape
    if kernel is None:
        kernel = KernelSpec("wald", d)
    if kernel.d != d:
        raise ValueError(f"kernel dimension {kernel.d} does not match the data's {d}")
    rng = np.random.default_rng(seed)
    wald_cfg = WaldConfig(d=d, gamma=gamma)

    marked = np.zeros(n, dtype=bool)
    centroids = []
    counts = []
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
        counts.append(len(mk) + int(start not in mk))
        iters_per.append(iters)
        converged_per.append(converged)

    r = math.sqrt(r_squared(kernel))
    fused_cents, fused_counts = fuse(centroids, counts, r, wald_cfg)
    assignments = classify(pts, fused_cents)
    return ClusteringResult(
        centroids=fused_cents * data.sigma,
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
