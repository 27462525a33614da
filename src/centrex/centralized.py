"""Centralized CENTREx pipeline.

Centroids are recovered one after the other by iterating a weighted-average
fixed-point map over the whole dataset, marking the points a norm test
attributes to the fresh centroid, fusing duplicate estimates, and finally
classifying every point to its nearest centroid.
"""

from __future__ import annotations

import itertools
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
    "recover",
    "fuse",
    "classify",
    "distortion",
    "run_centrex",
    "sigma_lim",
]

# Bytes allowed for one block of temporaries: classify's blocks of centroid
# sets and of fallback distances, and decentralized's flat push indices,
# fanout (d + 1) n int64 per slot (dim2k4, n = 400, fanout 1: 9 600 bytes, so
# 109 slots per block; 12 slots at d = 100, n = 100).
BUDGET = 1 << 20
TINY = np.finfo(float).tiny  # smallest normal float64, 2^-1022


@dataclass
class Dataset:
    """N measurement vectors of dimension d with known noise std sigma, in raw
    measurement units; dividing by sigma makes the model covariance the identity.

    Points enter the library here and are checked here, once: the stages that
    use them (h_map, mark, fuse, classify, ...) do not check them again.
    Coordinates are at most 2^470 in magnitude, and 2^52 sigma when sigma > 0.
    """

    points: np.ndarray
    sigma: float
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or min(self.points.shape) < 1:
            raise ValueError("points must be a nonempty (N, d) array")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if not 0 <= self.sigma < np.inf:
            raise ValueError("sigma must be finite and nonnegative")
        # K-means uses the raw points, the rest the points over sigma (at most
        # 2^52).  A squared difference is at most 2^942, so sums of N d < 2^78
        # of them stay below 2^1020.  Above 2^52 sigma an ulp is over sigma / 2:
        # ten identical 7-d points at sigma = 1 gave DeCENTREx (T = 300, L = 30)
        # one cluster at 4.5e15 and two to four at 1e16.
        reach = np.abs(self.points).max()
        if reach > 2.0**470:
            raise ValueError("squared distances or sums of the points overflow float64")
        if reach > 2.0**52 * float(self.sigma) > 0:
            raise ValueError("above 2^52 sigma one ulp of a point is as large as the noise: subtract a common offset")
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

    Both pipelines fill the per-centroid lists in estimation order, before
    fusion: run_centrex with fixed_point's iterations and flags, run_decentrex
    with each round's ceil(T / L) epochs and whether every sensor took P/Q.

    run_centrex's support_counts are fused sums of recover's per-pass
    supports, which count points marked by an earlier pass again: a cluster
    estimated twice counts twice, and the supports can sum above N (32 of 50
    dim2k4 trials at N = 400, sigma = 1.5).  run_decentrex's are fused sums
    of the surrogate N / rounds.
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
    if total < TINY:
        # Only subnormal weights, whose products with the points keep too
        # few bits: at u/4 in (744, 745), 25 points near (54.57, 0.03) came
        # back as (55, 0).  The ratio is scale-free, and scaling by 2^600 is
        # exact and brings every weight into the normal range.
        w = w * 2.0**600
        total = np.sum(w)
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


def recover(points, wald_cfg: WaldConfig, rng: np.random.Generator, estimate):
    """Recover centroids until every point is marked: each pass draws its
    start uniformly among the unmarked points, calls estimate(start) for
    (theta, iterations, converged), theta being one (d,) centroid or one (n, d)
    row per sensor, and marks the start and what mark attributes to theta.
    Returns the lists (thetas, supports, iterations, flags); a support counts
    the start and every point mark attributes to theta, marked before or not."""
    marked = np.zeros(len(points), dtype=bool)
    passes = []
    while not marked.all():
        start = int(rng.choice(np.flatnonzero(~marked)))
        theta, iters, converged = estimate(start)
        mk = mark(points, theta, wald_cfg)
        marked[mk] = marked[start] = True
        passes.append((theta, len(mk) + int(start not in mk), iters, converged))
    return tuple(map(list, zip(*passes)))


def fuse(centroids, support_counts, r: float, wald_cfg: WaldConfig):
    """Merge centroid estimates that a pairwise norm test declares identical.

    A pair is identical when its distance is at most wald_cfg.threshold times
    the fusion_sigma of its two supports.  Pairs (k1 < k2) are scanned in
    lexicographic order; a merge replaces k1 by the midpoint, removes k2, sums
    the two supports, and restarts the scan.  Terminates since every merge
    shortens the list.

    The estimates are all (d,) centroids (CENTREx) or all (n, d) blocks, row s
    being sensor s's (DeCENTREx).  One scan serves all rows: rows that took the
    same merges have the same supports, hence one threshold per pair.  Where a
    pair passes on some rows only, those rows merge and restart, and the rest
    go on to the next pair.  Midpoints are written into the estimates in place,
    and the pair distance is np.linalg.norm's dot product row by row, so each
    row gets the bits of a scan of its own list.  Takes validated input: a
    nonempty sequence of estimates with positive supports, and r > 0.

    Returns [(rows, cents, counts)], a group per merge history: `rows` indexes
    its rows (... for all), `cents` is (K', d), or (m, K', d) for m rows, and
    `counts` the (K',) supports.
    """
    mu, groups = wald_cfg.threshold, []
    todo = [(..., list(range(len(centroids))), list(support_counts))]
    while todo:
        rows, keep, counts = todo.pop()
        for k1, k2 in itertools.combinations(range(len(keep)), 2):
            a, b = centroids[keep[k1]], centroids[keep[k2]]
            diff = a[rows] - b[rows]
            near = np.sqrt(np.vecdot(diff, diff)) <= fusion_sigma(r, counts[k1], counts[k2]) * mu
            if hits := np.count_nonzero(near):
                merged = rows if hits == near.size else np.arange(len(a))[rows][near]
                a[merged] = 0.5 * (a[merged] + b[merged])
                merged_counts = counts[:k2] + counts[k2 + 1 :]
                merged_counts[k1] += counts[k2]
                todo.append((merged, keep[:k2] + keep[k2 + 1 :], merged_counts))
                if merged is rows:
                    break
                rows = np.arange(len(a))[rows][~near]
        else:
            groups.append((rows, np.stack([centroids[k][rows] for k in keep], axis=-2), np.asarray(counts)))
    return groups


# classify takes the certified Gram argmin from GRAM_MIN_D coordinates on and
# the every-pair sq_dist argmin below; both give the same result.  Measured
# per call on one 2-vCPU host: for ten (4, d) sets at N = 400 the Gram argmin
# took 1.3 to 3.6 times as long at d = 2 to 7 and 0.81 times at d = 8 (taken
# at d = 2 it slowed planar's and gossip's median cells by 60% and 23%).
GRAM_MIN_D = 8


def classify(points, centroids) -> np.ndarray:
    """Nearest-centroid assignment; ties go to the lowest centroid index.

    Centroids are (K, d), or (R, K, d) for R centroid sets at once; row r of
    the (R, N) result is then classify(points, centroids[r]), bit for bit.
    Takes validated input: (N, d) points and at least one centroid per set.

    The sets are classified in blocks of as many as fit BUDGET bytes, at
    least one: N K d floats per set on the sq_dist path (sq_dist holds at most
    three (block, N, K) arrays), N K on the Gram path (one G block).

    The result is always np.argmin of the sq_dist values.  Below GRAM_MIN_D
    they are computed for every pair.  Otherwise a point takes the argmin b of
    G = ||x||^2 + ||c||^2 - 2 x.c, one matmul over all the block's centroids,
    where a rounding-error bound certifies it, and the sq_dist argmin, computed
    for that point and set alone, where it does not.

    The certificate (bounds as in Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 3).  Let u = 2^-53, gamma_n =
    n u / (1 - n u), and X = ||x||^2, C_j = ||c_j||^2, P_j = x.c_j and
    D_j = X + C_j - 2 P_j exactly; a product that underflows adds an
    absolute error up to eta = 2^-1075 (sums and differences that underflow
    are exact).  In any summation order, and with or without FMA:
      sq_dist    |D^_j - D_j| <= gamma_{d+2} D_j + 2 d eta,
      X^, C^_j   |X^ - X| <= gamma_d X + 2 d eta,
      matmul     |P^_j - P_j| <= gamma_d sum |x_i c_ji| + 2 d eta
                               <= gamma_d (X + C_j) / 2 + 2 d eta,
    and adding the three terms of G^_j in any order gives
    |G^_j - D_j| <= 2 gamma_{d+2} (X + C_j) + 10 d eta.  As D_j <= 2 (X + C_j),
    |G^_j - D^_j| <= 4 gamma_{d+2} (X + C_j) + 12 d eta =: E_j.  So if
    G^_j - G^_b > E_j + E_b for every j != b, then D^_j > D^_b: b is the
    sq_dist argmin and the unique one, so no tie rule is involved (with
    K = 1 there is no j, and b = 0 is certified).  The code tests
    G^_j - c1 C^_j > G^_b + c1 C^_b + 2 c1 X^ + (d + 2) 2^-1068 with
    c1 = 8 (d + 2) u, at least twice E_j + E_b, which leaves room for the
    rounding of the test itself while (d + 2) u < 0.1.  A tie fails the
    strict test.  Pairs that fail it are recomputed with sq_dist, in blocks of
    at most BUDGET bytes.  Dataset's 2^470 bound keeps every term finite.
    """
    d, k = points.shape[-1], centroids.shape[-2]
    lead, n = centroids.shape[:-2], points.shape[0]
    sets = centroids.reshape(-1, k, d)
    gram = d >= GRAM_MIN_D
    blocks = range(0, len(sets), max(1, BUDGET // (8 * n * k * (1 if gram else d))))
    if not gram:
        best = [np.argmin(sq_dist(points[:, None, :], sets[lo : lo + blocks.step, None]), axis=-1)
                for lo in blocks]
        return np.concatenate(best).reshape(lead + (n,))
    out = np.empty((n, len(sets)), dtype=np.intp)
    xx = np.einsum("ij,ij->i", points, points)
    for lo in blocks:
        block, best = sets[lo : lo + blocks.step], out[:, lo : lo + blocks.step]
        flat = block.reshape(-1, d)
        cc = np.einsum("ij,ij->i", flat, flat)
        g = points @ flat.T
        g *= -2.0
        g += cc
        g += xx[:, None]
        g = g.reshape(n, len(block), k)
        np.argmin(g, axis=-1, out=best)
        c1 = 8 * (d + 2) * 2.0**-53
        ec = (c1 * cc).reshape(len(block), k)
        upper = g.min(axis=-1)
        upper += ec[np.arange(len(block)), best]
        upper += (2 * c1) * xx[:, None] + (d + 2) * 2.0**-1068
        g -= ec
        g.reshape(-1, k)[np.arange(best.size), best.ravel()] = np.inf
        certified = upper < g.min(axis=-1)
        rows, cols = np.nonzero(~certified)
        step = max(1, BUDGET // (8 * k * d))
        for at in range(0, len(rows), step):
            i, r = rows[at : at + step], cols[at : at + step]
            best[i, r] = np.argmin(sq_dist(points[i, None, :], block[r]), axis=-1)
    return out.T.reshape(lead + (n,))


def distortion(points_raw, centroids, assignments):
    """Mean distance to the assigned centroid, raw units.

    Takes validated input: (N, d) points, (K, d) centroids and N indices into
    them, for a float; or (R, K, d) centroid sets and (R, N) indices, for the
    (R,) array whose entry r is distortion(points_raw, centroids[r],
    assignments[r]), bit for bit.  The sets are taken in blocks of as many as
    fit BUDGET bytes at 3 N d floats per set (the assigned centroids and
    sq_dist's two temporaries), at least one.
    """
    n, d = points_raw.shape
    k, flat, rows = centroids.shape[-2], centroids.reshape(-1, d), np.reshape(assignments, (-1, n))
    step = max(1, BUDGET // (24 * n * d))
    means = []
    for lo in range(0, len(rows), step):
        chunk = rows[lo : lo + step]
        index = chunk + k * np.arange(lo, lo + len(chunk))[:, None]  # set r is rows r K.. of flat
        means.append(np.mean(np.sqrt(sq_dist(points_raw, flat.take(index, axis=0))), axis=1))
    means = np.concatenate(means)
    return float(means[0]) if centroids.ndim == 2 else means


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
    d = pts.shape[1]
    if kernel is None:
        kernel = KernelSpec("wald", d)
    if kernel.d != d:
        raise ValueError(f"kernel dimension {kernel.d} does not match the data's {d}")
    rng = np.random.default_rng(seed)
    wald_cfg = WaldConfig(d=d, gamma=gamma)

    def estimate(start):
        return fixed_point(pts, kernel, pts[start], epsilon, max_iter)

    centroids, counts, iters_per, converged_per = recover(pts, wald_cfg, rng, estimate)

    r = math.sqrt(r_squared(kernel))
    [(_, fused_cents, fused_counts)] = fuse(centroids, counts, r, wald_cfg)
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
    """Noise level above which the closest pair of clusters stops separating.

    The pair distances are fuse's, np.linalg.norm's dot product row by row.
    """
    cents = np.asarray(true_centroids, dtype=float)
    if cents.ndim != 2 or cents.shape[0] < 2:
        raise ValueError("need at least two centroids")
    i, j = np.triu_indices(len(cents), 1)
    diff = cents[i] - cents[j]
    return float(np.sqrt(np.vecdot(diff, diff)).min()) / threshold_mu(d, gamma)
