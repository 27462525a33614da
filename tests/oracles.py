"""Independent reference implementations used only as test oracles."""

import itertools
import math

import numpy as np

from centrex.statfn import fusion_sigma


def upper_gamma_regularized(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Gamma(a, x)/Gamma(a).

    Power series for x < a + 1, Lentz continued fraction otherwise.
    Independent of scipy.special.
    """
    if x < 0 or a <= 0:
        raise ValueError("need a > 0 and x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        # Lower series: P(a, x) = x^a e^-x / Gamma(a+1) * sum x^n / (a+1)...(a+n)
        term = 1.0 / a
        total = term
        n = 0
        while True:
            n += 1
            term *= x / (a + n)
            total += term
            if abs(term) < abs(total) * 1e-16 or n > 10000:
                break
        log_p = a * math.log(x) - x - math.lgamma(a) + math.log(total)
        return 1.0 - math.exp(log_p)
    # Continued fraction for Q(a, x), modified Lentz.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(a * math.log(x) - x - math.lgamma(a)) * h


def chi2_survival(d: int, t: float) -> float:
    """P(chi2_d > t) via the incomplete gamma above."""
    return upper_gamma_regularized(0.5 * d, 0.5 * t)


def pairwise_min_distance(centroids):
    """Smallest np.linalg.norm over the pairs (i < j) of rows, one pair at a
    time."""
    dmin = np.inf
    for i in range(len(centroids)):
        for j in range(i + 1, len(centroids)):
            dmin = min(dmin, float(np.linalg.norm(centroids[i] - centroids[j])))
    return dmin


def direct_h_map(points, weight_fn, x):
    """Literal loop evaluation of the weighted-average map."""
    num = np.zeros(len(x))
    den = 0.0
    for y in points:
        w = weight_fn(float(np.dot(y - x, y - x)))
        num = num + w * np.asarray(y)
        den += w
    return num / den


def brute_force_matching_error(true_labels, assignments, k_true, k_hat):
    """Exhaustive search over all one-to-one matchings (small K only)."""
    true_labels = np.asarray(true_labels)
    assignments = np.asarray(assignments)
    contingency = np.zeros((k_true, k_hat), dtype=int)
    for t, a in zip(true_labels, assignments):
        contingency[t, a] += 1
    m = min(k_true, k_hat)
    best = 0
    if k_true <= k_hat:
        for cols in itertools.permutations(range(k_hat), m):
            best = max(best, sum(contingency[i, c] for i, c in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(k_true), m):
            best = max(best, sum(contingency[r, j] for j, r in enumerate(rows)))
    return 1.0 - best / len(true_labels)


def lloyd(points, centroids, max_iter):
    """One K-means replicate on its own, with its own nearest-centroid step.

    Alternate assignment/update until assignments stabilize; empty clusters
    are re-seeded from the point farthest from its centroid.  Returns
    (centroids, assignments, iterations).
    """
    points = np.asarray(points, dtype=float)
    centroids = np.asarray(centroids, dtype=float).copy()
    k = centroids.shape[0]
    prev = None
    for it in range(1, max_iter + 1):
        d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assign = np.argmin(d2, axis=1)
        dists = np.linalg.norm(points - centroids[assign], axis=1)
        for j in range(k):
            members = assign == j
            if not members.any():
                far = int(np.argmax(dists))
                centroids[j] = points[far]
                assign[far] = j
                dists[far] = 0.0
            else:
                centroids[j] = points[members].mean(axis=0)
        if prev is not None and np.array_equal(assign, prev):
            return centroids, assign, it
        prev = assign
    return centroids, prev, max_iter


def lloyd_replicated(points, seed_sets, max_iter):
    """Run lloyd from each seed set in turn and keep the replicate with the
    smallest mean distance, the first winning ties."""
    best, best_obj = None, np.inf
    for seeds in seed_sets:
        run = lloyd(points, seeds, max_iter)
        cents, assign, _ = run
        obj = float(np.mean(np.linalg.norm(points - cents[assign], axis=1)))
        if obj < best_obj:
            best, best_obj = run, obj
    return best


class PushSumNetwork:
    """Push-sum gossip held as separate arrays: estimate (n, d), P (n, d) and
    Q (n,), with a slot counter."""

    def __init__(self, points, weight_fn):
        self.y = np.asarray(points, dtype=float)
        self.n, self.d = self.y.shape
        self.weight_fn = weight_fn
        self.estimate = np.zeros_like(self.y)
        self.P = np.zeros_like(self.y)
        self.Q = np.zeros(self.n)
        self.slot = 0

    def restart(self):
        diff = self.y - self.estimate
        self.Q = np.atleast_1d(self.weight_fn(np.sum(diff * diff, axis=1)))
        self.P = self.Q[:, None] * self.y

    def init_round(self, chosen):
        self.estimate[:] = self.y[chosen]
        self.restart()
        self.slot = 0

    def slot_step(self, T, L, targets):
        """One slot: every sensor keeps 1/(fanout + 1) of (P, Q) and adds
        that share to each of its (n, fanout) targets, one np.add.at per
        array and fanout column; at every L-th slot and slot T, sensors with
        Q > 0 step to P/Q and all restart."""
        fanout = targets.shape[1]
        self.P = self.P / (fanout + 1)
        self.Q = self.Q / (fanout + 1)
        P_share, Q_share = self.P.copy(), self.Q.copy()
        for f in range(fanout):
            np.add.at(self.P, targets[:, f], P_share)
            np.add.at(self.Q, targets[:, f], Q_share)
        self.slot += 1
        if self.slot % L and self.slot != T:
            return np.zeros(self.n, dtype=bool)
        moved = self.Q > 0
        self.estimate[moved] = self.P[moved] / self.Q[moved, None]
        self.restart()
        return moved


def pick_targets(n, fanout, rng):
    """(n, fanout) push targets of one slot, drawn on their own: one
    rng.integers call for fanout 1; otherwise Floyd's sampling, one call per
    column for all senders, with each sender's picks kept in a Python list."""
    if fanout == 1:
        t = rng.integers(0, n - 1, size=n)
        t[t >= np.arange(n)] += 1
        return t[:, None]
    picks = [[] for _ in range(n)]
    for j in range(n - 1 - fanout, n - 1):
        draws = rng.integers(0, j + 1, size=n)
        for i in range(n):
            t = int(draws[i])
            picks[i].append(j if t in picks[i] else t)
    return np.array([[t + (t >= i) for t in row] for i, row in enumerate(picks)])


def flat_push_rows(targets, d):
    """The (fanout, (d+1)·n) flat push rows of one slot's (n, fanout)
    targets, one row per fanout column, written lane by lane: entry c·n + i
    of row k is c·n plus sender i's k-th target."""
    n, fanout = targets.shape
    rows = np.empty((fanout, d + 1, n), dtype=np.int64)
    for k in range(fanout):
        for c in range(d + 1):
            rows[k, c] = c * n + targets[:, k]
    return rows.reshape(fanout, -1)


def scalar_fuse(centroids, support_counts, r, wald_cfg):
    """Fusion of one list of (d,) estimates, one pair at a time: pairs
    (k1 < k2) in lexicographic order, a merge replacing k1 by the midpoint,
    removing k2, summing the supports and restarting the scan."""
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
