import math

import numpy as np
import pytest
from scipy.stats import chisquare

from centrex import centralized
from centrex.centralized import (
    Dataset,
    classify,
    fixed_point,
    fuse,
    h_map,
    mark,
    recover,
    run_centrex,
    sigma_lim,
    sq_dist,
)
from centrex.harness import ExperimentConfig, generate_dataset
from centrex.statfn import KernelSpec, WaldConfig, r_squared, threshold_mu, weight

from oracles import direct_h_map, pairwise_min_distance

KERNEL2 = KernelSpec("wald", 2)


def _cluster(rng, center, n, d=2):
    return np.asarray(center) + rng.standard_normal((n, d))


class TestHMap:
    def test_single_point_collapses(self):
        y = np.array([[3.0, -1.0]])
        out = h_map(y, KERNEL2, np.array([100.0, 100.0]))
        assert np.allclose(out, y[0])

    def test_symmetric_pair(self):
        pts = np.array([[2.0, 1.0], [-2.0, -1.0]])
        out = h_map(pts, KERNEL2, np.zeros(2))
        assert np.allclose(out, 0.0, atol=1e-14)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(10, 2)) * 3
        x = rng.normal(size=2)
        got = h_map(pts, KERNEL2, x)
        want = direct_h_map(pts, lambda u: weight(KERNEL2, u), x)
        assert np.allclose(got, want, atol=1e-12)

    def test_convex_hull(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 2))
        out = h_map(pts, KERNEL2, np.array([10.0, 10.0]))
        assert pts.min(0)[0] <= out[0] <= pts.max(0)[0]
        assert pts.min(0)[1] <= out[1] <= pts.max(0)[1]


class TestFixedPoint:
    def test_fixed_input_returns_immediately(self):
        pts = np.array([[1.0, 1.0], [-1.0, -1.0]])
        out, iters, conv = fixed_point(pts, KERNEL2, np.zeros(2), epsilon=1e-2)
        assert conv and iters == 1
        assert np.allclose(out, 0.0)

    def test_single_cluster_accuracy(self):
        # Normalized single cluster at (10, 10): per-axis std of the estimate
        # is about sqrt(r^2 / N) ~ 0.053, so 0.5 is a generous radius.
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = _cluster(rng, [10.0, 10.0], 400)
            out, _, conv = fixed_point(pts, KERNEL2, pts[0], epsilon=1e-2)
            if conv and np.linalg.norm(out - [10.0, 10.0]) < 0.5:
                hits += 1
        assert hits >= 99

    def test_convergence_postcondition(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = np.concatenate(
                [_cluster(rng, [0.0, 0.0], 100), _cluster(rng, [12.0, 0.0], 100)]
            )
            out, _, conv = fixed_point(pts, KERNEL2, pts[0], epsilon=1e-2)
            assert conv
            assert np.linalg.norm(h_map(pts, KERNEL2, out) - out) <= 1e-2

    def test_estimate_variance_matches_error_model(self):
        # Per-axis variance of the fixed-point estimate should track r^2/N.
        n, trials = 100, 500
        estimates = np.empty((trials, 2))
        for seed in range(trials):
            rng = np.random.default_rng(10_000 + seed)
            pts = _cluster(rng, [0.0, 0.0], n)
            estimates[seed], _, _ = fixed_point(pts, KERNEL2, pts[0], epsilon=1e-3)
        expected = r_squared(KERNEL2) / n
        for axis in range(2):
            assert estimates[:, axis].var() == pytest.approx(expected, rel=0.25)


class TestMark:
    CFG = WaldConfig(d=2, gamma=1e-3)

    def test_centroid_itself_marked(self):
        pts = np.array([[1.0, 2.0], [50.0, 50.0]])
        marked = mark(pts, np.array([1.0, 2.0]), self.CFG)
        assert 0 in marked and 1 not in marked

    def test_far_point_unmarked(self):
        c = np.zeros(2)
        far = np.array([[2.0 * self.CFG.threshold, 0.0]])
        assert mark(far, c, self.CFG).size == 0

    def test_marked_fraction_matches_level(self):
        n = 10_000
        rng = np.random.default_rng(21)
        pts = _cluster(rng, [5.0, 5.0], n)
        frac = mark(pts, np.array([5.0, 5.0]), self.CFG).size / n
        se = math.sqrt(1e-3 * (1 - 1e-3) / n)
        assert abs(frac - 0.999) <= 4 * se


class TestRecover:
    def test_starts_uniform_over_unmarked(self):
        # Points 0-2 and 3-9 are two clusters of identical points, and the
        # stub's theta is its start, so a pass marks its start's whole
        # cluster.  The first start is uniform over all ten points and the
        # second over the other cluster, never a marked point; then every
        # point is marked and recover stops.
        pts = np.repeat([[0.0, 0.0], [100.0, 0.0]], [3, 7], axis=0)
        wald_cfg, rng = WaldConfig(d=2, gamma=1e-3), np.random.default_rng(7)
        first, second = np.zeros(10), np.zeros((2, 10))
        for _ in range(5000):
            starts = []

            def estimate(start):
                starts.append(start)
                return pts[start], 1, True

            thetas, supports, iters, flags = recover(pts, wald_cfg, rng, estimate)
            a, b = starts
            assert (a < 3) != (b < 3)
            assert supports == ([3, 7] if a < 3 else [7, 3]) and iters == [1, 1] and flags == [True, True]
            assert np.array_equal(thetas[1], pts[b])
            first[a] += 1
            second[int(a < 3), b] += 1
        # chi-square uniformity at the 1% level
        assert chisquare(first).pvalue > 0.01
        assert chisquare(second[0, :3]).pvalue > 0.01
        assert chisquare(second[1, 3:]).pvalue > 0.01


class TestFuse:
    R = math.sqrt(9 / 8)
    CFG = WaldConfig(d=2, gamma=1e-3)

    def test_identical_pair_merges(self):
        c = np.array([1.0, 2.0])
        [(_, cents, counts)] = fuse([c, c.copy()], [10, 10], self.R, self.CFG)
        assert len(cents) == 1
        assert np.allclose(cents[0], c)
        assert counts[0] == 20

    def test_distant_pair_untouched(self):
        [(_, cents, counts)] = fuse(
            [np.zeros(2), np.array([1e6, 0.0])], [10, 10], self.R, self.CFG
        )
        assert len(cents) == 2

    def test_threshold_arithmetic(self):
        # separation 0.30 < 0.15 * mu(1e-3) ~ 0.5575 with supports (100, 100)
        a, b = np.zeros(2), np.array([0.30, 0.0])
        [(_, cents, counts)] = fuse([a, b], [100, 100], self.R, self.CFG)
        assert len(cents) == 1
        assert np.allclose(cents[0], [0.15, 0.0])

    def test_chain_merges_terminate(self):
        cents = [np.array([0.05 * i, 0.0]) for i in range(5)]
        [(_, fused, counts)] = fuse(cents, [100] * 5, self.R, self.CFG)
        assert len(fused) == 1
        assert counts[0] == 500


class TestSqDist:
    """sq_dist against np.sum over the last axis, bit for bit, on the shapes
    of its callers: row-wise pairs, rows against one point, and points
    (N, 1, d) against stacked centroid sets (R, 1, K, d)."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 100])
    def test_matches_numpy_sum(self, d):
        rng = np.random.default_rng(d)
        for sa, sb in [((60, d), (60, d)), ((60, d), (d,)), ((60, 1, d), (5, 1, 4, d))]:
            # Magnitudes from 1e-3 to 1e6, mixed within each vector.
            a = rng.standard_normal(sa) * 10.0 ** rng.uniform(-3, 6, sa)
            b = rng.standard_normal(sb) * 10.0 ** rng.uniform(-3, 6, sb)
            want = np.sum((a - b) ** 2, axis=-1)
            got = sq_dist(a, b)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.sqrt(got), np.linalg.norm(a - b, axis=-1))


class TestClassify:
    def test_exact_centroid(self):
        cents = np.array([[0.0, 0.0], [5.0, 5.0]])
        assert classify(np.array([[5.0, 5.0]]), cents)[0] == 1

    def test_tie_goes_to_lowest_index(self):
        cents = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert classify(np.array([[1.0, 0.0]]), cents)[0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            pts = rng.normal(size=(8, 3))
            cents = rng.normal(size=(4, 3))
            got = classify(pts, cents)
            want = [
                min(range(4), key=lambda j: float(np.linalg.norm(p - cents[j])))
                for p in pts
            ]
            assert np.array_equal(got, want)

    def test_stacked_centroid_sets_match_one_set_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(3)
        for d in (1, 2, 7, 8, 100):
            pts = rng.normal(size=(50, d))
            cents = rng.normal(size=(6, 4, d))
            cents[1, 3] = cents[1, 1]  # duplicate centroid: ties go to index 1
            cents[2] = 0.0  # all four tie: everything goes to index 0
            # classify budgets N K d floats per set on the sq_dist path, N K on
            # the Gram path: take all 6 sets in one block, then 1, 2 and 5 (a
            # partial last block) at a time.
            gram = d >= centralized.GRAM_MIN_D
            per_set = 8 * 50 * 4 * (1 if gram else d)
            for sets_per_block in (6, 1, 2, 5):
                monkeypatch.setattr(centralized, "BUDGET", per_set * sets_per_block)
                got = classify(pts, cents)
                assert got.shape == (6, 50)
                for r in range(6):
                    assert np.array_equal(got[r], classify(pts, cents[r]))
                assert not np.any(got[1] == 3) and np.all(got[2] == 0)

    def test_many_points_take_the_gram_argmin(self, fallbacks):
        rng = np.random.default_rng(5)
        pts, cents = rng.normal(size=(400, 100)), rng.normal(size=(10, 100))
        assert np.array_equal(classify(pts, cents), _argmin_of_sums(pts, cents))
        assert fallbacks[0] == 0  # every argmin certified, nothing recomputed


def _argmin_of_sums(points, centroids):
    return np.argmin(np.sum((points[:, None, :] - centroids[..., None, :, :]) ** 2, axis=-1), axis=-1)


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the (point, set) pairs classify recomputes with sq_dist."""
    count = [0]

    def counted(a, b):
        if np.ndim(a) == 3:  # classify's fallback: (F, 1, d) points
            count[0] += len(a)
        return sq_dist(a, b)

    monkeypatch.setattr(centralized, "sq_dist", counted)
    return count


class TestClassifyCertificate:
    """From d = 8 classify certifies a Gram-matrix argmin and recomputes the
    pairs it cannot certify: the result is np.argmin of np.sum, bit for bit."""

    @pytest.mark.parametrize("sets", [(), (6,)])
    @pytest.mark.parametrize("d", [8, 9, 33, 100])
    def test_matches_argmin_of_sums(self, d, sets):
        rng = np.random.default_rng(d)
        pts = rng.normal(size=(80, d)) * 10.0 ** rng.uniform(-2, 2, (80, 1))
        cents = rng.normal(size=sets + (5, d))
        pts[:5] = cents.reshape(-1, 5, d)[0]  # points on a centroid
        got = classify(pts, cents)
        assert got.shape == sets + (80,)
        assert np.array_equal(got, _argmin_of_sums(pts, cents))
        # One or two points, the first on centroid 1 of set 0 and on its
        # duplicate 4: the tie goes to index 1.
        cents[..., 4, :] = cents[..., 1, :]
        for few in (pts[1:2], pts[1:3]):
            got = classify(few, cents)
            assert got.shape == sets + (len(few),)
            assert np.array_equal(got, _argmin_of_sums(few, cents))
            assert got.reshape(-1, len(few))[0, 0] == 1

    @pytest.mark.parametrize("d", [8, 100])
    def test_single_centroid(self, d):
        pts = np.random.default_rng(0).normal(size=(10, d))
        assert np.array_equal(classify(pts, np.ones((1, d))), np.zeros(10, dtype=int))
        assert np.array_equal(classify(pts, np.ones((3, 1, d))), np.zeros((3, 10), dtype=int))

    @pytest.mark.parametrize("d", [8, 100])
    def test_ties_fall_back_to_the_lowest_index(self, d, fallbacks):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(40, d))
        cents = rng.normal(size=(3, 4, d))
        cents[0, 2] = cents[0, 0]  # duplicate centroid
        cents[1] = cents[1, 3]  # all four equal
        got = classify(pts, cents)
        assert np.array_equal(got, _argmin_of_sums(pts, cents))
        assert not np.any(got[0] == 2) and np.all(got[1] == 0)
        assert fallbacks[0] >= 40  # every point of set 1 ties

    @pytest.mark.parametrize("offset", [1e6, 1e8, 1e150])
    @pytest.mark.parametrize("d", [8, 100])
    def test_cancellation_falls_back(self, d, offset, fallbacks):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(60, d)) + offset
        cents = rng.normal(size=(4, 6, d)) + offset
        assert np.array_equal(classify(pts, cents), _argmin_of_sums(pts, cents))
        assert fallbacks[0] > 0

    @pytest.mark.parametrize("scale", [1e-160, 1e-162, 2.0**-1074])
    @pytest.mark.parametrize("d", [8, 100])
    def test_tiny_and_subnormal_points(self, d, scale):
        # Squares that underflow: only the absolute term of the bound covers them.
        rng = np.random.default_rng(4)
        for _ in range(10):
            pts = np.round(rng.normal(size=(50, d)) * 20) * scale
            cents = np.round(rng.normal(size=(3, 5, d)) * 20) * scale
            assert np.array_equal(classify(pts, cents), _argmin_of_sums(pts, cents))

    def test_dim100k10_takes_the_fast_path(self, fallbacks):
        config = ExperimentConfig(scenario="dim100k10", n=100, sigmas=(1.0,))
        pts = generate_dataset(config, 0).points
        rng = np.random.default_rng(5)
        cents = pts[np.stack([rng.choice(100, size=10, replace=False) for _ in range(20)])]
        cents = np.concatenate([cents, config.centroids[None]])
        assert np.array_equal(classify(pts, cents), _argmin_of_sums(pts, cents))
        assert fallbacks[0] == 0


class TestRunCentrex:
    def _four_cluster_data(self, seed, sigma=1.0):
        rng = np.random.default_rng(seed)
        centers = np.array([[10, 20], [20, 10], [10, 10], [20, 20]], dtype=float)
        labels = np.repeat(np.arange(4), 100)
        pts = centers[labels] + sigma * rng.standard_normal((400, 2))
        return Dataset(points=pts, sigma=sigma, labels=labels), labels

    def test_recovers_four_clusters(self):
        good = 0
        for seed in range(100):
            data, labels = self._four_cluster_data(seed)
            res = run_centrex(data, seed=seed)
            if res.k_hat == 4:
                from centrex.harness import classification_error

                if classification_error(labels, res.assignments, 4, res.k_hat) < 0.01:
                    good += 1
        assert good >= 95

    def test_merges_above_sigma_lim(self):
        centers = np.array([[13, 20], [20, 10], [10, 10], [17, 20]], dtype=float)
        under = 0
        for seed in range(30):
            rng = np.random.default_rng(seed)
            labels = np.repeat(np.arange(4), 100)
            pts = centers[labels] + 2.0 * rng.standard_normal((400, 2))
            res = run_centrex(Dataset(points=pts, sigma=2.0, labels=labels), seed=seed)
            if res.k_hat < 4:
                under += 1
        assert under > 15

    def test_degenerate_single_point(self):
        data = Dataset(points=np.array([[3.0, 4.0]]), sigma=1.0)
        res = run_centrex(data, seed=0)
        assert res.k_hat == 1
        assert np.allclose(res.centroids[0], [3.0, 4.0], atol=1e-6)

    def test_scale_consistency(self):
        sigma = 2.5
        data, labels = self._four_cluster_data(5, sigma=sigma)
        res_raw = run_centrex(data, seed=11)
        pre = Dataset(points=data.points / sigma, sigma=1.0, labels=labels)
        res_norm = run_centrex(pre, seed=11)
        assert res_raw.k_hat == res_norm.k_hat
        assert np.array_equal(res_raw.assignments, res_norm.assignments)
        assert np.allclose(res_raw.centroids, res_norm.centroids * sigma, atol=1e-9)

    def test_seed_determinism(self):
        data, _ = self._four_cluster_data(8)
        a = run_centrex(data, seed=3)
        b = run_centrex(data, seed=3)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)

    def _dim100k10(self):
        config = ExperimentConfig(scenario="dim100k10", n=100)
        return generate_dataset(config, np.random.SeedSequence([0, 0, 0]), 1.0)

    def test_iteration_cap_is_reported(self):
        res = run_centrex(self._dim100k10(), seed=0, max_iter=1)
        assert len(res.converged_per_centroid) == len(res.iterations_per_centroid)
        assert False in res.converged_per_centroid

    def test_default_run_converges_everywhere(self):
        res = run_centrex(self._dim100k10(), seed=0)
        assert res.converged_per_centroid
        assert len(res.converged_per_centroid) == len(res.iterations_per_centroid)
        assert all(res.converged_per_centroid)


def _two_clusters():
    rng = np.random.default_rng(0)
    pts = np.concatenate([_cluster(rng, [0, 0], 20), _cluster(rng, [10, 10], 20)])
    return Dataset(points=pts, sigma=1.0)


# Input that the stages take unchecked, and the message of the entry point
# that rejects it.
ENTRY_REJECTS = {
    "kernel_dimension": (
        lambda: run_centrex(_two_clusters(), kernel=KernelSpec("wald", 7)),
        "kernel dimension",
    ),
    "epsilon_zero": (lambda: run_centrex(_two_clusters(), epsilon=0.0), "epsilon"),
    "epsilon_negative": (lambda: run_centrex(_two_clusters(), epsilon=-1e-2), "epsilon"),
    "epsilon_nan": (lambda: run_centrex(_two_clusters(), epsilon=np.nan), "epsilon"),
    "beta_inf": (lambda: KernelSpec("gaussian", 2, beta=np.inf), "beta"),
    "beta_nan": (lambda: KernelSpec("gaussian", 2, beta=np.nan), "beta"),
    "sigma_nan": (lambda: Dataset(points=np.zeros((3, 2)), sigma=np.nan), "sigma"),
    "sigma_inf": (lambda: Dataset(points=np.zeros((3, 2)), sigma=np.inf), "sigma"),
    "empty": (lambda: Dataset(points=np.empty((0, 2)), sigma=1.0), "nonempty"),
    "no_coordinates": (lambda: Dataset(points=np.empty((3, 0)), sigma=1.0), r"\(N, d\)"),
    "nan": (lambda: Dataset(points=[[0.0, 0.0], [np.nan, 1.0]], sigma=1.0), "finite"),
    "inf": (lambda: Dataset(points=[[0.0, 0.0], [-np.inf, 1.0]], sigma=1.0), "finite"),
}


@pytest.mark.parametrize("case", ENTRY_REJECTS)
def test_entry_rejects(case):
    enter, message = ENTRY_REJECTS[case]
    with pytest.raises(ValueError, match=message):
        enter()


class TestFixedPointUniqueness:
    """With two well-separated clusters, the true centroids are (near) fixed
    points and no spurious ones exist away from them."""

    def test_true_centroids_are_fixed_points(self):
        rng = np.random.default_rng(77)
        c1, c2 = np.array([0.0, 0.0]), np.array([40.0, 0.0])
        pts = np.concatenate([_cluster(rng, c1, 5000), _cluster(rng, c2, 5000)])
        for c in (c1, c2):
            assert np.linalg.norm(h_map(pts, KERNEL2, c) - c) <= 0.05

    def test_no_spurious_fixed_points(self):
        rng = np.random.default_rng(78)
        c1, c2 = np.array([0.0, 0.0]), np.array([40.0, 0.0])
        pts = np.concatenate([_cluster(rng, c1, 5000), _cluster(rng, c2, 5000)])
        grid = [
            np.array([x, y])
            for x in np.linspace(-10, 50, 13)
            for y in np.linspace(-10, 10, 5)
        ]
        for x in grid:
            if min(np.linalg.norm(x - c1), np.linalg.norm(x - c2)) < 5:
                continue
            assert np.linalg.norm(h_map(pts, KERNEL2, x) - x) > 0.05


class TestSigmaLim:
    def test_reference_layout(self):
        centers = 10 * np.array([[1, 2], [2, 1], [1, 1], [2, 2]], dtype=float)
        assert sigma_lim(centers, 1e-3, 2) == pytest.approx(2.69, abs=0.01)

    def test_modified_layout(self):
        centers = np.array([[13, 20], [20, 10], [10, 10], [17, 20]], dtype=float)
        assert sigma_lim(centers, 1e-3, 2) == pytest.approx(1.08, abs=0.01)

    def test_homogeneous_in_scale(self):
        centers = np.array([[0.0, 0.0], [3.0, 4.0], [10.0, 0.0]])
        base = sigma_lim(centers, 1e-3, 2)
        assert sigma_lim(2.5 * centers, 1e-3, 2) == pytest.approx(2.5 * base, rel=1e-12)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            sigma_lim(np.array([[1.0, 1.0]]), 1e-3, 2)

    @pytest.mark.parametrize(
        "scenario, d, seed",
        [("dim2k4", 2, 0)] + [("dim100k10", 100, seed) for seed in (0, 1, 7, 91, 2024)],
    )
    def test_closest_pair_matches_pairwise_loop(self, scenario, d, seed):
        cents = ExperimentConfig(scenario=scenario, n=100, seed=seed).centroids
        assert sigma_lim(cents, 1e-3, d) == pairwise_min_distance(cents) / threshold_mu(d, 1e-3)
