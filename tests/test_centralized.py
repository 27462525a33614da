import math

import numpy as np
import pytest

from centrex.centralized import (
    Dataset,
    classify,
    fixed_point,
    fuse,
    h_map,
    mark,
    run_centrex,
    sigma_lim,
)
from centrex.harness import ExperimentConfig, generate_dataset
from centrex.statfn import KernelSpec, r_squared, threshold_mu, weight
from centrex.wald import WaldConfig

from oracles import direct_h_map

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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            h_map(np.empty((0, 2)), KERNEL2, np.zeros(2))


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
        expected = r_squared(2).value / n
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


class TestFuse:
    R = math.sqrt(9 / 8)
    CFG = WaldConfig(d=2, gamma=1e-3)

    def test_identical_pair_merges(self):
        c = np.array([1.0, 2.0])
        cents, counts = fuse([c, c.copy()], [10, 10], self.R, self.CFG)
        assert len(cents) == 1
        assert np.allclose(cents[0], c)
        assert counts[0] == 20

    def test_distant_pair_untouched(self):
        cents, counts = fuse(
            [np.zeros(2), np.array([1e6, 0.0])], [10, 10], self.R, self.CFG
        )
        assert len(cents) == 2

    def test_threshold_arithmetic(self):
        # separation 0.30 < 0.15 * mu(1e-3) ~ 0.5575 with supports (100, 100)
        a, b = np.zeros(2), np.array([0.30, 0.0])
        cents, counts = fuse([a, b], [100, 100], self.R, self.CFG)
        assert len(cents) == 1
        assert np.allclose(cents[0], [0.15, 0.0])

    def test_chain_merges_terminate(self):
        cents = [np.array([0.05 * i, 0.0]) for i in range(5)]
        fused, counts = fuse(cents, [100] * 5, self.R, self.CFG)
        assert len(fused) == 1
        assert counts[0] == 500


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

    def test_stacked_centroid_sets_match_one_set_at_a_time(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 100):
            pts = rng.normal(size=(50, d))
            cents = rng.normal(size=(6, 4, d))
            cents[1, 3] = cents[1, 1]  # duplicate centroid: ties go to index 1
            cents[2] = 0.0  # all four tie: everything goes to index 0
            got = classify(pts, cents)
            assert got.shape == (6, 50)
            for r in range(6):
                assert np.array_equal(got[r], classify(pts, cents[r]))
            assert not np.any(got[1] == 3) and np.all(got[2] == 0)

    @pytest.mark.parametrize("cents", [[], np.empty((0, 2)), np.empty((3, 0, 2))])
    def test_empty_centroid_list_rejected(self, cents):
        with pytest.raises(ValueError):
            classify(np.zeros((4, 2)), cents)


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
        pre = Dataset(points=data.points / sigma, sigma=1.0, normalized=True, labels=labels)
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
