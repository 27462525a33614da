import numpy as np
import pytest
from scipy.stats import chisquare

from centrex import decentralized
from centrex.centralized import Dataset, h_map
from centrex.decentralized import (
    NetworkConfig,
    SensorNetwork,
    init_round,
    run_decentrex,
    slot_step,
)
from centrex.harness import ExperimentConfig, classification_error, generate_dataset, run_experiment
from centrex.statfn import KernelSpec

KERNEL2 = KernelSpec("wald", 2)


def _network(points):
    return SensorNetwork(np.asarray(points, dtype=float), KERNEL2)


class TestInitRound:
    def test_single_sensor(self):
        net = _network([[2.0, 3.0]])
        chosen = init_round(net, np.random.default_rng(0))
        assert chosen == 0
        assert np.allclose(net.estimate[0], [2.0, 3.0])

    def test_accumulator_is_own_point(self):
        rng = np.random.default_rng(1)
        net = _network(rng.normal(size=(15, 2)))
        init_round(net, rng)
        ratio = net.P / net.Q[:, None]
        assert np.allclose(ratio, net.y, atol=1e-12)
        assert np.all(net.c == 1)

    def test_all_marked_rejected(self):
        net = _network([[0.0, 0.0]])
        net.marked[:] = True
        with pytest.raises(RuntimeError):
            init_round(net, np.random.default_rng(0))

    def test_choice_uniform_over_unmarked(self):
        rng = np.random.default_rng(7)
        net = _network(np.zeros((10, 2)))
        net.marked[:5] = True
        counts = np.zeros(10)
        for _ in range(10_000):
            counts[init_round(net, rng)] += 1
        assert counts[:5].sum() == 0
        # chi-square uniformity over the 5 eligible sensors at the 1% level
        assert chisquare(counts[5:]).pvalue > 0.01


class TestSlotStep:
    def test_no_update_below_threshold(self):
        rng = np.random.default_rng(2)
        net = _network(rng.normal(size=(10, 2)))
        init_round(net, rng)
        cfg = NetworkConfig(n_sensors=10, T=1, L=10, fanout=1, seed=0)
        before = net.estimate.copy()
        _, updated = slot_step(net, cfg, rng)
        # fanout 1: max counter after one slot is well below L = n
        assert not updated.any()
        assert np.array_equal(net.estimate, before)

    def test_contribution_conservation(self):
        # Transferred mass is conserved: post-phase total counter equals the
        # pre-phase total plus one fresh own contribution per sensor.
        rng = np.random.default_rng(3)
        net = _network(rng.normal(size=(50, 2)))
        init_round(net, rng)
        # counters at most double per slot, so 5 slots stay below L = 50
        cfg = NetworkConfig(n_sensors=50, T=1, L=50, fanout=1, seed=0)
        for _ in range(5):
            total_before = net.c.sum()
            slot_step(net, cfg, rng)
            assert net.c.sum() == total_before + net.n

    def test_message_count(self):
        rng = np.random.default_rng(4)
        net = _network(rng.normal(size=(12, 2)))
        init_round(net, rng)
        cfg = NetworkConfig(n_sensors=12, T=1, L=3, fanout=2, seed=0)
        sent, _ = slot_step(net, cfg, rng)
        assert sent == 12 * 2

    def test_full_fanout_single_slot_equals_h_map(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(25, 2))
        net = _network(pts)
        init_round(net, rng)
        theta0 = net.estimate[0].copy()
        cfg = NetworkConfig(n_sensors=25, T=1, L=25, fanout=24, seed=0)
        slot_step(net, cfg, rng)
        want = h_map(pts, KERNEL2, theta0)
        assert np.abs(net.estimate - want).max() <= 1e-12

    def test_single_cluster_convergence(self):
        # Each sensor's assigned centroid is what the sweep rows score.  An
        # estimate aggregates at least L contributions, so its error scale is
        # sqrt(r^2 / L) ~ 0.19 per axis; 0.5 is then a tail event for
        # individual sensors, not a bound on the max over 400.
        hits = 0
        trials = 50
        for seed in range(trials):
            rng = np.random.default_rng(1000 + seed)
            pts = np.array([10.0, 10.0]) + rng.standard_normal((400, 2))
            data = Dataset(points=pts, sigma=1.0, normalized=True)
            cfg = NetworkConfig(n_sensors=400, T=300, L=30, seed=seed)
            results, _ = run_decentrex(data, cfg)
            assigned = np.array([r.centroids[r.assignments[0]] for r in results])
            dists = np.linalg.norm(assigned - [10.0, 10.0], axis=1)
            assert np.median(dists) <= 0.3
            if np.mean(dists <= 0.5) >= 0.975:
                hits += 1
        assert hits >= trials * 0.95


class TestRunDecentrex:
    def _data(self, seed, sigma=1.0):
        rng = np.random.default_rng(seed)
        centers = np.array([[10, 20], [20, 10], [10, 10], [20, 20]], dtype=float)
        labels = np.repeat(np.arange(4), 100)
        pts = centers[labels] + sigma * rng.standard_normal((400, 2))
        return Dataset(points=pts, sigma=sigma, labels=labels), labels

    def test_determinism(self):
        data, _ = self._data(0)
        cfg = NetworkConfig(n_sensors=400, T=200, L=20, seed=5)
        r1, l1 = run_decentrex(data, cfg)
        r2, l2 = run_decentrex(data, cfg)
        assert l1.messages_sent == l2.messages_sent
        for a, b in zip(r1, r2):
            assert a.k_hat == b.k_hat
            assert np.array_equal(a.centroids, b.centroids)

    def test_message_accounting(self):
        data, _ = self._data(1)
        cfg = NetworkConfig(n_sensors=400, T=150, L=15, fanout=1, seed=2)
        _, log = run_decentrex(data, cfg)
        assert log.messages_sent == 400 * 1 * 150 * log.rounds

    def test_sensors_agree_on_four_clusters(self):
        # When a dataset needs a duplicate round, a sensor's two estimates of
        # the same cluster can sit farther apart than the fusion threshold
        # (per-sensor dispersion scales with 1/L, not 1/N_k), so a minority
        # of sensors may keep an extra centroid; the modal count stays 4.
        modal4 = 0
        trials = 20
        for seed in range(trials):
            data, _ = self._data(100 + seed)
            cfg = NetworkConfig(n_sensors=400, T=300, L=30, seed=seed)
            results, _ = run_decentrex(data, cfg)
            k_hat_counts = np.bincount([r.k_hat for r in results])
            if k_hat_counts.argmax() == 4:
                modal4 += 1
            assert k_hat_counts.max() / len(results) >= 0.5
        assert modal4 >= trials * 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(n_sensors=10, T=100, L=11)
        with pytest.raises(ValueError):
            NetworkConfig(n_sensors=10, T=0, L=5)
        # One sensor has nobody to push to.
        with pytest.raises(ValueError, match="n_sensors"):
            NetworkConfig(n_sensors=1, T=3, L=1)

    def test_mismatched_size_rejected(self):
        data, _ = self._data(2)
        cfg = NetworkConfig(n_sensors=10, T=10, L=5)
        with pytest.raises(ValueError):
            run_decentrex(data, cfg)

    def test_underflowed_weights_keep_the_estimate(self):
        # In d = 100 the kernel of a far cluster underflows to 0, so a sensor
        # can aggregate only zero weights (Q = 0); it must keep its estimate
        # instead of taking P/Q = 0/0.
        config = ExperimentConfig(
            scenario="dim100k10",
            n=100,
            sigmas=(1.0,),
            algorithms=("decentrex",),
            slots_t=100,
            update_l=10,
        )
        (row,) = run_experiment(config)
        assert row["k_hat"] == 10
        assert row["pe"] == 0.0


class TestOwnContribution:
    """The kept own contribution must equal a fresh kernel evaluation at the
    current estimate, bit for bit, after every slot of a full run."""

    def _checked_run(self, monkeypatch, data, config):
        stats = {"updates": 0, "kept": 0}

        def checked_slot_step(net, cfg, rng):
            before = net.estimate.copy()
            sent, updated = slot_step(net, cfg, rng)
            P, Q = net.fresh_contribution()
            assert np.array_equal(net.own_P, P)
            assert np.array_equal(net.own_Q, Q)
            stats["updates"] += int(updated.sum())
            stats["kept"] += int(np.sum(updated & np.all(net.estimate == before, axis=1)))
            return sent, updated

        monkeypatch.setattr(decentralized, "slot_step", checked_slot_step)
        run_decentrex(data, config)
        return stats

    def _four_clusters(self, n):
        rng = np.random.default_rng(11)
        centers = np.array([[10, 20], [20, 10], [10, 10], [20, 20]], dtype=float)
        pts = centers[np.arange(n) % 4] + rng.standard_normal((n, 2))
        return Dataset(points=pts, sigma=1.0)

    @pytest.mark.parametrize("fanout", [1, 3])
    def test_matches_fresh_evaluation(self, monkeypatch, fanout):
        cfg = NetworkConfig(n_sensors=80, T=20, L=4, fanout=fanout, seed=fanout)
        stats = self._checked_run(monkeypatch, self._four_clusters(80), cfg)
        assert stats["updates"] > 0

    def test_matches_fresh_evaluation_when_weights_underflow(self, monkeypatch):
        # The scenario of test_underflowed_weights_keep_the_estimate: some
        # updates aggregate only zero weights and keep the estimate.
        config = ExperimentConfig(scenario="dim100k10", n=100, sigmas=(1.0,))
        data = generate_dataset(config, np.random.SeedSequence([0, 0, 0]))
        cfg = NetworkConfig(n_sensors=100, T=100, L=10, seed=np.random.SeedSequence([0, 0, 0, 0]))
        stats = self._checked_run(monkeypatch, data, cfg)
        assert stats["kept"] > 0
