import collections
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import PushSumNetwork, flat_push_rows, pick_targets, scalar_fuse
from scipy.stats import chisquare

from centrex import decentralized
from centrex.centralized import Dataset, classify, fuse, h_map, sigma_lim
from centrex.decentralized import (
    BUDGET,
    NetworkConfig,
    SensorNetwork,
    _target_blocks,
    init_round,
    run_decentrex,
    slot_step,
)
from centrex.harness import ExperimentConfig, classification_error, generate_dataset, run_experiment
from centrex.statfn import KernelSpec, WaldConfig, fusion_sigma, r_squared, weight

KERNEL2 = KernelSpec("wald", 2)


def _network(points):
    return SensorNetwork(np.asarray(points, dtype=float), KERNEL2)


def _slot_targets(cfg, rng):
    """The flat push rows of one slot's targets, at d = 2."""
    return flat_push_rows(next(_target_blocks(cfg.n_sensors, cfg.fanout, 1, 1, rng))[0], 2)


def _start_round(net, rng):
    """init_round from a uniformly drawn sensor, as recover draws it when none is marked."""
    init_round(net, int(rng.choice(net.n)))


class TestInitRound:
    def test_single_sensor(self):
        net = _network([[2.0, 3.0]])
        assert init_round(net, 0) is None
        assert np.allclose(net.estimate[0], [2.0, 3.0])

    def test_accumulator_is_own_point(self):
        rng = np.random.default_rng(1)
        net = _network(rng.normal(size=(15, 2)))
        net.slot = 7
        init_round(net, 6)
        assert np.array_equal(net.estimate, np.tile(net.y[6], (15, 1)))
        ratio = net.P / net.Q[:, None]
        assert np.allclose(ratio, net.y, atol=1e-12)
        assert net.slot == 0


class TestSlotStep:
    def test_no_update_below_threshold(self):
        # The first L - 1 slots of a round are inside its first epoch.
        rng = np.random.default_rng(2)
        net = _network(rng.normal(size=(10, 2)))
        _start_round(net, rng)
        cfg = NetworkConfig(n_sensors=10, T=20, L=5, fanout=1, seed=0)
        before = net.estimate.copy()
        for _ in range(cfg.L - 1):
            _, updated = slot_step(net, cfg, _slot_targets(cfg, rng))
            assert not updated.any()
            assert np.array_equal(net.estimate, before)

    def test_contribution_conservation(self):
        # Push-sum moves shares between sensors: inside an epoch the network
        # total [sum P | sum Q] stays what the round started with, to rounding.
        rng = np.random.default_rng(3)
        for fanout in (1, 3):
            net = _network(rng.normal(size=(50, 2)))
            _start_round(net, rng)
            total = net.state.sum(axis=0)
            cfg = NetworkConfig(n_sensors=50, T=20, L=20, fanout=fanout, seed=0)
            for _ in range(cfg.L - 1):
                slot_step(net, cfg, _slot_targets(cfg, rng))
                assert np.allclose(net.state.sum(axis=0), total, rtol=1e-13, atol=0)

    def test_update_at_every_L_th_slot_and_at_T(self):
        rng = np.random.default_rng(4)
        net = _network(rng.normal(size=(20, 2)))
        _start_round(net, rng)
        cfg = NetworkConfig(n_sensors=20, T=11, L=4, fanout=1, seed=0)
        updates = []
        for slot in range(1, cfg.T + 1):
            before = net.estimate.copy()
            _, updated = slot_step(net, cfg, _slot_targets(cfg, rng))
            if updated.any():
                updates.append(slot)
                assert updated.all()
                assert not np.any(np.all(net.estimate == before, axis=1))
                # Every sensor restarts from its own contribution.
                assert np.allclose(net.P / net.Q[:, None], net.y, atol=1e-12)
        assert updates == [4, 8, 11]

    def test_zero_weights_keep_the_estimate(self):
        # Sensors 3-5 sit so far from the broadcast point that their weights
        # underflow to 0, and they push only among themselves: their Q stays
        # 0 and they keep their estimate instead of taking P/Q = 0/0.
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [1e3, 1e3], [1e3, 1e3 + 1], [1e3 + 1, 1e3]])
        net = _network(pts)
        init_round(net, 0)
        assert np.array_equal(net.Q[3:], np.zeros(3))
        cfg = NetworkConfig(n_sensors=6, T=1, L=1, fanout=2, seed=0)
        targets = np.array([[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]])
        with np.errstate(divide="raise", invalid="raise"):
            _, updated = slot_step(net, cfg, flat_push_rows(targets, 2))
        assert updated.tolist() == [True] * 3 + [False] * 3
        assert np.array_equal(net.estimate[3:], np.zeros((3, 2)))
        assert np.allclose(net.estimate[:3], h_map(pts, KERNEL2, np.zeros(2)), atol=1e-12)

    @pytest.mark.parametrize("fanout", [1, 3])
    def test_ratio_approaches_h_map(self, fanout):
        # With the estimate held fixed for an epoch, every sensor's P/Q tends
        # to sum P / sum Q, which is h_map at that estimate.
        config = ExperimentConfig(scenario="dim2k4", sigmas=(1.5,))
        pts = generate_dataset(config, np.random.SeedSequence([0, 0, 0])).normalized_points()
        net = _network(pts)
        rng = np.random.default_rng(fanout)
        _start_round(net, rng)
        theta = net.estimate.copy()
        want = h_map(pts, KERNEL2, theta[0])
        cfg = NetworkConfig(n_sensors=400, T=100, L=100, fanout=fanout, seed=0)
        for _ in range(cfg.T - 1):
            _, updated = slot_step(net, cfg, _slot_targets(cfg, rng))
            assert not updated.any()
        assert np.array_equal(net.estimate, theta)
        assert np.abs(net.P / net.Q[:, None] - want).max() <= 1e-9
        _, updated = slot_step(net, cfg, _slot_targets(cfg, rng))
        assert updated.all()
        assert np.abs(net.estimate - want).max() <= 1e-9

    def test_message_count(self):
        rng = np.random.default_rng(4)
        net = _network(rng.normal(size=(12, 2)))
        _start_round(net, rng)
        cfg = NetworkConfig(n_sensors=12, T=1, L=3, fanout=2, seed=0)
        sent, _ = slot_step(net, cfg, _slot_targets(cfg, rng))
        assert sent == 12 * 2

    def test_full_fanout_single_slot_equals_h_map(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(25, 2))
        net = _network(pts)
        _start_round(net, rng)
        theta0 = net.estimate[0].copy()
        cfg = NetworkConfig(n_sensors=25, T=1, L=25, fanout=24, seed=0)
        slot_step(net, cfg, _slot_targets(cfg, rng))
        want = h_map(pts, KERNEL2, theta0)
        assert np.abs(net.estimate - want).max() <= 1e-12

    def test_single_cluster_convergence(self):
        # Each sensor's assigned centroid is what the sweep rows score.  The
        # estimates track the centralized fixed point, whose error scale is
        # sqrt(r^2 / N) ~ 0.05 per axis, so 0.5 is about ten of those.
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            pts = np.array([10.0, 10.0]) + rng.standard_normal((400, 2))
            data = Dataset(points=pts, sigma=1.0)
            cfg = NetworkConfig(n_sensors=400, T=300, L=30, seed=seed)
            results, _ = run_decentrex(data, cfg)
            assigned = np.array([r.centroids[r.assignments[0]] for r in results])
            dists = np.linalg.norm(assigned - [10.0, 10.0], axis=1)
            assert np.median(dists) <= 0.3
            assert np.all(dists <= 0.5)


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
        r1, m1 = run_decentrex(data, cfg)
        r2, m2 = run_decentrex(data, cfg)
        assert m1 == m2
        for a, b in zip(r1, r2):
            assert a.k_hat == b.k_hat
            assert np.array_equal(a.centroids, b.centroids)
            assert a.iterations_per_centroid == b.iterations_per_centroid
            assert a.converged_per_centroid == b.converged_per_centroid

    def test_message_accounting(self):
        # The number of rounds is the length of every sensor's per-centroid
        # lists, which count ceil(T / L) epochs per round.
        data, _ = self._data(1)
        for T, L, fanout, epochs in [(150, 15, 1, 10), (25, 10, 2, 3)]:
            cfg = NetworkConfig(n_sensors=400, T=T, L=L, fanout=fanout, seed=2)
            results, messages = run_decentrex(data, cfg)
            rounds = len(results[0].iterations_per_centroid)
            assert messages == 400 * fanout * T * rounds
            assert results[0].iterations_per_centroid == [epochs] * rounds

    def test_rounds_recorded_per_sensor(self, monkeypatch):
        # Every sensor records ceil(T / L) epochs per round, messages are the
        # sum of slot_step's counts, and a round that ended with a Q = 0
        # sensor keeping its estimate is reported as not converged.
        config = ExperimentConfig(scenario="dim100k10", n=100, sigmas=(1.0,))
        data = generate_dataset(config, np.random.SeedSequence([0, 0, 0]))
        cfg = NetworkConfig(n_sensors=100, T=100, L=10, seed=np.random.SeedSequence([0, 0, 0, 0]))
        sent = []
        real_slot = decentralized.slot_step

        def counting_slot(net, cfg, rows):
            out = real_slot(net, cfg, rows)
            sent.append(out[0])
            return out

        monkeypatch.setattr(decentralized, "slot_step", counting_slot)
        results, messages = run_decentrex(data, cfg)
        rounds = len(results[0].iterations_per_centroid)
        for r in results:
            assert r.iterations_per_centroid == [10] * rounds
            assert r.converged_per_centroid == results[0].converged_per_centroid
        assert messages == sum(sent) == rounds * 100 * 100 * 1
        assert len(sent) == rounds * 100
        assert False in results[0].converged_per_centroid
        assert True in results[0].converged_per_centroid

    def test_sensors_agree_on_four_clusters(self):
        # Ten 30-slot epochs per round bring every sensor to the centralized
        # fixed point, so duplicate rounds of one cluster fuse everywhere.
        for seed in range(20):
            data, _ = self._data(100 + seed)
            cfg = NetworkConfig(n_sensors=400, T=300, L=30, seed=seed)
            results, _ = run_decentrex(data, cfg)
            assert [r.k_hat for r in results] == [4] * len(results)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="L must"):
            NetworkConfig(n_sensors=10, T=100, L=0)
        # L counts slots, not sensors; above T the round is one epoch.
        NetworkConfig(n_sensors=10, T=5, L=11)
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


def _same_bits(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestFlatSlotMatchesThreeArrays:
    """The slot on the lane-major (d+1)·n buffer must give, bit for bit, the
    state of the push-sum oracle, which holds estimate, P and Q as three
    arrays, driven through full runs on the (n, fanout) targets of each
    drawn block."""

    def _lockstep_run(self, monkeypatch, data, config):
        stats = {"rounds": 0, "slots": 0, "updates": 0, "kept": 0, "block_slots": []}
        oracle = {}
        pending = collections.deque()
        real_init, real_slot = decentralized.init_round, decentralized.slot_step
        real_blocks = decentralized._target_blocks

        def recording_blocks(*args):
            for block in real_blocks(*args):
                stats["block_slots"].append(len(block))
                pending.extend(block)
                yield block

        def check(net):
            ref = oracle["net"]
            for name in ("estimate", "P", "Q"):
                assert _same_bits(getattr(net, name), getattr(ref, name)), name

        def lockstep_init(net, chosen):
            real_init(net, chosen)
            if "net" not in oracle:
                oracle["net"] = PushSumNetwork(net.y, lambda u: weight(net.kernel, u))
            oracle["net"].init_round(chosen)
            check(net)
            stats["rounds"] += 1

        def lockstep_slot(net, cfg, rows):
            sent, updated = real_slot(net, cfg, rows)
            assert np.array_equal(updated, oracle["net"].slot_step(cfg.T, cfg.L, pending.popleft()))
            check(net)
            stats["slots"] += 1
            stats["updates"] += int(updated.sum())
            if net.slot % cfg.L == 0 or net.slot == cfg.T:
                stats["kept"] += int(np.sum(~updated))
            return sent, updated

        monkeypatch.setattr(decentralized, "init_round", lockstep_init)
        monkeypatch.setattr(decentralized, "slot_step", lockstep_slot)
        monkeypatch.setattr(decentralized, "_target_blocks", recording_blocks)
        results, messages = run_decentrex(data, config)
        rounds = len(results[0].iterations_per_centroid)
        assert not pending
        assert stats["rounds"] == rounds
        assert stats["slots"] == config.T * rounds
        assert messages == stats["slots"] * config.n_sensors * config.fanout
        return stats

    @pytest.mark.parametrize("fanout, slots", [(1, 300), (3, 60)])
    def test_dim2k4(self, monkeypatch, fanout, slots):
        config = ExperimentConfig(scenario="dim2k4", sigmas=(1.5,))
        data = generate_dataset(config, np.random.SeedSequence([0, 0, 0]))
        cfg = NetworkConfig(n_sensors=400, T=slots, L=30, fanout=fanout, seed=fanout)
        stats = self._lockstep_run(monkeypatch, data, cfg)
        assert stats["updates"] > 0

    def test_dim2k4_block_boundary_inside_an_epoch(self, monkeypatch):
        # 7-slot blocks at fanout 2 (7 · 2 · 3 · 400 indices): block
        # boundaries fall inside 10-slot epochs, and T = 47 ends each round
        # on a 5-slot block inside its fifth epoch.
        config = ExperimentConfig(scenario="dim2k4", sigmas=(1.5,))
        data = generate_dataset(config, np.random.SeedSequence([0, 0, 0]))
        cfg = NetworkConfig(n_sensors=400, T=47, L=10, fanout=2, seed=2)
        monkeypatch.setattr(decentralized, "BUDGET", 8 * 7 * 2 * 3 * 400)
        stats = self._lockstep_run(monkeypatch, data, cfg)
        assert stats["updates"] > 0
        assert set(stats["block_slots"]) == {7, 5}

    def test_dim100k10_with_underflow(self, monkeypatch):
        config = ExperimentConfig(scenario="dim100k10", n=100, sigmas=(1.0,))
        data = generate_dataset(config, np.random.SeedSequence([0, 0, 0]))
        cfg = NetworkConfig(n_sensors=100, T=100, L=10, seed=np.random.SeedSequence([0, 0, 0, 0]))
        stats = self._lockstep_run(monkeypatch, data, cfg)
        assert stats["kept"] > 0


class TestTargetBlocks:
    """A round's targets drawn in blocks are the draws of one slot after
    another, and leave the generator where those draws leave it."""

    @pytest.mark.parametrize("slots", [1, 7, 300])
    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("fanout", [1, 3])
    @pytest.mark.parametrize("slots_per_block", [None, 2])
    def test_blocks_replay_per_slot_draws(self, slots_per_block, fanout, n, slots):
        # None draws the whole round as one block.
        self._check_replay(n, fanout, slots, slots_per_block or slots, seed=n + fanout + slots)

    @pytest.mark.parametrize("n", [400, 401])
    def test_gossip_round_in_one_block(self, n):
        (block,) = _target_blocks(n, 1, 300, 300, np.random.default_rng(0))
        assert block.shape == (300, n, 1)
        self._check_replay(n, 1, 300, 300, seed=n)

    def _check_replay(self, n, fanout, slots, per_block, seed):
        blocked, single = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = np.concatenate(list(_target_blocks(n, fanout, slots, per_block, blocked)))
        want = np.stack([pick_targets(n, fanout, single) for _ in range(slots)])
        assert np.array_equal(drawn, want)
        assert blocked.bit_generator.state == single.bit_generator.state
        assert np.array_equal(blocked.integers(0, 5, size=3), single.integers(0, 5, size=3))
        assert np.array_equal(blocked.choice(n, size=3), single.choice(n, size=3))

    def test_fanout_draws_are_distinct_uniform_subsets(self):
        # Each sender's targets are distinct, never itself, and every subset
        # of `fanout` of the other n - 1 sensors is equally likely.
        n, fanout, slots = 6, 3, 4000
        drawn = np.concatenate(list(_target_blocks(n, fanout, slots, slots, np.random.default_rng(0))))
        sender = np.arange(n)[None, :, None]
        assert not np.any(drawn == sender)
        ordered = np.sort(drawn, axis=2)
        assert np.all(np.diff(ordered, axis=2) > 0)
        # Index the subset by its candidates 0..n-2, the sender removed.
        candidates = ordered - (ordered > sender)
        subsets = list(itertools.combinations(range(n - 1), fanout))
        index = {s: i for i, s in enumerate(subsets)}
        counts = np.bincount([index[tuple(row)] for row in candidates.reshape(-1, fanout).tolist()])
        assert counts.size == len(subsets)
        assert chisquare(counts).pvalue > 0.01

    def test_full_fanout_blocks_stay_within_budget(self):
        # A whole round at n = 400, fanout 399, T = 300 would be 383 MB; a
        # one-slot block takes 1.3 MB, and the loop keeps at most two.
        blocks = _target_blocks(400, 399, 300, 1, np.random.default_rng(0))
        tracemalloc.start()
        try:
            for block in itertools.islice(blocks, 3):
                assert block.shape == (1, 400, 399)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * BUDGET

    @staticmethod
    def _flat_row_buffers(monkeypatch, data, cfg):
        """The arrays of which slot_step got its flat push rows in one run,
        the bytes of one slot's rows and the run's peak traced memory."""
        buffers, real_slot = {}, decentralized.slot_step

        def recording_slot(net, cfg, rows):
            buffers[id(rows.base)] = rows.base
            return real_slot(net, cfg, rows)

        monkeypatch.setattr(decentralized, "slot_step", recording_slot)
        tracemalloc.start()
        try:
            run_decentrex(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return list(buffers.values()), 8 * cfg.fanout * (data.d + 1) * data.n, peak

    def test_full_fanout_flat_rows_hold_one_slot(self, monkeypatch):
        # One slot's flat rows at n = 400 and fanout 399 take 3.8 MB, more
        # than BUDGET: the run's one buffer holds that slot and no more, and
        # the run's peak stays within four budgets past that slot.
        config = ExperimentConfig(scenario="dim2k4", sigmas=(1.5,))
        data = generate_dataset(config, np.random.SeedSequence([0, 0, 0]))
        cfg = NetworkConfig(n_sensors=400, T=2, L=1, fanout=399)
        (buffer,), slot_bytes, peak = self._flat_row_buffers(monkeypatch, data, cfg)
        assert slot_bytes > BUDGET
        assert buffer.nbytes == slot_bytes
        assert peak < slot_bytes + 4 * BUDGET

    def test_flat_rows_stay_within_budget_at_d100(self, monkeypatch):
        # A whole 100-slot round at d = 100 and n = 100 would be 8 MB of
        # indices; the run's one buffer takes as many slots as fit BUDGET,
        # and the run's peak stays within four budgets past one slot.
        config = ExperimentConfig(scenario="dim100k10", n=100, sigmas=(1.0,))
        data = generate_dataset(config, np.random.SeedSequence([0, 0, 0]))
        cfg = NetworkConfig(n_sensors=100, T=100, L=10)
        (buffer,), slot_bytes, peak = self._flat_row_buffers(monkeypatch, data, cfg)
        assert BUDGET - slot_bytes < buffer.nbytes <= BUDGET
        assert peak < slot_bytes + 4 * BUDGET


def _straddling_rounds(rng, n, k, d, counts, r, wald_cfg):
    """K (n, d) round estimates in which estimate j sits from an earlier one,
    row by row, at 1/4, 0.9, 1, 1.1 or 4 times their fusion threshold, so
    that a pair can pass on some rows and fail on others."""
    rounds = [rng.standard_normal((n, d)) * 3.0]
    for j in range(1, k):
        i = int(rng.integers(j))
        step = rng.standard_normal(d)
        step /= np.linalg.norm(step)
        thr = fusion_sigma(r, counts[i], counts[j]) * wald_cfg.threshold
        factor = rng.choice([0.25, 0.9, 1.0, 1.1, 4.0], size=(n, 1))
        rounds.append(rounds[i] + factor * thr * step)
    return rounds


def _group_of_each_row(groups, n):
    """{row: (group cents, group counts, position in the group)}."""
    found = {}
    for rows, cents, counts in groups:
        for at, s in enumerate(np.arange(n)[rows]):
            assert s not in found
            found[int(s)] = (cents, counts, at)
    assert sorted(found) == list(range(n))
    return found


class TestSharedFuseScan:
    """fuse on (n, d) blocks gives every row, bit for bit, what the scan of
    that row's list alone gives, also where a pair splits the rows."""

    def _check_rows(self, rounds, counts, r, wald_cfg):
        n = len(rounds[0])
        want = [scalar_fuse([est[s].copy() for est in rounds], counts, r, wald_cfg) for s in range(n)]
        groups = fuse(rounds, counts, r, wald_cfg)
        for s, (cents, got_counts, at) in _group_of_each_row(groups, n).items():
            assert _same_bits(cents[at], want[s][0])
            assert np.array_equal(got_counts, want[s][1])
        return groups

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 6),
        k=st.integers(1, 8),
        d=st.sampled_from([1, 2, 8, 100]),
        supports=st.lists(st.integers(1, 50), min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_the_scalar_scan(self, n, k, d, supports, seed):
        wald_cfg, r = WaldConfig(d=d, gamma=1e-3), math.sqrt(9 / 8)
        counts = supports[:k]
        rounds = _straddling_rounds(np.random.default_rng(seed), n, k, d, counts, r, wald_cfg)
        self._check_rows(rounds, counts, r, wald_cfg)

    def test_rows_split_where_a_pair_straddles(self):
        # Row 0 merges (0, 1) and then the midpoint with 2; row 1 merges
        # (0, 2) only; row 2 merges nothing.
        wald_cfg, r, counts = WaldConfig(d=2, gamma=1e-3), 1.0, [4, 4, 4]
        thr = fusion_sigma(r, 4, 4) * wald_cfg.threshold
        rounds = [
            np.zeros((3, 2)),
            np.array([[0.5, 0.0], [2.0, 0.0], [2.0, 0.0]]) * thr,
            np.array([[0.0, 0.5], [0.0, 0.5], [0.0, 2.0]]) * thr,
        ]
        groups = self._check_rows(rounds, counts, r, wald_cfg)
        assert sorted(len(c) for _, _, c in groups) == [1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        k=st.integers(1, 8),
        d=st.sampled_from([1, 2, 8, 100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sensor_results_match_per_row_fuse_and_classify(self, n, k, d, seed):
        # run_decentrex on the given round estimates: each sensor's
        # centroids, supports and label are those of its own scan and of
        # classify on its own observation.
        rng = np.random.default_rng(seed)
        wald_cfg, r = WaldConfig(d=d, gamma=1e-3), math.sqrt(r_squared(KernelSpec("wald", d)))
        counts = [n / k] * k
        rounds = _straddling_rounds(rng, n, k, d, counts, r, wald_cfg)
        near = np.stack(rounds)[rng.integers(k, size=n), np.arange(n)]
        data = Dataset(points=2.0 * (near + 0.1 * rng.standard_normal((n, d))), sigma=2.0)
        want = [scalar_fuse([est[s].copy() for est in rounds], counts, r, wald_cfg) for s in range(n)]
        recovered = ([est.copy() for est in rounds], [1] * k, [3] * k, [True] * k)
        with mock.patch.object(decentralized, "recover", return_value=recovered):
            results, _ = run_decentrex(data, NetworkConfig(n_sensors=n, T=3, L=1))
        pts = data.normalized_points()
        for s, (result, (cents, fused_counts)) in enumerate(zip(results, want)):
            assert _same_bits(result.centroids, cents * 2.0)
            assert np.array_equal(result.support_counts, np.rint(fused_counts).astype(int))
            assert result.k_hat == len(cents)
            assert np.array_equal(result.assignments, classify(pts[s : s + 1], cents))


def test_fusion_reads_the_round_estimates_in_place(monkeypatch):
    # On seed 1's dim100k10 layout at 1.05 sigma_lim a run holds about 75
    # rounds of (100, 100) estimates (6 MB); fusing and labelling them takes
    # no second copy of them.
    config = ExperimentConfig(scenario="dim100k10", n=100, seed=1)
    lim = sigma_lim(config.centroids, 1e-3, 100)
    data = generate_dataset(config, np.random.SeedSequence([1, 2, 0]), sigma=1.05 * lim)
    cfg = NetworkConfig(n_sensors=100, T=100, L=10, seed=np.random.SeedSequence([1, 2, 0, 2]))
    held = []
    real_recover = decentralized.recover

    def recording_recover(*args):
        out = real_recover(*args)
        held.append(sum(est.nbytes for est in out[0]))
        return out

    monkeypatch.setattr(decentralized, "recover", recording_recover)
    tracemalloc.start()
    try:
        run_decentrex(data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held[0] > 4e6
    assert peak < 1.5 * held[0]
