import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrex.statfn import marcum_q
from centrex.wald import WaldConfig, fusion_sigma


class TestWaldConfig:
    def test_threshold_consistent(self):
        for d, gamma in [(2, 1e-3), (2, 1e-2), (100, 1e-3)]:
            cfg = WaldConfig(d=d, gamma=gamma)
            assert marcum_q(d / 2, cfg.threshold) == pytest.approx(gamma, abs=1e-9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            WaldConfig(d=2, gamma=1.5)


class TestWaldDecide:
    @pytest.mark.parametrize("d", [2, 100])
    @pytest.mark.parametrize("gamma", [1e-3, 1e-2])
    def test_false_alarm_level(self, d, gamma):
        n = 10_000
        cfg = WaldConfig(d=d, gamma=gamma)
        rng = np.random.default_rng(d * 1000 + int(1 / gamma))
        z = rng.standard_normal((n, d))
        rejects = np.linalg.norm(z, axis=1) > cfg.threshold
        se = math.sqrt(gamma * (1 - gamma) / n)
        assert abs(rejects.mean() - gamma) <= 4 * se


class TestFusionSigma:
    def test_reference_value(self):
        assert fusion_sigma(math.sqrt(9 / 8), 100, 100) == pytest.approx(0.15, abs=1e-5)

    def test_symmetric_counts(self):
        r = 1.3
        assert fusion_sigma(r, 50, 50) == pytest.approx(r * math.sqrt(2 / 50), rel=1e-12)

    @given(
        n_k=st.integers(1, 10_000),
        n_l=st.integers(1, 10_000),
    )
    @settings(max_examples=50, deadline=None)
    def test_decreasing_in_counts(self, n_k, n_l):
        base = fusion_sigma(1.0, n_k, n_l)
        assert fusion_sigma(1.0, n_k + 1, n_l) < base
        assert fusion_sigma(1.0, n_k, n_l + 1) < base

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError):
            fusion_sigma(1.0, 0, 5)
