import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrex
from centrex.statfn import KernelSpec, RSquared, marcum_q, r_squared, threshold_mu, weight

from oracles import chi2_survival


class TestMarcumQ:
    def test_survival_at_zero(self):
        assert marcum_q(1, 0) == 1.0

    def test_d2_closed_form(self):
        # chi2_2 survival at x^2 is exp(-x^2/2)
        assert marcum_q(1, 3.71692) == pytest.approx(1.0e-3, abs=1e-8)

    def test_matches_independent_incomplete_gamma(self):
        for d in (1, 2, 5, 100):
            for x in np.linspace(0.0, 20.0, 81):
                got = marcum_q(d / 2, x)
                want = chi2_survival(d, x * x)
                assert got == pytest.approx(want, abs=1e-9)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 20, 100)
        vals = [marcum_q(2.5, x) for x in xs]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q(0, 1)
        with pytest.raises(ValueError):
            marcum_q(1, -1)
        with pytest.raises(ValueError):
            marcum_q(1, float("nan"))


class TestThresholdMu:
    def test_d2_closed_forms(self):
        assert threshold_mu(2, 1e-3) == pytest.approx(math.sqrt(2 * math.log(1e3)), abs=1e-4)
        assert threshold_mu(2, 0.5) == pytest.approx(math.sqrt(2 * math.log(2)), abs=1e-4)

    @pytest.mark.parametrize("d", [1, 2, 5, 100])
    @pytest.mark.parametrize("gamma", [1e-4, 1e-3, 0.1, 0.9])
    def test_round_trip(self, d, gamma):
        mu = threshold_mu(d, gamma)
        assert marcum_q(d / 2, mu) == pytest.approx(gamma, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            threshold_mu(2, 0.0)
        with pytest.raises(ValueError):
            threshold_mu(2, 1.0)


class TestWeight:
    def test_identity_at_zero(self):
        assert weight(KernelSpec("wald", 2), 0.0) == 1.0

    def test_d2_closed_form(self):
        assert weight(KernelSpec("wald", 2), 4.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_gaussian(self):
        k = KernelSpec("gaussian", 2, beta=1.0)
        assert weight(k, 1.0) == pytest.approx(math.exp(-1), rel=1e-12)

    @given(
        # u/4 stays well below ~700, where exp(-u/4) would underflow to 0
        u1=st.floats(0, 2.5e3),
        u2=st.floats(0, 2.5e3),
        d=st.integers(1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_and_bounded(self, u1, u2, d):
        k = KernelSpec("wald", d)
        lo, hi = sorted((u1, u2))
        w_lo, w_hi = weight(k, lo), weight(k, hi)
        assert 0.0 < w_lo <= 1.0
        if hi > lo:
            assert w_hi <= w_lo

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weight(KernelSpec("wald", 2), -0.1)


class TestRSquared:
    def test_d2_analytic(self):
        # ||X||^2 ~ Exp(1/2) for d=2, so E[w] = 2/3, E[w^2] = 1/2, ratio 9/8.
        assert r_squared(2).value == pytest.approx(1.125, abs=1e-6)

    def test_montecarlo_agrees(self):
        mc = r_squared(2, method="montecarlo", sample_count=10000, seed=123)
        assert mc.value == pytest.approx(1.125, abs=0.05)
        assert mc.sample_count == 10000

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100])
    def test_jensen_lower_bound(self, d):
        assert r_squared(d).value >= 1.0

    def test_montecarlo_seed_determinism(self):
        # r_squared is memoized, so the second value is computed uncached.
        a = r_squared(3, method="montecarlo", seed=7).value
        b = r_squared.__wrapped__(3, method="montecarlo", seed=7).value
        assert a == b

    def test_gaussian_kernel_closed_form(self):
        # E[exp(-b S)] = (1+2b)^(-d/2) for S ~ chi2_d.
        d, b = 4, 0.5
        want = ((1 + 2 * b) ** 2 / (1 + 4 * b)) ** (d / 2)
        got = r_squared(d, kernel=KernelSpec("gaussian", d, beta=b)).value
        assert got == pytest.approx(want, rel=1e-8)

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError):
            RSquared(value=0.5, d=2, method="quadrature")


class TestScoreFunctionBoundedness:
    @pytest.mark.parametrize("d", [1, 2, 10, 100])
    def test_redescending(self, d):
        k = KernelSpec("wald", d)
        t = np.linspace(0, 1e3, 2001)
        f = t * weight(k, t * t)
        assert np.all(np.isfinite(f))
        assert f[-1] < 1e-12
        # max attained in the interior, not at the right edge
        assert f.max() > f[-1]


class TestGaussianMomentIdentities:
    """Monte-Carlo checks of the expectation identities behind the
    fixed-point and error-model analysis (5-standard-error tolerances)."""

    N = 100_000

    def _draws(self, d, seed):
        return np.random.default_rng(seed).standard_normal((self.N, d))

    @pytest.mark.parametrize("d", [2, 5])
    def test_weighted_mean_zero_at_center(self, d):
        X = self._draws(d, 11)
        w = weight(KernelSpec("wald", d), np.sum(X * X, axis=1))
        m = np.mean(w[:, None] * X, axis=0)
        se = np.std(w[:, None] * X, axis=0) / math.sqrt(self.N)
        assert np.linalg.norm(m) <= 5 * np.linalg.norm(se)

    @pytest.mark.parametrize("d", [2, 5])
    def test_weight_vanishes_far_away(self, d):
        X = self._draws(d, 12)
        xi = np.zeros(d)
        xi[0] = 20 * math.sqrt(d)
        Z = xi + X
        w = weight(KernelSpec("wald", d), np.sum(Z * Z, axis=1))
        assert np.mean(w) <= 1e-6
        assert np.linalg.norm(np.mean(w[:, None] * Z, axis=0)) <= 1e-6

    @pytest.mark.parametrize("d", [2, 5])
    def test_squared_weight_correlation_is_isotropic(self, d):
        X = self._draws(d, 13)
        w2 = weight(KernelSpec("wald", d), np.sum(X * X, axis=1)) ** 2
        M = (w2[:, None, None] * X[:, :, None] * X[:, None, :]).mean(axis=0)
        se = (w2[:, None, None] * X[:, :, None] * X[:, None, :]).std(axis=0) / math.sqrt(self.N)
        # E[w^2 X X^T] = (E[w^2 ||X||^2] / d) I by spherical symmetry
        scalar = (w2 * np.sum(X * X, axis=1)).mean() / d
        scalar_se = (w2 * np.sum(X * X, axis=1)).std() / (d * math.sqrt(self.N))
        for i in range(d):
            for j in range(d):
                if i == j:
                    assert abs(M[i, i] - scalar) <= 5 * (se[i, i] + scalar_se)
                else:
                    assert abs(M[i, j]) <= 5 * se[i, j]


class TestMemoizedConstants:
    def test_r_squared_returns_one_object_per_arguments(self):
        kernel = KernelSpec("gaussian", 3, beta=0.5)
        first = r_squared(3, kernel=kernel)
        assert r_squared(3, kernel=KernelSpec("gaussian", 3, beta=0.5)) is first
        assert r_squared.__wrapped__(3, kernel=kernel) == first

    def test_threshold_mu_returns_one_float_per_arguments(self):
        first = threshold_mu(7, 1e-4)
        assert threshold_mu(7, 1e-4) is first
        assert threshold_mu.__wrapped__(7, 1e-4) == first

    def test_nothing_is_computed_at_import(self):
        code = (
            "import centrex, centrex.cli\n"
            "from centrex.statfn import r_squared, threshold_mu\n"
            "print(r_squared.cache_info().currsize, threshold_mu.cache_info().currsize)"
        )
        src = str(Path(centrex.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0"]
