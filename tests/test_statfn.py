import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import centrex
from centrex import statfn
from centrex.statfn import KernelSpec, marcum_q, r_squared, threshold_mu, weight

from oracles import chi2_survival, upper_gamma_regularized


class TestMarcumQ:
    def test_survival_at_zero(self):
        assert marcum_q(1, 0) == 1.0

    def test_d2_closed_form(self):
        # chi2_2 survival at x^2 is exp(-x^2/2)
        assert marcum_q(1, 3.71692) == pytest.approx(1.0e-3, abs=1e-8)

    def test_d2_is_the_d2_weight(self):
        # One p-value for one test: both are np.exp of the same exact argument.
        xs = np.concatenate([np.linspace(0.0, 40.0, 2001), [1e-160, 1e-5, 38.6, 38.7]])
        want = weight(KernelSpec("wald", 2), 2 * xs * xs)
        got = np.array([marcum_q(1, x) for x in xs])
        assert np.array_equal(got, want)
        assert all(marcum_q(1, x) == weight(KernelSpec("wald", 2), 2 * x * x) for x in xs)

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
        # chi2_2 survival at mu^2 is exp(-mu^2/2), so mu = sqrt(-2 ln gamma)
        for gamma in (1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9):
            assert threshold_mu(2, gamma) == pytest.approx(math.sqrt(-2 * math.log(gamma)), rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 5, 100])
    @pytest.mark.parametrize("gamma", [1e-4, 1e-3, 0.1, 0.9])
    def test_round_trip(self, d, gamma):
        mu = threshold_mu(d, gamma)
        assert marcum_q(d / 2, mu) == pytest.approx(gamma, abs=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 50, 100, 200])
    @pytest.mark.parametrize("gamma", [1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9])
    def test_survival_at_threshold_is_gamma(self, d, gamma):
        mu = threshold_mu(d, gamma)
        assert abs(chi2_survival(d, mu * mu) - gamma) <= 1e-12 * gamma

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

    # u/4 runs up to 700, where exp(-u/4) is still a normal float.
    D2_GRID = np.linspace(0.0, 2800.0, 4001)

    def test_d2_within_one_ulp(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            got = weight(KernelSpec("wald", 2), self.D2_GRID)
            for u, w in zip(self.D2_GRID, got):
                exact = mpmath.exp(-mpmath.mpf(float(u)) / 4)
                assert abs(mpmath.mpf(float(w)) - exact) <= np.spacing(float(exact)), u

    def test_d2_matches_independent_incomplete_gamma(self):
        # The oracle is itself up to 257 eps off (near u/4 = 590), so it
        # checks the closed form's value, not its last bits.
        got = weight(KernelSpec("wald", 2), self.D2_GRID)
        want = [upper_gamma_regularized(1, u / 4) for u in self.D2_GRID]
        assert got == pytest.approx(want, rel=1e-12, abs=0)

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

    def test_empty_accepted(self):
        # A gossip slot may refresh no sensor at all.
        assert weight(KernelSpec("wald", 2), np.empty(0)).shape == (0,)


class TestRSquared:
    def test_d2_analytic(self):
        # ||X||^2 ~ Exp(1/2) for d=2, so E[w] = 2/3, E[w^2] = 1/2, ratio 9/8.
        assert r_squared(KernelSpec("wald", 2)) == pytest.approx(1.125, abs=1e-6)

    def test_montecarlo_agrees(self):
        mc = r_squared(KernelSpec("wald", 2), method="montecarlo", sample_count=10000, seed=123)
        assert mc == pytest.approx(1.125, abs=0.05)

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100])
    def test_jensen_lower_bound(self, d):
        assert r_squared(KernelSpec("wald", d)) >= 1.0

    def test_montecarlo_seed_determinism(self):
        # r_squared is memoized, so the second value is computed uncached.
        a = r_squared(KernelSpec("wald", 3), method="montecarlo", seed=7)
        b = r_squared.__wrapped__(KernelSpec("wald", 3), method="montecarlo", seed=7)
        assert a == b

    def test_gaussian_kernel_closed_form(self):
        # E[exp(-b S)] = (1+2b)^(-d/2) for S ~ chi2_d.
        d, b = 4, 0.5
        want = ((1 + 2 * b) ** 2 / (1 + 4 * b)) ** (d / 2)
        got = r_squared(KernelSpec("gaussian", d, beta=b))
        assert abs(got - want) <= math.ulp(want)

    PINNED = [
        ("wald", 1, 1.0, "0x1.2b7a821ad8a21p+0"),
        ("wald", 2, 1.0, "0x1.2000000000000p+0"),
        ("wald", 7, 1.0, "0x1.0d05325c79548p+0"),
        ("wald", 100, 1.0, "0x1.00004eca9bcfcp+0"),
        ("wald", 300, 1.0, "0x1.0000000000159p+0"),
        ("gaussian", 4, 0.5, "0x1.c71c71c71c71cp+0"),
        ("gaussian", 100, 2.0, "0x1.9ee1f379b9cc4p+73"),
        ("gaussian", 300, 0.1, "0x1.11abb9397ce8ep+6"),
    ]

    @pytest.mark.parametrize("kind, d, beta, want", PINNED)
    def test_quadrature_values_pinned(self, kind, d, beta, want):
        # Recorded from the Gauss-Legendre rule and the closed forms, each
        # checked first against the 40-digit references of the next test.
        assert r_squared.__wrapped__(KernelSpec(kind, d, beta=beta)).hex() == want

    @pytest.mark.parametrize("kind, d, beta", [case[:3] for case in PINNED])
    def test_matches_mpmath(self, kind, d, beta):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            half, b = mp.mpf(d) / 2, mp.mpf(beta)
            if kind == "gaussian":
                want = (1 + 4 * b) ** -half / ((1 + 2 * b) ** -half) ** 2
                # The bases 1 + 2b and 1 + 4b are rounded to doubles, and the power
                # d/2 magnifies that: 2e-15 relative at d = 300, beta = 0.1.
                tol = 1e-14
            else:
                # E[w] = P(chi2_d <= 2 chi2'_d) = I_{2/3}(d/2, d/2).  E[w^2] is
                # integrated over s = t^2 with breaks at chi2_d's bulk.
                first = mp.betainc(half, half, 0, mp.mpf(2) / 3, regularized=True)
                w = lambda s: mp.gammainc(half, s / 4, mp.inf, regularized=True)
                pdf = lambda s: mp.exp((half - 1) * mp.log(s) - s / 2 - mp.loggamma(half) - half * mp.log(2))
                spread = 12 * mp.sqrt(4 * half)
                breaks = sorted({mp.sqrt(max(2 * half + k * spread, 0)) for k in (-1, 0, 1)} | {0, mp.inf})
                second = mp.quad(lambda t: w(t * t) ** 2 * pdf(t * t) * 2 * t, breaks)
                want = second / first**2
                tol = 2e-15  # the rule's worst error, at d = 1, is 9.4e-16
            got = r_squared.__wrapped__(KernelSpec(kind, d, beta=beta))
            assert abs(got - want) / want <= tol

    def test_underflowing_mean_weight_rejected(self):
        # E[w] = 5^-250 for this kernel, and its square underflows to zero.
        with pytest.raises(ValueError, match=r"underflows for KernelSpec\(kind='gaussian', d=500"):
            r_squared.__wrapped__(KernelSpec("gaussian", 500, beta=2.0))

    def test_invalid_value_rejected(self, monkeypatch):
        # A rule giving 2 for both expectations makes r^2 = 2 / 2^2 = 0.5,
        # below Jensen's bound of 1, which r_squared must refuse.
        monkeypatch.setattr(statfn, "_wald_moments", lambda d: (2.0, 2.0))
        with pytest.raises(ValueError, match="Jensen"):
            r_squared.__wrapped__(KernelSpec("wald", 2))


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


class TestChi2FromSpecialFunctions:
    """r_squared takes chi2_d's quantile and density from scipy.special with
    the bits scipy.stats.chi2 gives."""

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 50, 100, 120, 200, 300, 500])
    def test_density_matches_scipy_stats(self, d):
        upper = chi2.isf(1e-16, d)
        assert statfn.chdtri(d, 1e-16) == upper
        grid = np.concatenate([np.geomspace(1e-300, 1.0, 200), np.linspace(1e-3, upper, 2000)])
        got = np.array([statfn._chi2_pdf(float(s), d) for s in grid])
        assert np.array_equal(got, chi2.pdf(grid, d))


class TestMemoizedConstants:
    def test_r_squared_returns_one_object_per_arguments(self):
        kernel = KernelSpec("gaussian", 3, beta=0.5)
        first = r_squared(kernel)
        assert r_squared(KernelSpec("gaussian", 3, beta=0.5)) is first
        assert r_squared.__wrapped__(kernel) == first

    def test_nothing_is_computed_at_import(self):
        code = (
            "import centrex, centrex.cli\n"
            "from centrex.statfn import r_squared\n"
            "print(r_squared.cache_info().currsize)"
        )
        src = str(Path(centrex.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0"]

    def test_running_a_pipeline_does_not_import_scipy_stats(self, tmp_path):
        # scipy.integrate, scipy.optimize and scipy.stats each add start-up time
        # and memory to every process; no pipeline, sweep, CLI or r^2 path needs them.
        code = (
            "import sys\n"
            "import centrex, centrex.cli\n"
            "from centrex.harness import ExperimentConfig, run_experiment\n"
            "from centrex.statfn import KernelSpec, r_squared\n"
            "config = ExperimentConfig(scenario='dim2k4', n=40, algorithms=('centrex', 'decentrex', 'kmeans10'),\n"
            "                          slots_t=20, update_l=5)\n"
            f"run_experiment(config, out_dir={str(tmp_path)!r})\n"
            "r_squared(KernelSpec('wald', 3)), r_squared(KernelSpec('gaussian', 3, beta=0.5))\n"
            "print(*(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.stats') if m in sys.modules))"
        )
        src = str(Path(centrex.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == []
        assert (tmp_path / "results.csv").exists()
