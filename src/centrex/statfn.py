"""Special functions, kernels, and statistical constants.

Everything here is a pure function of its arguments; Monte-Carlo variants
take an explicit seed.  The two constants that cost a root solve or a
quadrature, threshold_mu and r_squared, are therefore memoized by value: each
is computed on its first call with given arguments and reused for the rest of
the process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import gammaincc
from scipy.stats import chi2

__all__ = [
    "KernelSpec",
    "RSquared",
    "marcum_q",
    "threshold_mu",
    "weight",
    "r_squared",
]


@dataclass(frozen=True)
class KernelSpec:
    """Weight kernel used by the centroid M-estimation.

    kind is "wald" (p-value of the norm test, parameter-free) or "gaussian"
    (exponential kernel with inverse-bandwidth beta).  Both act on squared
    distances between normalized points, whose noise scale is 1.
    """

    kind: str
    d: int
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("wald", "gaussian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.d < 1:
            raise ValueError("kernel dimension must be >= 1")
        if self.kind == "gaussian" and self.beta <= 0:
            raise ValueError("gaussian kernel needs beta > 0")


@dataclass(frozen=True)
class RSquared:
    """Variance-inflation constant E[w^2]/E[w]^2 under standard Gaussian noise."""

    value: float
    d: int
    method: str
    sample_count: int | None = None

    def __post_init__(self):
        if self.value < 1.0 - 1e-9:
            raise ValueError("r^2 cannot be below 1 (Jensen)")


def marcum_q(a: float, x: float) -> float:
    """Survival function of the chi-square with 2a degrees of freedom at x^2:
    the regularized upper incomplete gamma Gamma(a, x^2/2) / Gamma(a)."""
    if not (np.isfinite(a) and np.isfinite(x)):
        raise ValueError("marcum_q requires finite arguments")
    if a <= 0 or x < 0:
        raise ValueError("marcum_q requires a > 0 and x >= 0")
    return float(gammaincc(a, 0.5 * x * x))


@functools.lru_cache(maxsize=None)
def threshold_mu(d: int, gamma: float) -> float:
    """Normalized test threshold: the unique mu with marcum_q(d/2, mu) = gamma,
    found by bracketed root finding."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    a = 0.5 * d

    def f(x):
        return marcum_q(a, x) - gamma

    hi = 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise RuntimeError("failed to bracket threshold")
    return float(brentq(f, 0.0, hi, xtol=1e-13, rtol=8.9e-16, maxiter=200))


def weight(kernel: KernelSpec, u):
    """Evaluate the kernel at squared distance u.  Accepts scalars or arrays.

    The p-value kernel is marcum_q(d/2, sqrt(u/2)); the gaussian kernel is
    exp(-beta * u).  Values lie in (0, 1] and decrease in u.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0) or not np.all(np.isfinite(u_arr)):
        raise ValueError("squared distance must be finite and nonnegative")
    if kernel.kind == "wald":
        out = gammaincc(0.5 * kernel.d, 0.25 * u_arr)
    else:
        out = np.exp(-kernel.beta * u_arr)
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(out)
    return out


@functools.lru_cache(maxsize=None)
def r_squared(
    d: int,
    method: str = "quadrature",
    sample_count: int = 10000,
    seed: int = 0,
    kernel: KernelSpec | None = None,
) -> RSquared:
    """Variance-inflation constant r^2 = E[w(S)^2] / E[w(S)]^2 with S ~ chi2_d.

    The quadrature method integrates both expectations against the chi2_d
    density (deterministic); the Monte-Carlo method averages over seeded
    standard Gaussian draws.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if kernel is None:
        kernel = KernelSpec("wald", d)
    if method == "quadrature":
        upper = float(chi2.isf(1e-16, d))

        def ew(power):
            val, _ = integrate.quad(
                lambda s: weight(kernel, s) ** power * chi2.pdf(s, d),
                0.0,
                upper,
                epsabs=0.0,
                epsrel=1e-11,
                limit=400,
            )
            return val

        value = ew(2) / ew(1) ** 2
        return RSquared(value=float(value), d=d, method="quadrature")
    if method == "montecarlo":
        if sample_count < 1000:
            raise ValueError("montecarlo needs at least 1000 samples")
        rng = np.random.default_rng(seed)
        s = np.sum(rng.standard_normal((sample_count, d)) ** 2, axis=1)
        w = weight(kernel, s)
        value = float(np.mean(w**2) / np.mean(w) ** 2)
        return RSquared(value=value, d=d, method="montecarlo", sample_count=sample_count)
    raise ValueError(f"unknown method {method!r}")
