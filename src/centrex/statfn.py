"""Special functions, kernels, and statistical constants.

Everything here is a pure function of its arguments; Monte-Carlo variants
take an explicit seed.  r_squared is memoized by value: computed once per
arguments and process, by a composite Gauss-Legendre rule (Golub & Welsch
1969) for the Wald kernel and in closed form for the gaussian one.

One norm test marks points (WaldConfig), weights them (its p-value, weight)
and, scaled by fusion_sigma, merges centroids.  Its threshold mu is the
square root of chi2_d's upper-gamma quantile.

The chi-square functions come from scipy.special (gammaincc, chdtri, and
the density expression of scipy.stats.chi2.pdf), so importing this module
loads no part of scipy but scipy.special.
At d = 2 the p-value is Q(1, x) = exp(-x) (for integer a, Q(a, x) is exp(-x)
times the first a terms of e^x's series; DLMF 8.4), and weight and marcum_q
take np.exp: against 50-digit mpmath on x in [0, 700] it is at most 0.54 eps
off, gammaincc(1, x) up to 257 eps.  Other d keep gammaincc: at d = 100 the
finite sum underflows differently where the weights vanish, which is h_map's
fallback path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtri, gammaincc, gammaln, xlogy

__all__ = [
    "KernelSpec",
    "WaldConfig",
    "fusion_sigma",
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
        if self.kind == "gaussian" and not 0 < self.beta < np.inf:
            raise ValueError("gaussian kernel needs a finite beta > 0")


def marcum_q(a: float, x: float) -> float:
    """Survival function of the chi-square with 2a degrees of freedom at x^2:
    the regularized upper incomplete gamma Gamma(a, x^2/2) / Gamma(a).

    At a = 1 it is exp(-x^2/2), the d = 2 weight at u = 2 x^2, bit for bit."""
    if not (np.isfinite(a) and np.isfinite(x)):
        raise ValueError("marcum_q requires finite arguments")
    if a <= 0 or x < 0:
        raise ValueError("marcum_q requires a > 0 and x >= 0")
    if a == 1:
        return float(np.exp(-0.5 * x * x))
    return float(gammaincc(a, 0.5 * x * x))


def threshold_mu(d: int, gamma: float) -> float:
    """Normalized test threshold: the mu with marcum_q(d/2, mu) = gamma, the
    square root of chi2_d's upper-gamma quantile."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return math.sqrt(chdtri(d, gamma))


@dataclass(frozen=True)
class WaldConfig:
    """Test of zero mean for a N(xi, I_d) observation at level gamma.

    The zero-mean hypothesis is accepted iff the norm is at most threshold,
    the mu with marcum_q(d/2, mu) = gamma; it is computed once, at construction.
    """

    d: int
    gamma: float
    threshold: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "threshold", threshold_mu(self.d, self.gamma))


def fusion_sigma(r: float, n_k: int, n_l: int) -> float:
    """Scale of the difference of two centroid estimates with supports n_k, n_l.

    Takes validated input: r > 0 and positive supports, as fuse passes them.
    """
    return r * math.sqrt(1.0 / n_k + 1.0 / n_l)


def weight(kernel: KernelSpec, u):
    """Evaluate the kernel at squared distances u, a float or an array of them.

    The p-value kernel is marcum_q(d/2, sqrt(u/2)), which is exp(-u/4) at
    d = 2 and gammaincc(d/2, u/4) at any other d (see the module docstring);
    the gaussian kernel is exp(-beta * u).  Values lie in [0, 1] and decrease
    in u; they underflow to 0 for u/4 past about 745 at d = 2.  Takes
    validated input: u finite and nonnegative, as every distance between the
    points of a Dataset is.
    """
    if kernel.kind == "wald":
        if kernel.d == 2:
            return np.exp(-0.25 * u)
        return gammaincc(0.5 * kernel.d, 0.25 * u)
    return np.exp(-kernel.beta * u)


def _chi2_pdf(s, d):
    """Density of chi2_d at s, the expression scipy.stats.chi2.pdf evaluates."""
    return np.exp(xlogy(d / 2 - 1, s) - s / 2 - gammaln(d / 2) - (np.log(2) * d) / 2)


def _wald_moments(d):
    """(E[w^2], E[w]) of the Wald kernel under chi2_d: 16 Gauss-Legendre nodes on each panel, at
    most 0.5 wide (chi2_d's bulk is about 0.7 wide in t for every d), of t = sqrt(s) in
    [0, sqrt(chdtri(d, 1e-16))]; t removes d = 1's s^(-1/2) singularity.  Dividing by the rule's
    integral of the density cancels the rounding of its normalizing constant (1e-12 at d = 5000)."""
    t_max = math.sqrt(chdtri(d, 1e-16))
    panels = math.ceil(t_max / 0.5)
    h = t_max / panels
    x, gw = np.polynomial.legendre.leggauss(16)
    t = ((np.arange(panels)[:, None] + (x + 1) / 2) * h).ravel()
    dens = np.tile(gw * h, panels) * t * _chi2_pdf(t * t, d)  # ds = 2t dt, dt = h/2 dx
    w, total = weight(KernelSpec("wald", d), t * t), math.fsum(dens)
    return math.fsum(w * w * dens) / total, math.fsum(w * dens) / total


@functools.lru_cache(maxsize=None)
def r_squared(
    kernel: KernelSpec, method: str = "quadrature", sample_count: int = 10000, seed: int = 0
) -> float:
    """Variance-inflation constant r^2 = E[w(S)^2] / E[w(S)]^2 of the kernel's
    weight w, with S ~ chi2_d and d = kernel.d.

    The quadrature method is deterministic: chi2_d's moment generating function,
    E[exp(-c S)] = (1 + 2c)^(-d/2), for the gaussian kernel; _wald_moments for the
    Wald one, whose r^2 is within 1e-15 of 40-digit mpmath at each d tested from 1
    to 5000 and 9/8 exactly at d = 2.  The Monte-Carlo method averages over Gaussian draws.
    """
    d = kernel.d
    if method == "quadrature" and kernel.kind == "gaussian":
        second, first = (1 + 4 * kernel.beta) ** (-d / 2), (1 + 2 * kernel.beta) ** (-d / 2)
    elif method == "quadrature":
        second, first = _wald_moments(d)
    elif method == "montecarlo":
        if sample_count < 1000:
            raise ValueError("montecarlo needs at least 1000 samples")
        rng = np.random.default_rng(seed)
        s = np.sum(rng.standard_normal((sample_count, d)) ** 2, axis=1)
        w = weight(kernel, s)
        second, first = np.mean(w**2), np.mean(w)
    else:
        raise ValueError(f"unknown method {method!r}")
    if not first**2 > 0.0:
        raise ValueError(f"E[w]^2 underflows for {kernel}, so r^2 cannot be computed")
    value = float(second / first**2)
    if value < 1.0 - 1e-9:
        raise ValueError("r^2 cannot be below 1 (Jensen)")
    return value
