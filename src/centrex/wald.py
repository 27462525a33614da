"""The zero-mean norm test the pipelines run, and the scale of its fusion form."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .statfn import threshold_mu

__all__ = ["WaldConfig", "fusion_sigma"]


@dataclass(frozen=True)
class WaldConfig:
    """Test of zero mean for a N(xi, I_d) observation at level gamma.

    The zero-mean hypothesis is accepted iff the norm is at most threshold,
    the mu with marcum_q(d/2, mu) = gamma; it is solved once, at construction.
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
