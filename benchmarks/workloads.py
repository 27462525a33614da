"""Workload definitions for the centrex benchmark.

Importing this module puts the checkout's own ``src/`` first on the import
path and refuses any other copy of ``centrex``, so the benchmark always
measures the source tree it ships with.

A workload is a plan: one ``harness.run_experiment`` sweep per algorithm,
all over the same scenario and sigma grid, so every algorithm sees the same
seeded datasets.  Sweeps marked ``timed`` feed the end-to-end metrics; the
others still count as attempted and failed cells.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import centrex  # noqa: E402
from centrex import harness  # noqa: E402
from centrex.centralized import sigma_lim  # noqa: E402

if not Path(centrex.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"centrex was imported from {centrex.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Sweep:
    algorithm: str
    trials: int  # per sigma and pass; every pass draws new datasets
    timed: bool = True
    options: tuple = ()  # extra ExperimentConfig fields as (name, value) pairs


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: tuple  # ExperimentConfig fields as (name, value) pairs
    sigmas: tuple  # absolute values, or factors of sigma_lim when relative
    sweeps: tuple
    relative_sigmas: bool = False

    def plan(self, seed: int) -> list:
        """(Sweep, ExperimentConfig) pairs for one workload seed.

        The config seed is the workload seed, so datasets follow the
        harness's own SeedSequence([seed, sigma_index, trial]) derivation.
        """
        base = harness.ExperimentConfig(**dict(self.scenario), seed=seed)
        sigmas = self.sigmas
        if self.relative_sigmas:
            lim = sigma_lim(base.centroids, base.gamma, base.d)
            sigmas = tuple(f * lim for f in self.sigmas)
        return [
            (
                sweep,
                dataclasses.replace(
                    base,
                    sigmas=sigmas,
                    trials=sweep.trials,
                    algorithms=(sweep.algorithm,),
                    record_runtime=True,
                    **dict(sweep.options),
                ),
            )
            for sweep in self.sweeps
        ]

    @property
    def timed(self) -> list:
        return [s.algorithm for s in self.sweeps if s.timed]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planar",
            scenario=(("scenario", "dim2k4"),),
            # An odd number of sigmas puts the median cell in the middle one.
            sigmas=(1.0, 1.75, 2.5),
            sweeps=(Sweep("centrex", trials=2), Sweep("kmeans100", trials=2)),
        ),
        Workload(
            name="highdim",
            scenario=(("scenario", "dim100k10"), ("n", 100)),
            sigmas=(0.1, 0.55, 1.05),
            relative_sigmas=True,
            sweeps=(
                Sweep("centrex", trials=2),
                Sweep("kmeans100", trials=2),
                # Run once per pass for failure accounting only: the sweep
                # raises today, and a fix must not move the timed metrics.
                Sweep("decentrex", trials=1, timed=False, options=(("slots_t", 100), ("update_l", 10))),
            ),
        ),
        Workload(
            name="gossip",
            scenario=(("scenario", "dim2k4"),),
            sigmas=(1.5,),
            sweeps=(Sweep("decentrex", trials=3),),
        ),
    )
}
