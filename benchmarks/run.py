#!/usr/bin/env python3
"""Benchmark of the centrex pipelines and the sweep harness.

    python3 benchmarks/run.py --workload planar --seed 1 --seconds 30 --trace 0

Each workload is a closed loop in one process: it runs its plan (one
``harness.run_experiment`` sweep per algorithm, with per-cell runtimes and
``out_dir`` output on) pass after pass, for about ``--seconds``, and until
every timed algorithm has ``MIN_SAMPLES`` cell timings.  Each pass has a seed
of its own, so a run measures many distinct datasets; afterwards a few cells
of the first pass are replayed and must give the same rows.  BLAS and OpenMP
run one thread unless the environment says otherwise.  ``--trace 1`` runs
half the time untraced and half with every layer wrapped (see ``tracer.py``)
and reports per-layer metrics instead of end-to-end ones.  ``--workload all`` runs the
three workloads one after the other, each in its own process.

The lines before the last describe the run; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

# One BLAS/OpenMP thread: on a small shared host more threads than the one
# the closed loop needs measure the scheduler.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from workloads import ROOT, WORKLOADS  # first: puts the checkout's src/ on the import path

import numpy as np
import scipy
from centrex import harness

import tracer as tracing

HERE = Path(__file__).resolve().parent
MIN_SAMPLES = 60  # the p80 tail then has at least ten samples beyond it
TAIL_PCT = 80
MAX_SECONDS = 150  # no pass starts after this, whatever the sample count
SETUP_PROBES = 5
REPLAY_TRIALS = 1  # trials per sigma of the first pass that are replayed


@dataclass
class SweepRun:
    rows: list | None  # None when the sweep raised
    wall_ns: int
    error: str | None = None
    out_bytes: int = 0

    def replay_key(self, trials: int):
        """The exception raised and the rows of the first `trials` trials."""
        rows = tuple(
            (r["algorithm"], r["sigma"], r["trial"], r["k_hat"], r["pe"], r["distortion"], r["messages"])
            for r in self.rows or ()
            if r["trial"] < trials
        )
        return self.error, rows


@dataclass
class AlgoStats:
    samples_ms: list = field(default_factory=list)
    ok: int = 0
    planned: int = 0
    failed: int = 0
    wall_ns: int = 0
    errors: Counter = field(default_factory=Counter)


def run_sweep(cfg, out_dir: Path) -> SweepRun:
    t0 = perf_counter_ns()
    try:
        rows = harness.run_experiment(cfg, out_dir=out_dir)
    except Exception as exc:  # a raising sweep is counted as failed cells, not fatal
        return SweepRun(None, perf_counter_ns() - t0, type(exc).__name__)
    wall = perf_counter_ns() - t0
    out_bytes = sum((out_dir / f).stat().st_size for f in ("summary.json", "results.csv"))
    return SweepRun(rows, wall, out_bytes=out_bytes)


def pass_seed(seed: int, index: int) -> int:
    """Config seed of pass `index`: the workload seed itself for the first
    pass, so its rows are those of a plain ``run_experiment`` at that seed."""
    if index == 0:
        return seed
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def check_rows(rows, cfg) -> list:
    """Problems with a sweep's rows: missing cells, k_hat < 1, pe outside
    [0, 1], non-finite distortion."""
    problems = []
    planned = sorted((float(s), t) for s in cfg.sigmas for t in range(cfg.trials))
    if sorted((r["sigma"], r["trial"]) for r in rows) != planned:
        problems.append("rows do not match the planned cells")
    for r in rows:
        cell = f"sigma={r['sigma']} trial={r['trial']}"
        if not r["k_hat"] >= 1:
            problems.append(f"{cell}: k_hat={r['k_hat']}")
        if not 0.0 <= r["pe"] <= 1.0:
            problems.append(f"{cell}: pe={r['pe']}")
        if not math.isfinite(r["distortion"]):
            problems.append(f"{cell}: distortion={r['distortion']}")
    return problems


class Run:
    """A workload's plan, run pass after pass, with per-algorithm totals.

    Pass i runs the plan for ``pass_seed(seed, i)``: new datasets and, on
    ``dim100k10``, a new layout each pass.  ``plan`` is the first pass's.
    """

    def __init__(self, workload, seed: int, out_dir: Path):
        self.workload = workload
        self.seed = seed
        self.plan = workload.plan(seed)
        self.out_dir = out_dir
        self.stats = {sweep.algorithm: AlgoStats() for sweep, _ in self.plan}
        self.reference = {}  # algorithm -> SweepRun of the first pass
        self.passes = 0
        self.problems = []

    def warm_up(self):
        for _, cfg in self.plan:
            run_sweep(dataclasses.replace(cfg, sigmas=cfg.sigmas[:1], trials=1), self.out_dir)

    def run_pass(self) -> int:
        """Run every sweep once, on the next pass seed; returns the bytes
        the sweeps wrote."""
        out_bytes = 0
        for sweep, cfg in self.workload.plan(pass_seed(self.seed, self.passes)):
            res = run_sweep(cfg, self.out_dir)
            out_bytes += res.out_bytes
            st = self.stats[sweep.algorithm]
            cells = len(cfg.sigmas) * cfg.trials
            st.planned += cells
            st.wall_ns += res.wall_ns
            if res.rows is None:
                st.failed += cells
                st.errors[res.error] += 1
            else:
                st.ok += len(res.rows)
                st.samples_ms += [r["runtime_s"] * 1e3 for r in res.rows]
                self.problems += [f"{sweep.algorithm}: {p}" for p in check_rows(res.rows, cfg)]
            self.reference.setdefault(sweep.algorithm, res)
        self.passes += 1
        return out_bytes

    def replay(self):
        """Rerun the first REPLAY_TRIALS trials of each first-pass sweep; they
        must raise the same exception or give the same rows."""
        for sweep, cfg in self.plan:
            n = min(REPLAY_TRIALS, cfg.trials)
            res = run_sweep(dataclasses.replace(cfg, trials=n), self.out_dir)
            if res.replay_key(n) != self.reference[sweep.algorithm].replay_key(n):
                self.problems.append(f"{sweep.algorithm}: replayed cells differ from the first pass")

    def loop(self, seconds: float, floor: int, timed) -> list:
        """Passes until each timed algorithm has `floor` samples and another
        pass as long as the last would end after `seconds`; returns
        (wall_ns, out_bytes) per pass."""
        passes = []
        start = perf_counter_ns()
        while True:
            t0 = perf_counter_ns()
            out_bytes = self.run_pass()
            end = perf_counter_ns()
            passes.append((end - t0, out_bytes))
            elapsed = (end - start) / 1e9
            enough = all(len(self.stats[a].samples_ms) >= floor for a in timed)
            if elapsed >= MAX_SECONDS or (enough and elapsed + (end - t0) / 1e9 > seconds):
                return passes

    def digest(self) -> str:
        """Hash of (algorithm, sigma, trial, k_hat, pe, distortion) over the
        first pass."""
        cells = [
            (r["algorithm"], r["sigma"], r["trial"], r["k_hat"], r["pe"], r["distortion"])
            for sweep, _ in self.plan
            for r in self.reference[sweep.algorithm].rows or ()
        ]
        return hashlib.sha256(json.dumps(cells).encode()).hexdigest()[:16]


def setup_seconds(name: str, seed: int, probes: int) -> list:
    """Wall time of `probes` fresh processes from start to configs built."""
    times = []
    for _ in range(probes):
        t0 = perf_counter_ns()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter_ns()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append((t1 - t0) / 1e9)
    return times


def tail(samples) -> tuple:
    """(value, percentile): TAIL_PCT, or lower when fewer than ten samples
    would lie beyond it."""
    n = len(samples)
    pct = max(0, min(TAIL_PCT, 100 * (n - 10) // n))
    return float(np.percentile(samples, pct)), pct


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(name: str, seed: int, trace: int) -> dict:
    threads = {
        k: v
        for k, v in os.environ.items()
        if k.endswith("_NUM_THREADS") or k.startswith(("OMP_", "OPENBLAS_", "MKL_", "BLIS_"))
    }
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": threads,
        "git_sha": git_sha(),
    }


def measure(name, seed, seconds, trace, min_samples=MIN_SAMPLES, probes=SETUP_PROBES):
    """Run one workload; returns (report lines, result object)."""
    workload = WORKLOADS[name]
    setup = setup_seconds(name, seed, probes)
    lines = [f"# meta {json.dumps(metadata(name, seed, trace))}"]
    out_dir = Path(tempfile.mkdtemp(prefix=".out-", dir=HERE))
    try:
        run = Run(workload, seed, out_dir)
        run.warm_up()
        if trace:
            untraced = run.loop(seconds / 2, 1, workload.timed)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = run.loop(seconds / 2, 1, workload.timed)
            # Replayed under a tracer of its own: checks that tracing leaves
            # rows unchanged without adding to the traced passes.
            with tracing.installed(tracing.Tracer()):
                run.replay()
        else:
            untraced = run.loop(seconds, min_samples, workload.timed)
            run.replay()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    planned = sum(st.planned for st in run.stats.values())
    failed = sum(st.failed for st in run.stats.values())
    for algo, st in run.stats.items():
        errors = ", ".join(f"{k} x{v}" for k, v in st.errors.items()) or "none"
        lines.append(f"# sweep {algo}: {st.planned} cells run, {st.failed} failed (raised: {errors})")
    lines.append(f"# digest {name} seed={seed} {run.digest()}")
    if trace:
        metrics, extra = traced_metrics(tracer, untraced, traced)
        run.problems += extra
    else:
        metrics, report = end_to_end(workload, run, setup)
        lines += report
    lines += [f"# problem {p}" for p in run.problems]
    for key, (value, unit) in metrics.items():
        lines.append(f"metric {key} {value} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": planned,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return lines, result


def end_to_end(workload, run: Run, setup: list):
    """Contract metrics, plus the per-algorithm report lines."""
    stats = run.stats
    report = []
    for algo, st in stats.items():
        rows = run.reference[algo].rows or []
        if st.samples_ms:
            n = len(st.samples_ms)
            value, pct = tail(st.samples_ms)
            report.append(f"# report {algo}_ms.p50 {statistics.median(st.samples_ms)} ms n={n}")
            report.append(f"# report {algo}_ms.tail {value} ms p{pct} n={n}")
        report.append(f"# report {algo}_cells_per_s {st.ok / (st.wall_ns / 1e9)} cells/s n={st.ok}")
        if rows:
            report.append(f"# report {algo}_pe {statistics.fmean(r['pe'] for r in rows)} ratio n={len(rows)}")
        if rows and algo == "centrex":
            k = run.plan[0][1].k
            hit = sum(r["k_hat"] == k for r in rows) / len(rows)
            report.append(f"# report centrex_khat_hit {hit} ratio n={len(rows)}")
    planned = sum(st.planned for st in stats.values())
    failed = sum(st.failed for st in stats.values())
    report.append(f"# report fail_ratio {failed / planned} ratio n={planned}")

    timed = [stats[a] for a in workload.timed]
    if not all(st.samples_ms for st in timed):
        raise SystemExit(f"a timed sweep of {workload.name} never succeeded")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cell_ms.p50": (geomean(statistics.median(st.samples_ms) for st in timed), "ms"),
        "cell_ms.tail": (geomean(tail(st.samples_ms)[0] for st in timed), "ms"),
        "cells_per_s": (geomean(st.ok / (st.wall_ns / 1e9) for st in timed), "cells/s"),
        "ok_ratio": (1.0 - failed / planned, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report.append(f"# setup_s samples {setup}")
    return metrics, report


def traced_metrics(tracer, untraced: list, traced: list):
    """Per-layer metrics per traced pass, tracing overhead and coverage."""
    metrics = tracer.layer_metrics(len(traced))
    traced_ns = sum(wall for wall, _ in traced)
    metrics["harness.out_bytes"] = (sum(b for _, b in traced) / len(traced), "bytes/pass")
    overhead = statistics.median(w for w, _ in traced) / statistics.median(w for w, _ in untraced) - 1
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    covered = sum(tracer.self_ns().values()) / traced_ns
    metrics["trace.coverage"] = (covered, "ratio")
    problems = []
    if not 0.95 <= covered <= 1.0:
        problems.append(f"layer self times cover {covered:.4f} of the traced wall time")
    return metrics, problems


def run_all(args) -> int:
    """Each workload in its own process; prints their output and a summary line."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
