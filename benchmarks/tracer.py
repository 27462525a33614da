"""Per-layer tracing for the centrex benchmark, from outside the library.

``installed(tracer)`` rebinds the names that callers look up in the centrex
modules (``centralized.h_map``, ``decentralized.slot_step``,
``baselines.classify``, ``harness.run_centrex``, ...) to wrappers that record
a span per call and count work at the same boundary, and restores the
originals on exit.  Nothing under ``src/`` changes.  Spans stay in memory
until ``layer_metrics`` turns them into per-layer totals.

A layer is named after the module whose function it times; where two modules
call the same function under their own name (``fuse``, ``classify``), each
caller is its own layer.  ``statfn.weight`` is rebound only where the
pipelines call it, so the integrand calls inside ``r_squared``'s quadrature
stay in ``statfn.r_squared``'s self time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import workloads  # noqa: F401  (puts the checkout's src/ first on the import path)
from centrex import baselines, centralized, decentralized, harness


def _merges(args, result):
    return (len(args[0]) - len(result[0]),)


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple  # (module, attribute) pairs rebound to the same wrapper
    counters: tuple = ()
    count: object = None  # (args, result) -> one value per counter
    cell: bool = False  # a call of this layer is one sweep cell


LAYERS = (
    Layer(
        "statfn.weight",
        ((centralized, "weight"), (decentralized, "weight")),
        ("evals",),
        lambda a, r: (int(np.size(a[1])),),
    ),
    Layer("statfn.r_squared", ((centralized, "r_squared"), (decentralized, "r_squared"))),
    Layer("statfn.threshold_mu", ((centralized, "threshold_mu"),)),
    Layer("wald.WaldConfig", ((centralized, "WaldConfig"), (decentralized, "WaldConfig"))),
    Layer("wald.fusion_sigma", ((centralized, "fusion_sigma"),)),
    Layer("centralized.h_map", ((centralized, "h_map"),)),
    Layer(
        "centralized.fixed_point",
        ((centralized, "fixed_point"),),
        ("iterations", "nonconverged"),
        lambda a, r: (r[1], int(not r[2])),
    ),
    Layer("centralized.mark", ((centralized, "mark"),), ("marked",), lambda a, r: (len(r),)),
    Layer("centralized.fuse", ((centralized, "fuse"),), ("merges",), _merges),
    Layer("centralized.classify", ((centralized, "classify"),)),
    Layer("decentralized.init_round", ((decentralized, "init_round"),)),
    Layer(
        "decentralized.slot_step",
        ((decentralized, "slot_step"),),
        ("messages", "updates"),
        lambda a, r: (r[0], int(r[1].sum())),
    ),
    Layer("decentralized.fuse", ((decentralized, "fuse"),), ("merges",), _merges),
    Layer("decentralized.classify", ((decentralized, "classify"),)),
    Layer(
        "baselines.kmeans_lloyd",
        ((baselines, "kmeans_lloyd"),),
        ("iterations",),
        lambda a, r: (r.iterations_per_centroid[0],),
    ),
    Layer(
        "baselines.classify",
        ((baselines, "classify"),),
        ("dist_evals",),
        lambda a, r: (len(a[0]) * len(a[1]),),
    ),
    Layer("baselines.kmeans_replicated", ((harness, "kmeans_replicated"),), cell=True),
    Layer(
        "harness.run_centrex",
        ((harness, "run_centrex"),),
        ("k_hat",),
        lambda a, r: (r.k_hat,),
        cell=True,
    ),
    Layer("harness.run_decentrex", ((harness, "run_decentrex"),), cell=True),
    Layer("harness.classification_error", ((harness, "classification_error"),)),
    Layer("harness.distortion", ((harness, "distortion"),)),
    Layer("harness.run_experiment", ((harness, "run_experiment"),)),
)


class Tracer:
    """Records one span [name, start_ns, end_ns, parent, cell] per call.

    Spans of one sweep cell share the cell identifier of the pipeline call
    that opened it.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._cells = 0

    def wrap(self, layer: Layer, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if layer.cell:
                self._cells += 1
                cell = self._cells
            else:
                cell = spans[parent][4] if parent >= 0 else 0
            span = [layer.name, perf_counter_ns(), 0, parent, cell]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[layer.name + ".failed"] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if layer.count is not None:
                for key, value in zip(layer.counters, layer.count(args, result)):
                    counts[f"{layer.name}.{key}"] += value
            return result

        return traced

    def self_ns(self) -> dict:
        """Total self time per layer: span duration minus its children's."""
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(int)
        for (name, start, end, _, _), covered in zip(spans, child):
            totals[name] += end - start - covered
        return totals

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass, as {name: (value, unit)}."""
        self_ns = self.self_ns()
        calls = defaultdict(int)
        for span in self.spans:
            calls[span[0]] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer.name}.calls"] = (calls[layer.name] / passes, "count/pass")
            out[f"{layer.name}.failed"] = (self.counts[layer.name + ".failed"] / passes, "count/pass")
            out[f"{layer.name}.self_ms"] = (self_ns[layer.name] / passes / 1e6, "ms/pass")
            for key in layer.counters:
                out[f"{layer.name}.{key}"] = (self.counts[f"{layer.name}.{key}"] / passes, "count/pass")
        runs = calls["centralized.fixed_point"]
        useful = self.counts["harness.run_centrex.k_hat"] / runs if runs else 0.0
        out["centralized.useful_ratio"] = (useful, "ratio")
        return out


@contextmanager
def installed(tracer: Tracer):
    """Rebind every layer's targets to the tracer's wrappers for the block."""
    saved = []
    try:
        for layer in LAYERS:
            for module, attr in layer.targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(layer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
