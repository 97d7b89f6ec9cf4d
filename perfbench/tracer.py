"""Span tracing of codedhash, wrapped from outside the library.

Each target names a public function or method of one codedhash module.
Installing the tracer replaces the target at every name it is looked up
by: the defining module, every codedhash module that imported it with
``from .x import f``, or the class that owns the method.  A span records
its name, start, end, parent span and phase; spans stay in memory until
the run writes them out.  A target that no longer exists is reported as
absent instead of raising, so later refactors that delete a function do not
break the benchmark, and the absence is printed rather than read as zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "codedhash"
SETUP_PHASE = -1


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix, home module, attribute path
    (``Class.method`` for methods), whether it has traced children (then
    its wall time is reported too), and a counter extractor called with
    ``(args, kwargs, result)`` after a successful call."""

    span: str
    module: str
    attr: str
    parent: bool = False
    counts: Callable | None = None


def _bp_decode_counts(args, kwargs, result):
    conv = result[2]
    return {"bp.frames": conv.size, "bp.converged": int(conv.sum())}


def _forward_frames(args, kwargs, result):
    outputs = result[0]
    return {"neural_bp.forward.frames": outputs.shape[0] if outputs.ndim == 2 else 1}


def _evaluate_counts(args, kwargs, result):
    return {"retrieval.skipped_map": result.skipped_map,
            "retrieval.queries": result.queries}


TARGETS = (
    Target("gf2.build_bch", "codedhash.gf2", "build_bch"),
    Target("bp.TannerGraph", "codedhash.bp", "TannerGraph.__init__"),
    Target("bp.segment_sum", "codedhash.bp", "segment_sum",
           counts=lambda a, k, r: {"bp.segment_sum.elements":
                                   np.size(_arg(a, k, 0, "values"))}),
    Target("bp.check_products_except_self", "codedhash.bp",
           "check_products_except_self"),
    Target("bp.check_messages", "codedhash.bp", "check_messages", parent=True),
    Target("bp.bp_decode_batch", "codedhash.bp", "bp_decode_batch",
           parent=True, counts=_bp_decode_counts),
    Target("neural_bp.forward", "codedhash.neural_bp", "NeuralBpDecoder.forward",
           parent=True, counts=_forward_frames),
    Target("neural_bp.loss_and_grads", "codedhash.neural_bp",
           "NeuralBpDecoder.loss_and_grads", parent=True,
           counts=lambda a, k, r: {"neural_bp.loss_and_grads.frames":
                                   np.shape(_arg(a, k, 1, "llrs"))[0]}),
    Target("neural_bp.train_decoder", "codedhash.neural_bp", "train_decoder",
           parent=True),
    Target("neural_bp.evaluate_error_rates", "codedhash.neural_bp",
           "evaluate_error_rates", parent=True),
    Target("neural_bp.load_decoder", "codedhash.neural_bp", "load_decoder",
           parent=True),
    Target("optim.adam_step", "codedhash.optim", "Adam.step",
           counts=lambda a, k, r: {"optim.adam_step.elements":
                                   sum(np.size(p) for p in _arg(a, k, 1, "params"))}),
    Target("hashing.forward", "codedhash.hashing", "Mlp.forward_cache",
           counts=lambda a, k, r: {"hashing.forward.rows": r[1][0].shape[0]}),
    Target("hashing.backward", "codedhash.hashing", "Mlp.backward",
           counts=lambda a, k, r: {"hashing.backward.rows":
                                   np.atleast_2d(_arg(a, k, 2, "dout")).shape[0]}),
    Target("hashing.objective_grads", "codedhash.hashing", "objective_grads"),
    Target("hashing.gradients", "codedhash.hashing", "gradients", parent=True),
    Target("hashing.save_encoders", "codedhash.hashing", "save_encoders"),
    Target("hashing.load_encoders", "codedhash.hashing", "load_encoders"),
    Target("retrieval.build_index", "codedhash.retrieval", "build_index"),
    Target("retrieval.rank", "codedhash.retrieval", "rank",
           counts=lambda a, k, r: {"retrieval.rank.items":
                                   len(_arg(a, k, 1, "index"))}),
    Target("retrieval.evaluate_queries", "codedhash.retrieval",
           "evaluate_queries", parent=True, counts=_evaluate_counts),
    Target("retrieval.relevance", "codedhash.retrieval", "relevance"),
    Target("retrieval.graded_relevance", "codedhash.retrieval",
           "graded_relevance"),
    Target("retrieval.average_precision", "codedhash.retrieval",
           "average_precision"),
    Target("retrieval.ndcg_at_k", "codedhash.retrieval", "ndcg_at_k"),
    Target("retrieval.write_rankings", "codedhash.retrieval", "write_rankings",
           counts=lambda a, k, r: {"retrieval.write_rankings.bytes":
                                   os.path.getsize(_arg(a, k, 0, "path"))}),
    Target("retrieval.read_rankings", "codedhash.retrieval", "read_rankings"),
    Target("data.generate_synthetic", "codedhash.data", "generate_synthetic"),
    Target("data.similarity_matrix", "codedhash.data", "similarity_matrix"),
    Target("data.save_dataset", "codedhash.data", "save_dataset"),
    Target("data.load_dataset", "codedhash.data", "load_dataset",
           counts=lambda a, k, r: {"data.load_dataset.bytes":
                                   os.path.getsize(_arg(a, k, 0, "path"))}),
    Target("pipeline.stage1a", "codedhash.pipeline", "stage1a", parent=True),
    Target("pipeline.stage1b", "codedhash.pipeline", "stage1b", parent=True),
    Target("pipeline.stage2_refine", "codedhash.pipeline", "stage2_refine",
           parent=True, counts=lambda a, k, r: {"pipeline.rounds": 1}),
    Target("pipeline.training_map", "codedhash.pipeline", "training_map",
           parent=True),
    Target("cli.encode", "codedhash.cli", "_cmd_encode", parent=True),
    Target("cli.retrieve", "codedhash.cli", "_cmd_retrieve", parent=True),
    Target("cli.eval", "codedhash.cli", "_cmd_eval", parent=True),
    Target("cli.ber", "codedhash.cli", "_cmd_ber", parent=True),
    Target("cli.read_codes", "codedhash.cli", "read_codes"),
    Target("cli.write_codes", "codedhash.cli", "write_codes"),
)

# reported counters; ratios are numerator / denominator over the same calls
COUNTERS = (
    "bp.segment_sum.elements", "bp.frames", "neural_bp.forward.frames",
    "neural_bp.loss_and_grads.frames", "optim.adam_step.elements",
    "hashing.forward.rows", "hashing.backward.rows", "retrieval.rank.items",
    "retrieval.write_rankings.bytes", "data.load_dataset.bytes",
    "pipeline.rounds",
)
RATIOS = {
    "bp.converged_frac": ("bp.converged", "bp.frames"),
    "retrieval.skipped_map_frac": ("retrieval.skipped_map", "retrieval.queries"),
}


def span_metric_names(targets=TARGETS):
    """Every per-span metric name, in table order."""
    names = []
    for t in targets:
        names += [f"{t.span}.calls", f"{t.span}.self_s"]
        if t.parent:
            names.append(f"{t.span}.wall_s")
    return names


def _package_modules(package):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    """Wraps the targets while recording; unwrapped otherwise."""

    def __init__(self, targets=TARGETS, package=PACKAGE):
        self.targets = tuple(targets)
        self.package = package
        self.spans = []   # (name, start, end, parent index or None, phase)
        self.counts = defaultdict(lambda: defaultdict(float))  # phase -> counter -> sum
        self.phases = {}  # phase -> (start, end)
        self.absent = []
        self._stack = []
        self._phase = None
        self._undo = []

    # -- patching -----------------------------------------------------------

    def _resolve(self, target):
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            return None, None, None
        owner_name, _, leaf = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return None, None, None
        if owner_name:
            original = owner.__dict__.get(leaf)  # methods defined on the class itself
        else:
            original = getattr(owner, leaf, None)
        if not callable(original):
            return None, None, None
        return owner, leaf, original

    def install(self):
        """Wrap every present target; record absent ones by span name."""
        self.absent = []
        for target in self.targets:
            owner, leaf, original = self._resolve(target)
            if original is None:
                self.absent.append(target.span)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in _package_modules(self.package):
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextmanager
    def recording(self, phase):
        """Trace the enclosed block as `phase` (SETUP_PHASE or a pass index)."""
        self.install()
        self._phase = phase
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.phases[phase] = (start, time.perf_counter())
            self._phase = None
            self.uninstall()

    def _wrap(self, target, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (target.span, start, end, parent,
                                       tracer._phase)
            if target.counts is not None:
                bucket = tracer.counts[tracer._phase]
                for name, value in target.counts(args, kwargs, result).items():
                    bucket[name] += value
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def span_totals(self, phase):
        """name -> [calls, wall seconds, self seconds] for one phase.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap in a single thread.
        """
        child = defaultdict(float)
        for name, start, end, parent, ph in self.spans:
            if parent is not None and ph == phase:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            acc = totals[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child[i]
        return totals

    def untraced_s(self, phase):
        """Part of a phase's wall time outside every top-level span."""
        start, end = self.phases[phase]
        covered = sum(e - s for _, s, e, parent, ph in self.spans
                      if ph == phase and parent is None)
        return end - start - covered

    def layer_metrics(self, pass_phases):
        """Per-layer metrics for one traced set-up plus one traced pass.

        Pass figures are the mean over `pass_phases`; counts of calls and
        work are the same in every pass, so their means are exact.
        """
        phases = [SETUP_PHASE] + list(pass_phases)
        weight = {p: 1.0 if p == SETUP_PHASE else 1.0 / len(pass_phases)
                  for p in phases}
        spans = defaultdict(lambda: [0.0, 0.0, 0.0])
        counts = defaultdict(float)
        for p in phases:
            for name, acc in self.span_totals(p).items():
                for i in range(3):
                    spans[name][i] += weight[p] * acc[i]
            for name, value in self.counts.get(p, {}).items():
                counts[name] += weight[p] * value
        out = {}
        for t in self.targets:
            calls, wall, self_s = spans.get(t.span, (0.0, 0.0, 0.0))
            out[f"{t.span}.calls"] = round(calls, 6)
            out[f"{t.span}.self_s"] = self_s
            if t.parent:
                out[f"{t.span}.wall_s"] = wall
        for name in COUNTERS:
            out[name] = counts.get(name, 0.0)
        for name, (num, den) in RATIOS.items():
            out[name] = counts[num] / counts[den] if counts.get(den) else 0.0
        return out

    def span_records(self):
        """All spans as JSON-ready dicts, in start order."""
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "phase": "setup" if ph == SETUP_PHASE else f"pass{ph}"}
                for name, start, end, parent, ph in self.spans]
