"""Spans around calls into dyadhist, recorded from the benchmark's side.

``Tracer.install`` replaces each traced function by a wrapper in every
``dyadhist`` namespace that binds it, since the package's modules import
each other's functions by name (``split.build_tree``, ``cli.read_samples``
and so on).  A wrapper keeps a span (name, start, end, parent, round) in
memory and may add to a counter; ``uninstall`` puts the originals back.
Per-layer metrics are computed from the spans once the run is over.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

SETUP_ROUND = -1

# per-layer metric -> (unit, better); BENCHMARK.json lists the same metrics
LAYER_METRICS = {
    "ddist.build_tree.s": ("s", "lower"),
    "ddist.build_tree.calls": ("count", "lower"),
    "ddist.node_visits": ("count", "lower"),
    "ddist.node_visits_per_sample": ("visits/point", "lower"),
    "ddist.fit_d1.s": ("s", "lower"),
    "ddist.fit_d1.calls": ("count", "lower"),
    "split.build_adaptive_grid.s": ("s", "lower"),
    "split.greedy_split.s": ("s", "lower"),
    "split.greedy_split.self_s": ("s", "lower"),
    "split.greedy_split_l2.s": ("s", "lower"),
    "split.rounds": ("count", "lower"),
    "split.leaves_scored": ("count", "lower"),
    "core.from_samples.s": ("s", "lower"),
    "core.l1_dist.s": ("s", "lower"),
    "core.l2_sq_dist.s": ("s", "lower"),
    "core.value_at.s": ("s", "lower"),
    "core.value_at.calls": ("count", "lower"),
    "fileio.write_samples.s": ("s", "lower"),
    "fileio.read_samples.s": ("s", "lower"),
    "fileio.read_samples.mb_per_s": ("MB/s", "higher"),
    "fileio.write_hypothesis.s": ("s", "lower"),
    "fileio.read_hypothesis.s": ("s", "lower"),
    "cli.gen.s": ("s", "lower"),
    "cli.sample.s": ("s", "lower"),
    "cli.learn.s": ("s", "lower"),
    "cli.eval.s": ("s", "lower"),
    "cli.sample_from.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _count_build_tree(tracer, args, tree):
    tracer.add("ddist.node_visits", tree.node_visits)


def _count_split(tracer, args, result):
    hyp, trace = result
    tracer.add("split.rounds", len(trace.iterations))
    splits = sum(len(rec.split) for rec in trace.iterations)
    tracer.add("split.leaves_scored", 1 + (1 << hyp.domain.dim) * splits)


def _count_l1_split(tracer, args, result):
    _count_split(tracer, args, result)
    tracer.add("split.support_points", args[0].support_size)


def _count_read_samples(tracer, args, result):
    tracer.add("fileio.read_samples.bytes", os.path.getsize(args[0]))


# (home module, attribute or Class.attribute, span name, counter hook)
TARGETS = [
    ("dyadhist.ddist", "build_tree", "ddist.build_tree", _count_build_tree),
    ("dyadhist.ddist", "fit_d1", "ddist.fit_d1", None),
    ("dyadhist.split", "build_adaptive_grid", "split.build_adaptive_grid", None),
    ("dyadhist.split", "greedy_split", "split.greedy_split", _count_l1_split),
    ("dyadhist.split", "greedy_split_l2", "split.greedy_split_l2", _count_split),
    ("dyadhist.core", "EmpiricalDist.from_samples", "core.from_samples", None),
    ("dyadhist.core", "l1_dist", "core.l1_dist", None),
    ("dyadhist.core", "l2_sq_dist", "core.l2_sq_dist", None),
    ("dyadhist.core", "HistHypothesis.value_at", "core.value_at", None),
    ("dyadhist.fileio", "write_samples", "fileio.write_samples", None),
    ("dyadhist.fileio", "read_samples", "fileio.read_samples", _count_read_samples),
    ("dyadhist.fileio", "write_hypothesis", "fileio.write_hypothesis", None),
    ("dyadhist.fileio", "read_hypothesis", "fileio.read_hypothesis", None),
    ("dyadhist.cli", "sample_from", "cli.sample_from", None),
]


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, round)
        self.counts = defaultdict(int)  # (counter, round) -> total
        self.round = SETUP_ROUND
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._origin = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def add(self, counter: str, value: int) -> None:
        self.counts[(counter, self.round)] += value

    def call(self, name, fn, args=(), kwargs=None, hook=None):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        self.spans.append(None)  # reserve the slot so children can name it
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start - self._origin, end - self._origin, parent, self.round)
        if hook is not None:
            hook(self, args, result)
        return result

    def _wrapper(self, name, fn, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        namespaces = [m for n, m in list(sys.modules.items()) if n == "dyadhist" or n.startswith("dyadhist.")]
        for home, attr, name, hook in TARGETS:
            module = sys.modules[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self._wrapper(name, original.__func__, hook))
                else:
                    replacement = self._wrapper(name, original, hook)
                self._patches.append((owner, meth, original))
                setattr(owner, meth, replacement)
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original, hook)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "round": rnd}) + "\n")

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def recorded(self) -> set:
        return {s[0] for s in self.spans}

    def metrics(self, rounds: list, overhead_s: float) -> dict:
        """Per-layer metrics for one set-up plus one traced round.

        A quantity is its set-up total plus the median of its per-round
        totals over the traced ``rounds``.  Counters must repeat exactly
        from round to round, since every round does the same operations.
        """
        own = self.self_times()
        per_round = defaultdict(float)
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            per_round[(name + ".s", rnd)] += end - start
            per_round[(name + ".calls", rnd)] += 1
            per_round[(name + ".self_s", rnd)] += own[i]
        for key, value in self.counts.items():
            per_round[key] += value

        def total(name):
            per = [per_round.get((name, r), 0) for r in rounds]
            return per_round.get((name, SETUP_ROUND), 0) + statistics.median(per)

        counters = [name for name, (unit, _) in LAYER_METRICS.items() if unit == "count"]
        for name in counters:
            per = {per_round.get((name, r), 0) for r in rounds}
            if len(per) != 1:
                raise RuntimeError(f"{name} differs between identical rounds: {sorted(per)}")
        out = {name: total(name) for name in LAYER_METRICS}
        out.update({name: int(out[name]) for name in counters})
        visits, points = total("ddist.node_visits"), total("split.support_points")
        out["ddist.node_visits_per_sample"] = visits / points if points else 0.0
        seconds = total("fileio.read_samples.s")
        out["fileio.read_samples.mb_per_s"] = total("fileio.read_samples.bytes") / 1e6 / seconds if seconds else 0.0
        out["trace.overhead_s"] = overhead_s
        return {name: {"value": value, "unit": LAYER_METRICS[name][0]} for name, value in out.items()}
