"""Span recorder for the traced run.

``instrument`` replaces the public functions of each ``freeutil`` module by
wrappers, under the names the *calling* modules bind them to (``cli.load``,
``sequential.exponential_tilt``, ``verify.simplex_grid_search``, ...), and
puts the originals back on exit; ``freeutil.cli`` must be imported first.
Each wrapped call appends one span: name, start, end, parent span and an
optional size. Spans stay in memory until the run writes them out.
``summarize`` turns the spans of one round into per-layer totals.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

# (module, attribute, span name). The span name's first part is its layer.
WRAPPED = [
    ("cli", "load", "problemio.load"),
    ("problemio", "loads", "problemio.loads"),
    ("problemio", "dumps", "problemio.dumps"),
    ("cli", "solve_regime", "sequential.solve_regime"),
    ("cli", "value_recursion", "sequential.value_recursion"),
    ("cli", "regime_label", "sequential.regime_label"),
    ("cli", "bounded_control", "variational.bounded_control"),
    ("cli", "exponential_tilt", "variational.exponential_tilt"),
    ("cli", "kl_divergence", "model.kl_divergence"),
    ("sequential", "outer_policy", "sequential.outer_policy"),
    ("sequential", "certainty_equivalent", "sequential.certainty_equivalent"),
    ("sequential", "exponential_tilt", "variational.exponential_tilt"),
    ("sequential", "kl_divergence", "model.kl_divergence"),
    ("variational", "exponential_tilt", "variational.exponential_tilt"),
    ("variational", "kl_divergence", "model.kl_divergence"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "verify_control", "verify.verify_control"),
    ("verify", "verify_two_stage", "verify.verify_two_stage"),
    ("verify", "verify_tree", "verify.verify_tree"),
    ("verify", "bellman_backup", "sequential.bellman_backup"),
    ("verify", "certainty_equivalent", "sequential.certainty_equivalent"),
    ("verify", "minimax_solve", "sequential.minimax_solve"),
    ("verify", "outer_policy", "sequential.outer_policy"),
    ("verify", "risk_sensitive_argmax", "sequential.risk_sensitive_argmax"),
    ("verify", "solve_regime", "sequential.solve_regime"),
    ("verify", "taylor_ce_approx", "sequential.taylor_ce_approx"),
    ("verify", "value_recursion", "sequential.value_recursion"),
    ("verify", "bounded_control", "variational.bounded_control"),
    ("verify", "free_utility", "variational.free_utility"),
    ("verify", "gibbs_measure", "variational.gibbs_measure"),
    ("verify", "kl_divergence", "model.kl_divergence"),
    ("verify", "enumerate_minimax", "oracle.enumerate_minimax"),
    ("verify", "exhaustive_two_stage", "oracle.exhaustive_two_stage"),
    ("verify", "path_enumeration", "oracle.path_enumeration"),
    ("verify", "simplex_grid_search", "oracle.simplex_grid_search"),
    ("verify", "two_stage_objective", "oracle.two_stage_objective"),
    ("oracle", "kl_divergence", "model.kl_divergence"),
]

# The size a span records: the number of prior entries a tilt works on.
SIZED = {"variational.exponential_tilt": lambda args, kwargs: len(args[0])}


@dataclass
class Recorder:
    """Spans as lists [name, start, end, parent index, size], in call order."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        """Record one span around a block."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, size]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        size_of = SIZED.get(name, lambda args, kwargs: 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, size_of(args, kwargs)):
                return fn(*args, **kwargs)

        return wrapper

    def dump_jsonl(self, fh, **tags) -> None:
        for i, (name, start, end, parent, size) in enumerate(self.spans):
            record = {**tags, "id": i, "name": name, "start": start, "end": end,
                      "parent": parent, "size": size}
            fh.write(json.dumps(record) + "\n")


@contextlib.contextmanager
def instrument(recorder: Recorder, package):
    """Wrap every function in WRAPPED for the duration of the block."""
    saved = []
    try:
        for module_name, attr, span_name in WRAPPED:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(span_name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list) -> dict:
    """Per layer: calls and time of its outermost spans (entries into the
    layer), and its self time (its spans minus their child spans); per span
    name: count, total time and total size."""
    children_time = [0.0] * len(spans)
    layers: dict = {}
    names: dict = {}
    for i, (name, start, end, parent, size) in enumerate(spans):
        dur = end - start
        layer = layer_of(name)
        outer = True
        p = parent
        while p >= 0:
            if layer_of(spans[p][0]) == layer:
                outer = False
                break
            p = spans[p][3]
        if parent >= 0:
            children_time[parent] += dur
        stats = layers.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if outer:
            stats["calls"] += 1
            stats["s"] += dur
        entry = names.setdefault(name, {"calls": 0, "s": 0.0, "size": 0})
        entry["calls"] += 1
        entry["s"] += dur
        entry["size"] += size
    for i, (name, start, end, parent, size) in enumerate(spans):
        layers[layer_of(name)]["self_s"] += (end - start) - children_time[i]
    return {"layers": layers, "names": names}
