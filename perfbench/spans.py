"""Span recorders around the package's layer entry points.

``Tracer.install()`` replaces each entry point listed in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent span, op id) while the
tracer is enabled.  A function is replaced under every name that refers to
it in every ``breslow_lab`` module, including dict tables such as
``cli.CLAIMS``, so calls made inside the package are caught as well as calls
from the benchmark.  Spans stay in memory until ``write``.

Self time of a span is its duration minus the durations of its direct
children; layer metrics sum self time over spans of that layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

import numpy as np

# Gauss-Legendre points per quadrature query (the order-2n rule of
# ``PanelAntiderivative``); ``quadrature.integrand_points`` is computed from it.
QUADRATURE_POINTS_PER_QUERY = 32


def _fit_counts(args, kwargs, fit):
    return {"coxfit.newton_iterations": fit.iterations,
            "coxfit.fit_failed": int(not fit.converged)}


def _points(args, kwargs, result):
    # Methods of TruthModel: args = (self, x).
    return {"points": int(np.size(args[1]))}


def _build_counts(args, kwargs, agg):
    return {"rows": agg.n}


def _quadrature_build_counts(args, kwargs, result):
    # Method of PanelAntiderivative: args[0] is the built instance.
    return {"quadrature.panels": args[0].edges.size - 1}


def _load_counts(args, kwargs, data):
    return {"data.rows_loaded": data.n}


# (module, attribute path, span name, counter function).  A counter returns
# increments; keys without a dot are prefixed with the span name.
TARGETS = [
    ("data", "load_csv", "data.load_csv", _load_counts),
    ("data", "save_csv", "data.save_csv", None),
    ("data", "validate_dataset", "data.validate_dataset", None),
    ("data", "SurvivalDataset.__init__", "data.dataset", None),
    ("data", "SurvivalDataset.sorted_view", "data.sorted_view", None),
    ("truth", "generate_dataset", "truth.generate_dataset", None),
    ("truth", "TruthModel.__init__", "truth.model", None),
    ("truth", "TruthModel.phi", "truth.phi", _points),
    ("truth", "TruthModel.d1", "truth.d1", _points),
    ("truth", "TruthModel.d2", "truth.d2", _points),
    ("truth", "TruthModel.hazard_over_phi", "truth.hazard_over_phi", _points),
    ("truth", "TruthModel.h_uc", "truth.h_uc", _points),
    ("truth", "TruthModel.a0", "truth.a0", _points),
    ("truth", "TruthModel.default_M", "truth.default_M", None),
    ("quadrature", "PanelAntiderivative.__init__", "quadrature.build", _quadrature_build_counts),
    ("quadrature", "PanelAntiderivative.__call__", "quadrature.eval", _points),
    ("risk", "build_aggregates", "risk.build_aggregates", _build_counts),
    ("risk", "phi_n", "risk.lookup", None),
    ("risk", "d1_n", "risk.lookup", None),
    ("risk", "d2_n", "risk.lookup", None),
    ("coxfit", "fit_mple", "coxfit.fit_mple", _fit_counts),
    ("coxfit", "log_partial_likelihood", "coxfit.log_partial_likelihood", None),
    ("coxfit", "score_and_information", "coxfit.score_and_information", None),
    ("coxfit", "score_residuals", "coxfit.score_residuals", None),
    ("breslow", "breslow_traditional", "breslow.breslow_traditional", None),
    ("breslow", "breslow_plugin", "breslow.breslow_plugin", None),
    ("breslow", "a_n_curve", "breslow.a_n_curve", None),
    ("linearize", "xi_plugin", "linearize.xi_plugin", None),
    ("linearize", "variance_estimate", "linearize.variance_estimate", None),
    ("linearize", "default_m_plugin", "linearize.default_m_plugin", None),
    ("linearize", "xi_truth", "linearize.xi_truth", None),
    ("linearize", "xi_truth_mean", "linearize.xi_truth_mean", None),
    ("linearize", "_t2_terms", "linearize.t2_terms", None),
    ("linearize", "remainder_decomposition", "linearize.remainder_decomposition", None),
    ("experiments", "risk_deviation_experiment", "experiments.lemma1", None),
    ("experiments", "coupling_remainder_experiment", "experiments.lemma2", None),
    ("experiments", "linearization_remainder_experiment", "experiments.theorem", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """In-memory span recorder; single-threaded by construction."""

    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key if "." in key else f"{name}.{key}"] += value
            return result

        return wrapper

    @contextlib.contextmanager
    def span_op(self, op_id):
        """Record everything inside as op ``op_id``, under one root span."""
        span = ["op", 0.0, 0.0, -1, op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.enabled, self.op_id = True, op_id
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.enabled, self.op_id = False, None

    def install(self) -> None:
        """Replace every target under every name that refers to it."""
        package = [m for name, m in sys.modules.items()
                   if name == "breslow_lab" or name.startswith("breslow_lab.")]
        for module_name, path, span_name, counter in TARGETS:
            module = importlib.import_module(f"breslow_lab.{module_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, cached_property):
                    prop = cached_property(self.wrap(span_name, original.func, counter))
                    prop.__set_name__(cls, attr)
                    setattr(cls, attr, prop)
                else:
                    setattr(cls, attr, self.wrap(span_name, original, counter))
                continue
            original = getattr(module, path)
            wrapped = self.wrap(span_name, original, counter)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapped

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict:
        """Self time and call count per span name, plus the recorded counters."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            seconds[span[0]] += own
            calls[span[0]] += 1
        return {"s": dict(seconds), "calls": dict(calls), "counts": dict(self.counts)}

    def builds_in_fit(self) -> int:
        """``build_aggregates`` spans with a ``fit_mple`` span above them."""
        total = 0
        for name, _, _, parent, _ in self.spans:
            if name != "risk.build_aggregates":
                continue
            while parent >= 0 and self.spans[parent][0] != "coxfit.fit_mple":
                parent = self.spans[parent][3]
            total += parent >= 0
        return total

    def per_op(self) -> dict:
        """Wall time of each traced op and the part layer self times cover."""
        own = self.self_times()
        wall: dict = {}
        covered: dict = defaultdict(float)
        for span, self_s in zip(self.spans, own):
            if span[4] is None:
                continue
            if span[0] == "op":
                wall[span[4]] = span[2] - span[1]
            else:
                covered[span[4]] += self_s
        return {op: (wall[op], covered[op]) for op in wall}

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)
