"""Span tracing of the selectcond layers, installed from outside the package.

Tracer.install() replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent span, op id), both on
the defining module and on every alias a `from ... import` made inside the
package (for example two_stage.log_integral_panels). It also wraps

- TruncatedGaussian construction;
- scipy's brentq, minimize, minimize_scalar and quad as each package module
  calls them, as spans named solvers.<module>, counting evaluations of the
  callable passed in;
- the CDF callable passed to invert_monotone_cdf, counting its evaluations.

Callables handed to solvers or to CDF inversion run as spans of the layer
that defined them, so a closure's time counts for its own module and not for
the solver. Spans are kept in flat arrays and written out when the run ends.
Per-layer metrics are computed from the spans afterwards: a span's self time
is its duration minus the durations of its child spans.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# package modules that form the layers; metric names say "quad" for _quad,
# because a metric name must start with a letter or a digit
LAYERS = ("_quad", "distributions", "selective", "winners", "polyhedral", "two_stage",
          "location", "ancillarity", "harness", "cli")
HARNESS_MODULES = ("selectcond.harness.config", "selectcond.harness.runner",
                   "selectcond.harness.scenarios")
SOLVER_LAYERS = ("selective", "winners", "two_stage", "location")
SOLVERS = ("brentq", "minimize", "minimize_scalar")
# calls the harness makes once per selection attempt of a replication
SELECTION_ATTEMPTS = ("winners.argmax_select", "polyhedral.marginal_screening_event",
                      "location.location_pvalue")
SCENARIOS = ("winners-coverage", "winners-compare", "polyhedral-uniformity",
             "polyhedral-coverage", "two-stage-compare", "location-coverage",
             "ancillarity-audit")
ROOT = "op"


def metric_layer(layer: str) -> str:
    return layer.lstrip("_")


def _layer_of_module(modname: str) -> str:
    parts = modname.split(".")
    if parts[0] != "selectcond" or len(parts) < 2:
        return "bench"
    return metric_layer(parts[1])


def _n_panels(breakpoints) -> int:
    bps = [float(b) for b in breakpoints]
    return sum(1 for lo, hi in zip(bps, bps[1:]) if hi > lo)


class _SolverNamespace:
    """Stands in for scipy.optimize inside one package module."""

    def __init__(self, real, overrides: dict):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op_id = -1
        self.counts = Counter()
        self._patches = []

    # span recording

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one op; spans opened until end_op belong to it."""
        self._op_id = op_id
        idx = len(self.name)
        self.name.append(self._nid(ROOT))
        self.parent.append(-1)
        self.op.append(op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def end_op(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        # an exception may have left spans open
        del self._stack[1:]

    def _spanned(self, name: str, fn, on_call=None, count_key=None):
        """fn wrapped to record a span; on_call sees the arguments first and
        count_key is incremented once per call."""
        nid = self._nid(name)
        stack, counts, perf = self._stack, self.counts, time.perf_counter
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if count_key is not None:
                counts[count_key] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _callback(self, fn, count_key: str):
        """Wrap a callable handed to a solver or to CDF inversion: a span of
        the layer that defined it, counted under count_key."""
        layer = _layer_of_module(getattr(fn, "__module__", None) or "")
        return self._spanned(f"{layer}.<callback>", fn, count_key=count_key)

    # installation

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrapper_for(self, layer: str, attr: str, fn):
        name = f"{metric_layer(layer)}.{attr}"
        if name == "quad.log_integral_panels":
            def on_call(args, kwargs):
                bps = args[1] if len(args) > 1 else kwargs["breakpoints"]
                nodes = args[2] if len(args) > 2 else kwargs.get("nodes", 32)
                self.counts["quad.log_integral_panels.nodes"] += nodes * _n_panels(bps)
            return self._spanned(name, fn, on_call)
        if name == "quad.log_integral_gl":
            def on_call(args, kwargs):
                lo = args[1] if len(args) > 1 else kwargs["lo"]
                hi = args[2] if len(args) > 2 else kwargs["hi"]
                nodes = args[3] if len(args) > 3 else kwargs.get("nodes", 200)
                self.counts["quad.log_integral_gl.nodes"] += nodes if hi > lo else 0
            return self._spanned(name, fn, on_call)
        if name == "winners.infer_winner":
            from selectcond.winners import WinnersModelKind

            by_kind = {k: self._spanned(f"{name}.{k.value.replace('-', '_')}", fn)
                       for k in WinnersModelKind}

            def infer_winner(data, kind, *args, **kwargs):
                return by_kind[WinnersModelKind(kind)](data, kind, *args, **kwargs)
            return infer_winner
        if name == "selective.invert_monotone_cdf":
            span = self._spanned(name, fn)

            def invert_monotone_cdf(cdf_in_theta, *args, **kwargs):
                return span(self._callback(cdf_in_theta, "selective.cdf_evals"),
                            *args, **kwargs)
            return invert_monotone_cdf
        return self._spanned(name, fn)

    def _solver(self, layer: str, real):
        name = f"solvers.{metric_layer(layer)}"
        span = self._spanned(name, real)

        def solver(fn, *args, **kwargs):
            return span(self._callback(fn, f"{name}.fevals"), *args, **kwargs)

        return solver

    def install(self) -> None:
        import scipy.integrate
        import scipy.optimize

        modules = {f"selectcond.{layer}": layer for layer in LAYERS}
        modules.update((modname, "harness") for modname in HARNESS_MODULES)
        wrappers = {}
        for modname, layer in modules.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    wrappers[id(obj)] = (obj, self._wrapper_for(layer, attr, obj))
        # every alias of a wrapped function inside the package
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "selectcond" or modname.startswith("selectcond.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        from selectcond.distributions import TruncatedGaussian

        self._patch(TruncatedGaussian, "__init__",
                    self._spanned("distributions.TruncatedGaussian", TruncatedGaussian.__init__))
        for layer in SOLVER_LAYERS:
            mod = sys.modules[f"selectcond.{layer}"]
            if getattr(mod, "optimize", None) is scipy.optimize:
                self._patch(mod, "optimize", _SolverNamespace(
                    scipy.optimize,
                    {s: self._solver(layer, getattr(scipy.optimize, s)) for s in SOLVERS}))
            if getattr(mod, "quad", None) is scipy.integrate.quad:
                self._patch(mod, "quad", self._solver(layer, scipy.integrate.quad))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # output

    def write_spans(self, path: str) -> None:
        """Save the spans as a numpy .npz: parallel arrays name (an index into
        names), start and end (perf_counter seconds), parent (span index, -1
        for an op's root) and op."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 start=np.frombuffer(self.start, float), end=np.frombuffer(self.end, float),
                 parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32))

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics of the recorded spans, normalised per op."""
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name = np.frombuffer(self.name, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_ms = np.bincount(name, weights=self_time, minlength=n_names) * 1e3
        wall_ms = np.bincount(name, weights=dur, minlength=n_names) * 1e3
        per = 1.0 / max(n_ops, 1)
        ids = self._name_ids

        def calls_of(key):
            return float(calls[ids[key]]) if key in ids else 0.0

        def self_of(key):
            return float(self_ms[ids[key]]) if key in ids else 0.0

        out = {}
        for key in ("quad.log_integral_panels", "quad.log_integral_gl"):
            out[f"{key}.calls"] = calls_of(key) * per
            out[f"{key}.self_ms"] = self_of(key) * per
            out[f"{key}.nodes"] = self.counts[f"{key}.nodes"] * per
        out["selective.invert_equal_tailed.calls"] = calls_of("selective.invert_equal_tailed") * per
        out["selective.invert_equal_tailed.self_ms"] = self_of("selective.invert_equal_tailed") * per
        monotone = calls_of("selective.invert_monotone_cdf")
        out["selective.invert_monotone_cdf.calls"] = monotone * per
        # every CI is two endpoint solves
        out["selective.cdf_evals_per_ci"] = (2.0 * self.counts["selective.cdf_evals"] / monotone
                                             if monotone else 0.0)
        for fn in ("selective_ci", "selective_mle", "selection_probability"):
            out[f"selective.{fn}.calls"] = calls_of(f"selective.{fn}") * per
            out[f"selective.{fn}.self_ms"] = self_of(f"selective.{fn}") * per
        for layer in SOLVER_LAYERS:
            key = f"solvers.{metric_layer(layer)}"
            out[f"{key}.calls"] = calls_of(key) * per
            out[f"{key}.fevals"] = self.counts[f"{key}.fevals"] * per
            out[f"{key}.self_ms"] = self_of(key) * per
        for key in ("distributions.truncated_cdf", "distributions.truncated_sf",
                    "distributions.truncated_quantile", "distributions.TruncatedGaussian",
                    "winners.infer_winner.full_vector",
                    "winners.infer_winner.conditional_on_losers",
                    "two_stage.infer_conditional", "two_stage.infer_unconditional",
                    "location.decompose", "location.location_pvalue",
                    "location.selective_location_inference",
                    "polyhedral.marginal_screening_event", "polyhedral.truncation_intervals",
                    "polyhedral.selective_ci_linear", "polyhedral.selective_pvalue_linear",
                    "ancillarity.check_G_preservation", "ancillarity.check_M_preservation",
                    "harness.run_replication"):
            out[f"{key}.calls"] = calls_of(key) * per
            out[f"{key}.self_ms"] = self_of(key) * per
        out["harness.accept_ratio"] = self._accept_ratio(name, parent)
        for fn in ("summarize", "write_outputs", "verify_summary"):
            out[f"harness.{fn}.self_ms"] = self_of(f"harness.{fn}") * per
        n_main = calls_of("cli.main")
        out["cli.main.wall_ms"] = (float(wall_ms[ids["cli.main"]]) / n_main) if n_main else 0.0
        total_ms = float(wall_ms[ids[ROOT]]) if ROOT in ids else 0.0
        layer_self = Counter()
        for nid, nm in enumerate(self.names):
            layer_self[nm.split(".")[0]] += float(self_ms[nid])
        for layer in tuple(metric_layer(x) for x in LAYERS) + ("solvers",):
            out[f"{layer}.self_share"] = layer_self[layer] / total_ms if total_ms else 0.0
        return out

    def _accept_ratio(self, name, parent) -> float:
        ids = self._name_ids
        if "harness.run_replication" not in ids:
            return 0.0
        rep_nid = ids["harness.run_replication"]
        attempt_nids = [ids[k] for k in SELECTION_ATTEMPTS if k in ids]
        is_attempt = np.isin(name, attempt_nids)
        from_rep = is_attempt & (parent >= 0)
        from_rep[from_rep] = name[parent[from_rep]] == rep_nid
        attempts = int(from_rep.sum())
        accepted = np.unique(parent[from_rep]).size
        return accepted / attempts if attempts else 0.0
