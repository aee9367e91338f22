"""Span recording around the public functions of ``nsvol``.

The traced run wraps each function listed in ``TARGETS`` wherever the
package looks it up: the defining module and every ``nsvol`` module that
imported it by name (``harness`` imports ``qmle_detail``, ``information``
imports ``resolvent_diag``, the package root re-exports most names).
Methods are wrapped on their class.  A target that no longer exists is
skipped and listed in ``Recorder.missing``, so renaming a function drops it
from the trace without breaking the run.

Spans are kept in memory as ``[function, start, end, parent, op]`` rows and
written out once, when the run ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# (defining module, attribute path, metric prefix)
TARGETS = [
    ("nsvol.scheme", "poisson_grid", "scheme.poisson_grid"),
    ("nsvol.scheme", "overlap_matrix", "scheme.overlap_matrix"),
    ("nsvol.scheme", "load_grid_json", "scheme.load_grid_json"),
    ("nsvol.scheme", "resolvent_diag", "scheme.resolvent_diag"),
    ("nsvol.scheme", "check_a2", "scheme.check_a2"),
    ("nsvol.scheme", "theta_length_sums", "scheme.theta_length_sums"),
    ("nsvol.sde", "simulate_path", "sde.simulate_path"),
    ("nsvol.sde", "observe", "sde.observe"),
    ("nsvol.sde", "read_sample_csv", "sde.read_sample_csv"),
    ("nsvol.likelihood", "QuasiLikEngine.__init__",
     "likelihood.QuasiLikEngine"),
    ("nsvol.likelihood", "QuasiLikEngine.loglik", "likelihood.loglik"),
    ("nsvol.likelihood", "QuasiLikEngine.hessian", "likelihood.hessian"),
    ("nsvol.likelihood", "QuasiLikEngine.gradient", "likelihood.gradient"),
    ("nsvol.estimate", "qmle_detail", "estimate.qmle_detail"),
    ("nsvol.estimate", "bayes", "estimate.bayes"),
    ("nsvol.estimate", "observed_info", "estimate.observed_info"),
    ("nsvol.estimate", "hayashi_yoshida", "estimate.hayashi_yoshida"),
    ("nsvol.estimate", "plugin_covariation", "estimate.plugin_covariation"),
    ("nsvol.estimate", "run_estimation", "estimate.run_estimation"),
    ("nsvol.information", "trace_densities", "information.trace_densities"),
    ("nsvol.information", "information_matrix",
     "information.information_matrix"),
    ("nsvol.harness", "run_mc", "harness.run_mc"),
    ("nsvol.cli", "main", "cli.main"),
]

# Per-layer metrics, in the order BENCHMARK.json lists them.
SELF_TIMES = [
    "scheme.poisson_grid", "scheme.overlap_matrix", "scheme.load_grid_json",
    "scheme.resolvent_diag", "scheme.check_a2", "scheme.theta_length_sums",
    "sde.simulate_path", "sde.observe", "sde.read_sample_csv",
    "likelihood.loglik", "likelihood.hessian",
    "estimate.qmle_detail", "estimate.bayes", "estimate.observed_info",
    "estimate.hayashi_yoshida", "estimate.plugin_covariation",
    "estimate.run_estimation",
    "information.trace_densities", "information.information_matrix",
    "harness.run_mc", "cli.main",
]
SLOPES = ["scheme.resolvent_diag", "scheme.check_a2",
          "scheme.theta_length_sums"]
LAYER_METRICS = (
    [(f"{p}.self_s", "s") for p in SELF_TIMES]
    + [("scheme.resolvent_diag.calls", "count"),
       ("sde.simulate_path.setup_s", "s"),
       ("likelihood.QuasiLikEngine.init_s", "s"),
       ("likelihood.loglik.calls", "count"),
       ("likelihood.loglik.distinct_ratio", "ratio"),
       ("likelihood.loglik.failures", "count"),
       ("likelihood.gradient.calls", "count"),
       ("estimate.qmle_detail.loglik_calls", "count"),
       ("estimate.bayes.loglik_calls", "count")]
    + [(f"{p}.loglog_slope", "1") for p in SLOPES]
)

SETUP = "setup"


class Recorder:
    """In-memory span store; records only while ``op`` is not ``None``."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.op = None
        self.loglik_keys = []
        self.loglik_failures = []
        self.missing = []
        self._installed = []

    def _fid(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, func, fid, is_loglik):
        rec = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if rec.op is None:
                return func(*args, **kwargs)
            idx = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            row = [fid, time.perf_counter(), 0.0, parent, rec.op]
            rec.spans.append(row)
            rec.stack.append(idx)
            try:
                return func(*args, **kwargs)
            except Exception as exc:
                if is_loglik and type(exc).__name__ == \
                        "NotPositiveDefiniteError":
                    rec.loglik_failures.append(idx)
                raise
            finally:
                row[2] = time.perf_counter()
                rec.stack.pop()
                if is_loglik:
                    sigma = args[1] if len(args) > 1 else kwargs["sigma"]
                    rec.loglik_keys.append(
                        (idx, id(args[0]), tuple(float(v) for v in sigma)))

        return traced

    def install(self):
        """Wrap every target found; remember how to undo it."""
        nsvol_modules = [m for name, m in sorted(sys.modules.items())
                         if (name == "nsvol" or name.startswith("nsvol."))
                         and m is not None]
        for modname, path, prefix in TARGETS:
            owner = sys.modules.get(modname)
            parts = path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except AttributeError:
                self.missing.append(f"{modname}.{path}")
                continue
            if owner is None or not callable(original):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(original, self._fid(prefix),
                                 prefix == "likelihood.loglik")
            if isinstance(owner, type):
                self._installed.append((owner, parts[-1], original))
                setattr(owner, parts[-1], wrapper)
                continue
            for mod in nsvol_modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- analysis ------------------------------------------------------

    def self_times(self):
        """Self time of every span (duration minus direct children)."""
        own = [row[2] - row[1] for row in self.spans]
        for row in self.spans:
            if row[3] >= 0:
                own[row[3]] -= row[2] - row[1]
        return own

    def layer_metrics(self, n_ops, rung_of_op=None, rung_sizes=None):
        """Per-layer metrics normalised per timed op.

        ``rung_of_op`` maps an op index to its ladder rung and
        ``rung_sizes`` gives each rung's scale, for the log-log slopes.
        """
        own = self.self_times()
        fid = {name: k for k, name in enumerate(self.names)}
        n_ops = max(n_ops, 1)
        total = {}
        calls = {}
        setup_total = {}
        per_rung = {}
        for k, row in enumerate(self.spans):
            name = self.names[row[0]]
            if row[4] == SETUP:
                setup_total[name] = setup_total.get(name, 0.0) + own[k]
                continue
            total[name] = total.get(name, 0.0) + own[k]
            calls[name] = calls.get(name, 0) + 1
            if rung_of_op is not None:
                key = (name, rung_of_op(row[4]))
                t, c = per_rung.get(key, (0.0, 0))
                per_rung[key] = (t + own[k], c + 1)

        out = {}
        for prefix in SELF_TIMES:
            out[f"{prefix}.self_s"] = (total.get(prefix, 0.0) / n_ops, "s")
        out["scheme.resolvent_diag.calls"] = (
            calls.get("scheme.resolvent_diag", 0) / n_ops, "count")
        out["sde.simulate_path.setup_s"] = (
            setup_total.get("sde.simulate_path", 0.0), "s")
        engine = "likelihood.QuasiLikEngine"
        out[f"{engine}.init_s"] = (total.get(engine, 0.0) / n_ops, "s")
        ll_calls = calls.get("likelihood.loglik", 0)
        out["likelihood.loglik.calls"] = (ll_calls / n_ops, "count")
        op_keys = {(key[1], key[2], self.spans[key[0]][4])
                   for key in self.loglik_keys
                   if self.spans[key[0]][4] != SETUP}
        out["likelihood.loglik.distinct_ratio"] = (
            len(op_keys) / ll_calls if ll_calls else 0.0, "ratio")
        out["likelihood.loglik.failures"] = (
            sum(1 for k in self.loglik_failures
                if self.spans[k][4] != SETUP) / n_ops, "count")
        out["likelihood.gradient.calls"] = (
            calls.get("likelihood.gradient", 0) / n_ops, "count")
        for caller in ("estimate.qmle_detail", "estimate.bayes"):
            count = self._descendant_count(fid.get("likelihood.loglik"),
                                           fid.get(caller))
            out[f"{caller}.loglik_calls"] = (count / n_ops, "count")
        for prefix in SLOPES:
            points = []
            for rung, size in enumerate(rung_sizes or []):
                t, c = per_rung.get((prefix, rung), (0.0, 0))
                if c and t > 0:
                    points.append((math.log(size), math.log(t / c)))
            out[f"{prefix}.loglog_slope"] = (_slope(points), "1")
        return out

    def _descendant_count(self, child, ancestor):
        """Op spans of ``child`` with an ``ancestor`` span above them."""
        if child is None or ancestor is None:
            return 0
        count = 0
        for row in self.spans:
            if row[0] != child or row[4] == SETUP:
                continue
            parent = row[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def dump(self, path):
        doc = {"columns": ["function", "start", "end", "parent", "op"],
               "functions": self.names, "missing": self.missing,
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _slope(points):
    """Least-squares slope of ``(log n, log t)`` points; 0 when undefined."""
    if len(points) < 2:
        return 0.0
    mx = sum(p[0] for p in points) / len(points)
    my = sum(p[1] for p in points) / len(points)
    sxx = sum((p[0] - mx) ** 2 for p in points)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in points)
    return sxy / sxx if sxx > 0 else 0.0
