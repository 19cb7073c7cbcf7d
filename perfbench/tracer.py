"""Outside-in span recorder for the chaplygin benchmark.

``Tracer.installed(package)`` replaces each function in ``TARGETS`` by a
wrapper that records one span per call, in every module namespace of the
package that holds a binding to it (``chaplygin.dynamics.reduced_vf`` and
``chaplygin.rolling.reduced_vf`` are separate bindings of one function),
and restores the originals on exit.  Methods are patched on their class.
Nothing inside the package is edited.

A span is ``[name, detail, parent, invocation, start_ns, end_ns, error]``.
``parent`` is the index of the enclosing span (-1 at the root) and
``invocation`` numbers the root spans, so every span of one ``cli.main``
call shares it.  Spans stay in memory until ``write_csv``; the per-layer
metrics are derived from them by ``layer_metrics``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
import time
from collections import Counter

# (layer, function) pairs; a dotted function is a method patched on its class.
TARGETS = (
    ("scenario", "load_scenario"),
    ("cli", "main"),
    ("dynamics", "integrate"),
    ("dynamics", "reparametrized_integrate"),
    ("dynamics", "rk4_step"),
    ("dynamics", "monitor_series"),
    ("dynamics", "invariant_drift"),
    ("dynamics", "divergence_defect"),
    ("rolling", "reduced_vf"),
    ("rolling", "omega_from_K"),
    ("rolling", "omega_jacobians"),
    ("rolling", "hamiltonian"),
    ("rolling", "X_nh_full"),
    ("rolling", "nh_bracket_full"),
    ("rolling", "reduced_bracket"),
    ("rolling", "reduction_consistency"),
    ("brackets", "BivectorPatch.matrix"),
    ("brackets", "BivectorPatch.partial_tensor"),
    ("brackets", "ham_vf"),
    ("brackets", "jacobiator"),
    ("brackets", "conformal_jacobiator"),
    ("brackets", "twisted_defect"),
    ("brackets", "dynamical_gauge_check"),
    ("geometry", "fd_partials"),
    ("geometry", "fd_gradient"),
    ("geometry", "fd_exterior_derivative"),
    ("verify", "run_suite"),
)
LAYERS = ("scenario", "cli", "dynamics", "rolling", "brackets", "geometry", "verify")
SUITES = ("jacobi", "conformal", "twisted", "gauge", "reduction", "measure")

# Waste ratios: calls of the first span made inside the second one, per
# call of the second.  A ratio with no calls in its base reads 0.
RATIOS = (
    ("rolling.nh_bracket_full.per_X_nh_full", "rolling.nh_bracket_full", "rolling.X_nh_full"),
    ("brackets.partial_tensor.per_jacobiator", "brackets.BivectorPatch.partial_tensor",
     "brackets.jacobiator"),
    ("brackets.matrix.per_jacobiator", "brackets.BivectorPatch.matrix", "brackets.jacobiator"),
    ("geometry.fd_exterior_derivative.per_twisted_defect", "geometry.fd_exterior_derivative",
     "brackets.twisted_defect"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._invocation = 0

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        per_suite = name == "verify.run_suite"  # detail: the suite name, its first argument

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                self._invocation += 1
            detail = (args[0] if args else kwargs["name"]) if per_suite else ""
            span = [name, detail, parent, self._invocation, clock(), 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[5] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(prefix)]
        undo = []
        try:
            for layer, function in TARGETS:
                owner = sys.modules[prefix + layer]
                name = f"{layer}.{function}"
                if "." in function:
                    cls_name, attr = function.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self.wrap(name, original))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(owner, function)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "invocation", "name", "detail", "start_ns", "end_ns", "error"])
            for idx, (name, detail, parent, inv, start, end, err) in enumerate(self.spans):
                out.writerow([idx, parent, inv, name, detail, start, end, int(err)])


def _per_pass(count, passes):
    return count // passes if count % passes == 0 else count / passes


def layer_metrics(spans, passes):
    """Per-layer metrics of ``passes`` identical passes, reported per pass.

    ``<name>.calls`` counts calls, ``<name>.self_s`` is span time minus the
    time of child spans, ``verify.run_suite.<suite>.s`` is inclusive time,
    ``<layer>.errors`` counts exceptions leaving a wrapped function.
    Returns {metric: (value, unit)}.
    """
    child_ns = [0] * len(spans)
    bases = {den for _, _, den in RATIOS}
    inside = [frozenset()] * len(spans)  # ratio bases among each span's ancestors
    calls, self_ns, suite_ns, errors, nested = Counter(), Counter(), Counter(), Counter(), Counter()
    for idx, (name, detail, parent, _, start, end, err) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            above = inside[parent]
            if spans[parent][0] in bases:
                above = above | {spans[parent][0]}
            inside[idx] = above
            for base in above:
                nested[name, base] += 1
        calls[name] += 1
        if detail:
            suite_ns[detail] += end - start
        if err:
            errors[name.split(".")[0]] += 1
    for idx, span in enumerate(spans):
        self_ns[span[0]] += span[5] - span[4] - child_ns[idx]

    out = {}
    for layer, function in TARGETS:
        name = f"{layer}.{function}"
        out[f"{name}.calls"] = (_per_pass(calls[name], passes), "count")
        out[f"{name}.self_s"] = (self_ns[name] / passes * 1e-9, "s")
    for suite in SUITES:
        out[f"verify.run_suite.{suite}.s"] = (suite_ns[suite] / passes * 1e-9, "s")
    for metric, num, den in RATIOS:
        out[metric] = (nested[num, den] / calls[den] if calls[den] else 0.0, "1")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (_per_pass(errors[layer], passes), "count")
    return out
