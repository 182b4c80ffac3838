"""Outside-in tracing of the library's layers.

A Tracer rebinds, for the duration of a ``with`` block, every public
``pennycontact`` function that a consuming module has imported from another
layer (``fields.f_m``, ``models.l_plus_reciprocal``, ``cli.solve_disc_reduction``,
...) to a timing wrapper.  Module objects a consumer has bound (``verify``'s
``models``, ``fields``, ``fz`` and ``specfun``, and the benchmark's own
``cli``, ``models`` and ``fields``) are replaced by views whose public
functions are wrapped.  The library's source is never changed, and every
binding is restored on exit.

Each wrapped call records a span -- label, start, end and the span that was
open when it started -- in memory.  summarize() turns the spans of one pass
into the per-layer metrics; write_spans() saves them when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "pennycontact"
LAYERS = ("specfun", "models", "fields", "factorization", "verify", "cli")
CONSUMERS = ("fields", "models", "factorization", "verify", "cli")

# Same-layer bindings wrapped as well, so evaluations reached inside
# factorization (boundary residuals, index fits) are counted.
INTERNAL = (("factorization", "eval_X_disc"), ("factorization", "eval_X_annulus"))

COMPLEX_SPECFUN = {
    "specfun.kernel_L",
    "specfun.l_plus",
    "specfun.l_minus",
    "specfun.l_plus_reciprocal",
    "specfun.l_minus_reciprocal",
    "specfun.log_gamma_complex",
    "specfun.tan_half_pi",
    "specfun.cot_half_pi",
}
SOLVES = ("models.solve_disc_reduction", "models.solve_disc_recurrence", "models.solve_annulus_reduction")
RESIDUALS = ("models.system_residual", "models.disc_system_residual", "models.annulus_system_residual")
POINTS = {
    "fields.stress_contact",
    "fields.stress_contact_series",
    "fields.stress_contact_edge",
    "fields.stress_outer",
    "fields.stress_outer_series",
    "fields.stress_outer_edge",
    "fields.displacement",
}
COLUMN_SOLVES = ("factorization.solve_factor_columns_disc", "factorization.solve_factor_columns_annulus")
MATRIX_EVALS = ("factorization.eval_X_disc", "factorization.eval_X_annulus")


def _label(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _library_functions(module):
    """Public functions defined in a library module."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


class _ModuleView:
    """Stand-in for a bound library module: wrapped functions, everything else delegated."""

    def __init__(self, module, wrapped: dict):
        self.__dict__.update(wrapped)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span recorder that rebinds library functions while active."""

    def __init__(self, extra_consumers=()):
        self._consumers = [sys.modules[f"{PACKAGE}.{name}"] for name in CONSUMERS]
        self._consumers += list(extra_consumers)
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_label: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self.args: dict[str, list] = defaultdict(list)
        self.results: dict[str, list] = defaultdict(list)
        self._saved: list[tuple] = []

    # -- rebinding ------------------------------------------------------

    def bindings(self):
        """(consumer, name, original) for every binding the tracer replaces."""
        found = []
        for consumer in self._consumers:
            for name, obj in vars(consumer).items():
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.ModuleType) and obj.__name__.startswith(PACKAGE + "."):
                    found.append((consumer, name, obj))
                elif (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith(PACKAGE + ".")
                    and obj.__module__ != consumer.__name__
                ):
                    found.append((consumer, name, obj))
        for module_name, name in INTERNAL:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            found.append((module, name, getattr(module, name)))
        return found

    def __enter__(self):
        replacements = []
        for consumer, name, obj in self.bindings():
            if isinstance(obj, types.ModuleType):
                wrapped = {n: self.wrap(_label(f), f) for n, f in _library_functions(obj).items()}
                replacements.append((consumer, name, obj, _ModuleView(obj, wrapped)))
            else:
                replacements.append((consumer, name, obj, self.wrap(_label(obj), obj)))
        for consumer, name, obj, new in replacements:
            setattr(consumer, name, new)
            self._saved.append((consumer, name, obj))
        return self

    def __exit__(self, *exc):
        while self._saved:
            consumer, name, obj = self._saved.pop()
            setattr(consumer, name, obj)
        return False

    # -- spans ----------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def wrap(self, label: str, fn):
        """Timing wrapper for fn; records arguments or results where metrics need them."""
        lid = self._label_id(label)
        labels, parents, starts, ends, stack = (
            self.span_label,
            self.span_parent,
            self.span_start,
            self.span_end,
            self._stack,
        )
        real_specfun = label.startswith("specfun.") and label not in COMPLEX_SPECFUN
        args_log = self.args[label] if real_specfun or label in SOLVES else None
        results_log = self.results[label] if label in SOLVES + COLUMN_SOLVES + ("verify.run_verification",) else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(labels)
            labels.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if args_log is not None:
                args_log.append(args)
            if results_log is not None:
                results_log.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write_spans(self, path) -> None:
        """Save the spans as gzip text: a JSON header line, then parent,label,start,end rows."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"labels": self.labels, "columns": ["parent", "label", "start_s", "end_s"]}) + "\n")
            for p, lid, s, e in zip(self.span_parent, self.span_label, self.span_start, self.span_end):
                out.write(f"{p},{lid},{s - origin:.9f},{e - origin:.9f}\n")


def is_time(metric: str) -> bool:
    """Whether a summarize() key is a time; every other key is a count or a ratio of counts."""
    return metric.endswith("_s") or metric == "fields.us_per_point"


def _is_nonpositive_integer(v: float) -> bool:
    return v <= 0.5 and abs(v - round(v)) < 1e-9


def summarize(tracer: Tracer) -> dict:
    """Per-layer counts and times from the spans of one traced pass.

    busy time counts the outermost span of a layer once; self time subtracts
    the child spans, which always belong to other layers or to nested calls
    of the same layer.  Spans whose label is outside the library layers
    (the benchmark's own ``bench.*`` spans) form the ``bench`` layer.
    """
    labels = tracer.labels
    label_of = tracer.span_label
    parent = tracer.span_parent
    n = len(label_of)
    dur = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    layer_bit = {name: 1 << k for k, name in enumerate(LAYERS + ("bench",))}
    label_layer = [lab.split(".", 1)[0] for lab in labels]
    label_layer = [layer if layer in LAYERS else "bench" for layer in label_layer]

    child_time = [0.0] * n
    ancestors = [0] * n
    outermost = [True] * n
    calls = Counter()
    for i in range(n):
        lid = label_of[i]
        calls[labels[lid]] += 1
        p = parent[i]
        if p >= 0:
            child_time[p] += dur[i]
            ancestors[i] = ancestors[p] | layer_bit[label_layer[label_of[p]]]
            outermost[i] = not ancestors[i] & layer_bit[label_layer[lid]]

    self_s = Counter()
    busy_s = Counter()
    label_busy = Counter()
    specfun_under_points = 0
    for i in range(n):
        lid = label_of[i]
        layer = label_layer[lid]
        self_s[layer] += dur[i] - child_time[i]
        if outermost[i]:
            busy_s[layer] += dur[i]
            label_busy[labels[lid]] += dur[i]
        p = parent[i]
        if layer == "specfun" and p >= 0 and labels[label_of[p]] in POINTS:
            specfun_under_points += 1

    def total(names, table=calls):
        return sum(table[name] for name in names)

    args = tracer.args
    fm_args = args.get("specfun.f_m", [])
    hyp_args = args.get("specfun.gauss_2f1", [])
    real_keys = [(label, a) for label, log in args.items() if label.startswith("specfun.") for a in log]
    solve_keys = [(label, a) for label in SOLVES for a in args.get(label, [])]

    unknowns = 0
    lu_flops = 0.0
    for label in SOLVES:
        for result in tracer.results.get(label, []):
            coeffs = result[1] if isinstance(result, tuple) else result
            dim = sum(len(v) for v in vars(coeffs).values() if hasattr(v, "__len__"))
            unknowns += dim
            if label != "models.solve_disc_recurrence":
                lu_flops += 2.0 / 3.0 * dim**3
    reports = tracer.results.get("verify.run_verification", [])
    points = total(POINTS)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "specfun.f_m.calls": calls["specfun.f_m"],
        "specfun.f_m.busy_s": label_busy["specfun.f_m"],
        "specfun.f_m.calls_per_distinct_x": ratio(len(fm_args), len({a[1] for a in fm_args})),
        "specfun.gauss_2f1.calls": calls["specfun.gauss_2f1"],
        "specfun.gauss_2f1.calls_transformed_region": sum(
            1
            for a, b, c, x in hyp_args
            if x > 0.75 and not (_is_nonpositive_integer(a) or _is_nonpositive_integer(b))
        ),
        "specfun.gauss_2f1.calls_terminating": sum(
            1 for a, b, c, x in hyp_args if _is_nonpositive_integer(a) or _is_nonpositive_integer(b)
        ),
        "specfun.gauss_2f1.busy_s": label_busy["specfun.gauss_2f1"],
        "specfun.args_repeat_ratio": ratio(len(real_keys) - len(set(real_keys)), len(real_keys)),
        "specfun.complex.calls": total(COMPLEX_SPECFUN),
        "specfun.complex.busy_s": total(COMPLEX_SPECFUN, label_busy),
        "specfun.self_s": self_s["specfun"],
        "models.solve_disc_reduction.calls": calls["models.solve_disc_reduction"],
        "models.solve_disc_recurrence.calls": calls["models.solve_disc_recurrence"],
        "models.solve_annulus_reduction.calls": calls["models.solve_annulus_reduction"],
        "models.solve.busy_s": total(SOLVES, label_busy),
        "models.unknowns": unknowns,
        "models.lu_flops_computed": lu_flops,
        "models.residual.calls": total(RESIDUALS),
        "models.residual.busy_s": total(RESIDUALS, label_busy),
        "models.solve_repeat_ratio": ratio(len(solve_keys) - len(set(solve_keys)), len(solve_keys)),
        "models.self_s": self_s["models"],
        "fields.points": points,
        "fields.busy_s": busy_s["fields"],
        "fields.self_s": self_s["fields"],
        "fields.us_per_point": 1e6 * ratio(total(POINTS, label_busy), points),
        "fields.specfun_calls_per_point": ratio(specfun_under_points, points),
        "factorization.column_solves": sum(len(r) for label in COLUMN_SOLVES for r in tracer.results.get(label, [])),
        "factorization.matrix_evals": total(MATRIX_EVALS),
        "factorization.busy_s": busy_s["factorization"],
        "factorization.self_s": self_s["factorization"],
        "verify.checks": sum(len(r.checks) for r in reports),
        "verify.checks_failed": sum(1 for r in reports for c in r.checks if not c.passed),
        "verify.self_s": self_s["verify"],
        "cli.calls": calls["cli.main"],
        "cli.self_s": self_s["cli"],
        "bench.self_s": self_s["bench"],
        "trace.wall_s": label_busy["bench.pass"],
        "trace.spans": n,
    }
