"""Spans around the program's public functions, recorded from outside it.

:class:`Tracer` replaces each function named in :data:`LAYER_FUNCTIONS` with
a wrapper in every ``umbralcalc`` module namespace that binds it.  Imported
names are rebound per module (``umbra.egf_revert`` and ``sheffer.egf_revert``
are separate bindings), so every binding is patched, or internal calls would
miss their spans.  ``Fraction`` and ``Poly`` arithmetic is counted, without
spans.

A span is (id, parent id, name, start, end, trace id, failed); spans stay in
memory until :meth:`Tracer.dump` writes them.  Aggregates are kept as spans
close: calls, busy time (outermost span of a name only, so recursion is not
counted twice) and self time (duration minus the durations of child spans).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from fractions import Fraction

import reference

LAYER_FUNCTIONS = {
    "cli": ("main", "render"),
    "workspace": ("load_umbrae", "save_raw"),
    "parser": ("parse", "pretty_print"),
    "expressions": ("evaluate",),
    "umbra": (
        "dot",
        "dot_power",
        "umbral_sum",
        "inverse_dot",
        "comp_inverse",
        "adjoint",
        "factorial_moments",
    ),
    "series": (
        "egf_mul",
        "egf_reciprocal",
        "egf_compose",
        "egf_revert",
        "egf_log",
        "egf_exp",
        "egf_power",
    ),
    "combinatorics": ("bell_partial",),
    "sheffer": ("sheffer_moments", "associated_moments", "appell_moments", "connection_constants"),
    "sequences": (
        "abel_polynomials",
        "lagrange_inversion_general",
        "stirling_first_umbral",
        "stirling_second_umbral",
        "recurrence_example_bernoulli",
        "recurrence_example_backward",
        "recurrence_example_fibonacci",
    ),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYER_FUNCTIONS.items() for fn in fns)

_FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
)
_POLY_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "__neg__",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trace_id = 0
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.busy = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        self.failed = dict.fromkeys(LAYER_FUNCTIONS, 0)
        self.partitions_scanned = 0
        self.partitions_useful = 0
        self.dots_in_evaluate = 0
        self.evaluates = 0  # outermost evaluate calls
        self._ops = [0, 0]  # Fraction, Poly arithmetic calls
        self._last_id = 0
        self._stack: list[list] = []
        self._depth = dict.fromkeys(SPAN_NAMES, 0)
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, module: str, fn):
        tracer = self
        stack = self._stack
        depth = self._depth
        spans = self.spans
        clock = time.perf_counter
        counts_partitions = name == "combinatorics.bell_partial"
        is_dot = name == "umbra.dot"
        is_evaluate = name == "expressions.evaluate"

        def wrapper(*args, **kwargs):
            if counts_partitions:
                i, j = args[0], args[1]
                tracer.partitions_scanned += reference.partitions(i)
                tracer.partitions_useful += reference.partitions_with_parts(i, j)
            elif is_dot and depth["expressions.evaluate"]:
                tracer.dots_in_evaluate += 1
            elif is_evaluate and not depth[name]:
                tracer.evaluates += 1
            tracer._last_id += 1
            frame = [tracer._last_id, 0.0]  # span id, time covered by children
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            depth[name] += 1
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                duration = end - start
                spans.append((frame[0], parent, name, start, end, tracer.trace_id, failed))
                tracer.calls[name] += 1
                tracer.self_time[name] += duration - frame[1]
                if not depth[name]:
                    tracer.busy[name] += duration
                if stack:
                    stack[-1][1] += duration
                if failed:
                    tracer.failed[module] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, slot: int):
        ops = self._ops

        def counted(*args):
            ops[slot] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Patch every binding of every traced function, and count arithmetic."""
        homes = {mod: importlib.import_module(f"umbralcalc.{mod}") for mod in LAYER_FUNCTIONS}
        from umbralcalc.poly import Poly

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "umbralcalc" or name.startswith("umbralcalc.")) and m is not None]
        for mod_name, fns in LAYER_FUNCTIONS.items():
            home = homes[mod_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", mod_name, original)
                self._patches += [(mod, attr, original, wrapper) for mod in modules
                                  for attr, value in vars(mod).items() if value is original]
        for slot, (cls, ops) in enumerate(((Fraction, _FRACTION_OPS), (Poly, _POLY_OPS))):
            self._patches += [(cls, method, cls.__dict__[method], self._count(cls.__dict__[method], slot))
                              for method in ops if method in cls.__dict__]
        self.resume()

    def resume(self) -> None:
        """Put the patches (back) in place."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def suspend(self) -> None:
        """Restore the original functions; :meth:`resume` patches them again."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def uninstall(self) -> None:
        self.suspend()
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates as plain data, mergeable across processes with :func:`merge`."""
        return {
            "calls": self.calls,
            "busy": self.busy,
            "self": self.self_time,
            "failed": self.failed,
            "partitions_scanned": self.partitions_scanned,
            "partitions_useful": self.partitions_useful,
            "dots_in_evaluate": self.dots_in_evaluate,
            "evaluates": self.evaluates,
            "fraction_ops": self._ops[0],
            "poly_ops": self._ops[1],
        }

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line, and the summary last."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"summary": self.summary()}) + "\n")


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (both shaped like :meth:`Tracer.summary`)."""
    for key, value in part.items():
        if isinstance(value, dict):
            for k, v in value.items():
                total[key][k] = total[key].get(k, 0) + v
        else:
            total[key] += value
    return total


def layer_metrics(summary: dict, spawn_s: float, jobs_busy_s: float, overhead_ratio: float) -> dict:
    """Every per-layer metric: name -> (value, unit), in a fixed order."""
    out: dict = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = (summary["calls"][span], "count")
        out[f"{span}.busy_s"] = (summary["busy"][span], "s")
        out[f"{span}.self_s"] = (summary["self"][span], "s")
    for mod in LAYER_FUNCTIONS:
        out[f"{mod}.failed"] = (summary["failed"][mod], "count")
    scanned = summary["partitions_scanned"]
    evaluates = summary["evaluates"]
    out["combinatorics.bell_partial.partitions_scanned"] = (scanned, "count")
    out["combinatorics.bell_partial.useful_ratio"] = (
        summary["partitions_useful"] / scanned if scanned else 0.0, "ratio")
    out["expressions.evaluate.dots_per_call"] = (
        summary["dots_in_evaluate"] / evaluates if evaluates else 0.0, "ratio")
    out["poly.fraction_ops"] = (summary["fraction_ops"], "count")
    out["poly.poly_ops"] = (summary["poly_ops"], "count")
    out["cli.spawn_s"] = (spawn_s, "s")
    out["trace.jobs_busy_s"] = (jobs_busy_s, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
