"""In-memory span tracer for the library's module boundaries.

The tracer replaces each boundary function with a wrapper in the namespace
that calls it: the names ``nuttall.py`` binds from ``incgamma`` and
``bessel``, the name ``quadrature.py`` binds from ``bessel``, and the
public evaluators the benchmark (and the evaluators themselves) call
through ``nuttall`` and ``quadrature``.  Each wrapped call records one span
(name, start, end, parent span, op id) in flat arrays; spans are summarized
and written out after the run.  A boundary name missing from its module is
skipped, so it reports zero calls instead of failing.

A layer's self time is its span's duration minus the durations of its
child spans.  Calls are single-threaded and nested, so children never
overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from types import ModuleType

# (module the name is looked up in, attribute, layer the function lives in)
BOUNDARIES = (
    ("nuttall", "_gamma_ratio_parts", "incgamma"),
    ("nuttall", "gamma_ratio_q", "incgamma"),
    ("nuttall", "q_forward_step", "incgamma"),
    ("nuttall", "bessel_i_scaled", "bessel"),
    ("nuttall", "bessel_ratio", "bessel"),
    ("quadrature", "log_bessel_i_scaled", "bessel"),
    ("nuttall", "nuttall_q_series", "nuttall"),
    ("nuttall", "marcum_q", "nuttall"),
    ("nuttall", "nuttall_q_ladder", "nuttall"),
    ("nuttall", "nuttall_q_homogeneous", "nuttall"),
    ("quadrature", "truncation_bounds", "quadrature"),
    ("quadrature", "tanh_rule_integrate", "quadrature"),
    ("quadrature", "moment_by_quadrature", "quadrature"),
)
SPAN_NAMES = tuple(f"{layer}.{attr}" for _, attr, layer in BOUNDARIES)

# Counted, not timed: one call per quadrature node evaluation.
NODE_COUNTER = ("quadrature", "_log_integrand")


class Tracer:
    """Wraps the boundaries of ``modules`` (name -> module) while active."""

    def __init__(self, modules: dict[str, ModuleType]) -> None:
        self.modules = modules
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.series_terms = 0
        self.series_converged = 0
        self.node_evals = 0
        self._stack = [-1]
        self._saved: list[tuple[ModuleType, str, object]] = []

    def __enter__(self) -> "Tracer":
        for sid, (mod_name, attr, _) in enumerate(BOUNDARIES):
            hook = self._on_series if attr == "nuttall_q_series" else None
            self._patch(mod_name, attr,
                        functools.partial(self._span, sid, hook=hook))
        self._patch(*NODE_COUNTER, self._count_nodes)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _patch(self, mod_name: str, attr: str, wrap) -> None:
        mod = self.modules[mod_name]
        fn = getattr(mod, attr, None)
        if fn is None:
            return
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, functools.wraps(fn)(wrap(fn)))

    def _span(self, sid: int, fn, hook):
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result
        return traced

    def _on_series(self, outcome) -> None:
        self.series_terms += getattr(outcome, "terms_used", 0)
        self.series_converged += bool(getattr(outcome, "converged", False))

    def _count_nodes(self, fn):
        def counted(*args, **kwargs):
            self.node_evals += 1
            return fn(*args, **kwargs)
        return counted

    def totals(self) -> tuple[list[int], list[float]]:
        """Calls and self seconds per entry of SPAN_NAMES."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i, sid in enumerate(self.name_id):
            calls[sid] += 1
            self_s[sid] += self.end[i] - self.start[i] - child[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        """One tab-separated line per span; times in seconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        with path.open("w") as f:
            f.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, sid in enumerate(self.name_id):
                f.write(f"{i}\t{SPAN_NAMES[sid]}\t{self.start[i] - t0:.9f}\t"
                        f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
