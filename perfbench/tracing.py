"""Per-layer tracing for the traced run, applied from outside the package.

Every public function that marks a layer boundary is replaced, in every
``probsens`` module that binds it, by a wrapper that records a span (name,
start, end, parent span, operation) and adds to the layer's time and count.
A layer's time is inclusive and counted once per outermost call, so a
function that re-enters itself is not double counted.  ``ParamExpr.__init__``
runs far too often for one span per call; it only adds to its time and count.
Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

#: Spans kept in memory; beyond this only the totals are updated.
MAX_SPANS = 400_000

# (home module, function or Class.method, time metric, call-count metric,
#  whether each call records a span)
LAYERS = [
    ("parser", "parse", "parser.parse_s", None, True),
    ("normalize", "normalize", "normalize.normalize_s", None, True),
    ("dependency", "classify", "dependency.classify_s", "dependency.classify_calls", True),
    ("dependency", "variable_supports", "dependency.supports_s", None, True),
    ("dependency", "build_graph", "dependency.graph_s", None, True),
    ("moments", "MomentContext.recurrence", "moments.recurrence_s", "moments.recurrence_calls", True),
    ("moments", "MomentContext.reduce", "moments.reduce_s", None, True),
    ("sensitivity", "moment_closure", "sensitivity.assembly_s", None, True),
    ("sensitivity", "sensitivity_system", "sensitivity.assembly_s", None, True),
    ("solver", "solve_system", "solver.solve_s", None, True),
    ("solver", "factor_charpoly", "solver.factor_s", "solver.factor_calls", True),
    ("symbolic", "ParamExpr.__init__", "symbolic.paramexpr_s", "symbolic.paramexpr_new", False),
    ("symbolic", "ep_diff", "symbolic.ep_diff_s", None, True),
    ("symbolic", "ep_eval", "symbolic.ep_eval_s", None, True),
    ("oracle", "enumerate_distribution", "oracle.enumerate_s", None, True),
    ("oracle", "sample_moment", "oracle.sample_s", None, True),
    ("oracle", "fd_sensitivity", "oracle.fd_s", None, True),
]

#: Only the binding inside ``probsens.solver`` is wrapped: verification of
#: solved closed forms, not every symbolic evaluation.
SOLVER_ONLY = [("symbolic", "ep_value_symbolic", "solver.verify_s")]

#: Metrics filled in by the workloads themselves rather than by wrappers.
EXTRA_METRICS = {
    "sensitivity.equations": "count",
    "oracle.trials": "count",
    "cli.import_s": "s",
    "cli.process_s": "s",
    "cli.reported_wall_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    units = {}
    for *_, time_metric, count_metric, _ in LAYERS:
        units[time_metric] = "s"
        if count_metric:
            units[count_metric] = "count"
    for *_, time_metric in SOLVER_ONLY:
        units[time_metric] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Spans and per-layer totals of one traced run, kept in memory."""

    def __init__(self):
        self.origin = perf()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.calls = {True: 0, False: 0}
        self.op: str | None = None
        self.dropped = 0

    # -- operations -----------------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op = label
        self.stack.append(self._open("op", None))

    def end_op(self) -> None:
        self._close(self.stack.pop())
        self.op = None

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, parent) -> int:
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return -1
        self.spans.append([name, perf() - self.origin, None, parent, self.op])
        return len(self.spans) - 1

    def _close(self, sid: int) -> None:
        if sid >= 0:
            self.spans[sid][2] = perf() - self.origin

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": op}
            for i, (n, s, e, p, op) in enumerate(self.spans)
        ]

    # -- wrapping -------------------------------------------------------------

    def wrapper(self, fn, name: str, time_metric: str, count_metric, with_span: bool):
        totals, depth, stack = self.totals, self.depth, self.stack
        result_hook = _RESULT_HOOKS.get(name)
        calls = self.calls

        def traced(*args, **kwargs):
            calls[with_span] += 1
            if count_metric:
                totals[count_metric] += 1
            outer = depth[name] == 0
            depth[name] += 1
            sid = -1
            if with_span:
                sid = self._open(name, stack[-1] if stack else None)
                stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                depth[name] -= 1
                if outer:
                    totals[time_metric] += dt
                if with_span:
                    stack.pop()
                    self._close(sid)
            if result_hook is not None and outer:
                result_hook(totals, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def overhead_estimate(self, rounds: int = 100_000) -> float:
        """Seconds the wrappers added to this run: the calls made, times the
        cost one wrapped call adds over a plain call, measured here."""

        def noop(x):
            return x

        t0 = perf()
        for i in range(rounds):
            noop(i)
        plain = perf() - t0
        total = 0.0
        for with_span in (True, False):
            wrapped = Tracer().wrapper(noop, "noop", "noop_s", "noop_calls", with_span)
            t0 = perf()
            for i in range(rounds):
                wrapped(i)
            per_call = max(0.0, (perf() - t0 - plain) / rounds)
            total += per_call * self.calls[with_span]
        return total


def _count_equations(totals, args, kwargs, system) -> None:
    totals["sensitivity.equations"] += system.size


def _count_trials(totals, args, kwargs, estimate) -> None:
    totals["oracle.trials"] += estimate.trials


_RESULT_HOOKS = {
    "moment_closure": _count_equations,
    "sensitivity_system": _count_equations,
    "sample_moment": _count_trials,
}


def _probsens_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "probsens" or k.startswith("probsens.")]


def instrument(tracer: Tracer):
    """Wrap every layer boundary of the loaded probsens modules; returns a
    function that puts the original bindings back."""
    modules = _probsens_modules()
    saved = []

    def rebind(owner, name, traced):
        saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, traced)

    for mod_name, attr, time_metric, count_metric, with_span in LAYERS:
        home = sys.modules[f"probsens.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            fn = cls.__dict__[meth]
            rebind(cls, meth, tracer.wrapper(fn, attr, time_metric, count_metric, with_span))
            continue
        fn = getattr(home, attr)
        traced = tracer.wrapper(fn, attr, time_metric, count_metric, with_span)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    rebind(mod, name, traced)
    solver = sys.modules["probsens.solver"]
    for mod_name, attr, time_metric in SOLVER_ONLY:
        fn = getattr(sys.modules[f"probsens.{mod_name}"], attr)
        for name, value in list(vars(solver).items()):
            if value is fn:
                rebind(solver, name, tracer.wrapper(fn, f"solver.{attr}", time_metric, None, True))

    def restore() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return restore
