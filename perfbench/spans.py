"""Span tracing of the library from outside, and the per-layer metrics.

A traced pass patches public functions in the module namespace where
their caller looks them up (``report.find_critical_orbits``,
``critical.detect_period``, ``flows.solve_rk45`` ...) and restores every
patch when the pass ends; nothing under ``src/`` is edited.  Each patched
call records a span (name, start, end, parent) in memory.

Two callees run far too often to keep one span per call: the RK45
right-hand side and the Christoffel symbols.  They are "hot" frames,
aggregated per name (calls, total, self) and charged to the enclosing
frame, so self times still add up.  A span may not open inside a hot
frame.

Work is counted with wrapped evaluators: the entry's Killing field and
metric (and every approximant field ``combine_family`` builds) count the
points they are evaluated at, N for an (N, d) argument.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

FIELD_POINTS = "killing.field_points"
METRIC_POINTS = "killing.metric_points"

# (module, attribute, span name): the span name is the callee's layer.
SPAN_PATCHES = (
    ("killing_geodesics", "analyze_entry", "report.analyze_entry"),
    ("killing_geodesics", "approximate_entry", "report.approximate_entry"),
    ("killing_geodesics", "make_killing_field", "killing.make_killing_field"),
    ("killing_geodesics", "detect_period", "flows.detect_period"),
    ("killing_geodesics", "shoot_geodesic", "flows.shoot_geodesic"),
    ("killing_geodesics.report", "find_critical_orbits", "critical.find_critical_orbits"),
    ("killing_geodesics.report", "detect_period", "flows.detect_period"),
    ("killing_geodesics.report", "killing_residual", "killing.killing_residual"),
    ("killing_geodesics.report", "approximate_closed", "rational.approximate_closed"),
    ("killing_geodesics.report", "certify_uniform_convergence", "rational.certify_uniform_convergence"),
    ("killing_geodesics.critical", "grad_f", "critical.grad_f"),
    ("killing_geodesics.critical", "classify_critical", "critical.classify_critical"),
    ("killing_geodesics.critical", "detect_period", "flows.detect_period"),
    ("killing_geodesics.critical", "flow", "flows.flow"),
    ("killing_geodesics.critical", "geodesic_residual", "flows.geodesic_residual"),
    ("killing_geodesics.critical", "min_distance_to_point", "flows.min_distance_to_point"),
    ("killing_geodesics.flows", "flow", "flows.flow"),
    ("killing_geodesics.flows", "reduce_point", "geometry.reduce_point"),
    ("killing_geodesics.flows", "solve_rk45", "integrate.solve_rk45"),
    ("killing_geodesics.killing", "killing_residual", "killing.killing_residual"),
)
HOT_PATCHES = (
    ("killing_geodesics.flows", "christoffel", "geometry.christoffel"),
    ("killing_geodesics.geometry", "christoffel", "geometry.christoffel"),
)
# Approximant fields are built here; their evaluators get point counters.
FIELD_FACTORY = ("killing_geodesics.rational", "combine_family")
RHS = "integrate.rhs"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    hot_s: float = 0.0  # time in direct hot children
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> dict:
    """Span id -> duration minus direct child spans minus direct hot time."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] - s.hot_s for s in spans}


def rk45_steps(rhs_evals: int, knots: int) -> tuple:
    """(accepted, rejected) steps of one ``solve_rk45`` run.

    The stepper evaluates the right-hand side once at the start, 7 times
    per accepted step (6 stages plus the derivative at the new knot) and
    6 times per rejected step; the curve has one knot per accepted step
    plus the start.  Raises ValueError when the counts are inconsistent.
    """
    accepted = knots - 1
    rest = rhs_evals - 1 - 7 * accepted
    if accepted < 0 or rest < 0 or rest % 6:
        raise ValueError(f"rhs count {rhs_evals} does not fit {knots} knots")
    return accepted, rest // 6


class Tracer:
    """In-memory spans, hot-frame aggregates and work counters of one run."""

    def __init__(self):
        self.spans: list = []
        self.hot: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: dict = defaultdict(int)
        self.errors: list = []
        # open frames: [hot child seconds, Span or None for a hot frame]
        self._stack: list = [[0.0, None]]

    # -- frames ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        if len(self._stack) > 1 and self._stack[-1][1] is None:
            raise RuntimeError(f"span {name} opened inside a hot frame")
        parent = next((f[1].id for f in reversed(self._stack) if f[1] is not None), None)
        span = Span(len(self.spans), name, time.perf_counter(), math.nan, parent)
        self.spans.append(span)
        self._stack.append([0.0, span])
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        frame = self._stack.pop()
        span.hot_s = frame[0]

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if on_result is not None:
                on_result(span, result)
            return result

        return wrapped

    def hot_frame(self, name: str, fn):
        """Wrap ``fn`` as an aggregated hot frame named ``name``."""
        agg = self.hot.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
                stack[-1][0] += dur

        return wrapped

    def counter(self, key: str, fn):
        """Wrap an evaluator so it counts the points it is evaluated at."""
        counts = self.counts

        def wrapped(p):
            counts[key] += 1 if np.ndim(p) <= 1 else len(p)
            return fn(p)

        return wrapped

    # -- instrumentation ------------------------------------------------

    def instrument_entry(self, entry):
        """A copy of a gallery entry whose field and metric count points."""
        K, g = entry.killing, entry.metric
        return dataclasses.replace(
            entry,
            killing=dataclasses.replace(K, evaluator=self.counter(FIELD_POINTS, K.evaluator)),
            metric=dataclasses.replace(g, evaluator=self.counter(METRIC_POINTS, g.evaluator)),
        )

    def _solve_rk45(self, solve):
        """``solve_rk45`` with a counted, timed right-hand side."""
        @functools.wraps(solve)
        def wrapped(rhs, *args, **kwargs):
            timed = self.hot_frame(RHS, rhs)
            before = self.hot[RHS][0]
            span = self._open("integrate.solve_rk45")
            try:
                curve = solve(timed, *args, **kwargs)
            finally:
                self._close(span)
            calls = self.hot[RHS][0] - before
            try:
                accepted, rejected = rk45_steps(calls, len(curve.ts))
            except ValueError as exc:
                self.errors.append(str(exc))
                accepted, rejected = len(curve.ts) - 1, 0
            span.attrs.update(rhs_evals=calls, accepted=accepted, rejected=rejected)
            return curve

        return wrapped

    def _wrapper(self, attr: str, name: str, original):
        if attr == "solve_rk45":
            return self._solve_rk45(original)
        if attr == "detect_period":
            return self.span(name, original, lambda s, r: s.attrs.update(certified=r is not None))
        if attr == "grad_f":
            return self.span(name, original, lambda s, r: s.attrs.update(norm=float(np.linalg.norm(r))))
        if attr == "find_critical_orbits":
            def note(s, orbits):
                s.attrs.update(
                    orbits=len(orbits),
                    degenerate=any(o.classification == "degenerate_constant" for o in orbits),
                )
            return self.span(name, original, note)
        return self.span(name, original)

    def _count_fields(self, combine):
        @functools.wraps(combine)
        def wrapped(*args, **kwargs):
            K = combine(*args, **kwargs)
            return dataclasses.replace(K, evaluator=self.counter(FIELD_POINTS, K.evaluator))

        return wrapped

    @contextmanager
    def patched(self):
        """Install every patch; restore the original attributes on exit."""
        makers = [(m, a, functools.partial(self._wrapper, a, n)) for m, a, n in SPAN_PATCHES]
        makers += [(m, a, functools.partial(self.hot_frame, n)) for m, a, n in HOT_PATCHES]
        makers.append((*FIELD_FACTORY, self._count_fields))
        saved = []
        try:
            for module_name, attr, make in makers:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _sums(tracer: Tracer):
    own_of = self_times(tracer.spans)
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in tracer.spans:
        total[s.name] += s.duration
        own[s.name] += own_of[s.id]
        calls[s.name] += 1
    return total, own, calls


def layer_self_s(tracer: Tracer) -> dict:
    """Self seconds per layer (the module prefix of each frame name)."""
    _, own, _ = _sums(tracer)
    out = defaultdict(float)
    for name, seconds in own.items():
        out[name.split(".")[0]] += seconds
    for name, (_, _, seconds) in tracer.hot.items():
        out[name.split(".")[0]] += seconds
    return dict(out)


def layer_metrics(
    tracer: Tracer,
    passes: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    build_s: float,
    grad_tol: float,
) -> dict:
    """Per-layer metrics by name, per traced pass; BENCHMARK.json has the units.

    ``traced_wall_s`` and ``untraced_wall_s`` are summed over the same
    passes; ``build_s`` is one in-process build of the workload's entries.
    """
    total, own, calls = _sums(tracer)
    spans = tracer.spans
    # a call that raised has no result attributes
    search = {s.id for s in spans if s.name == "critical.find_critical_orbits" and not s.attrs.get("degenerate")}
    grads = [s for s in spans if s.name == "critical.grad_f" and s.parent in search]
    descents = len(grads)
    converged = sum(s.attrs.get("norm", math.inf) <= grad_tol for s in grads)
    orbits = sum(spans[i].attrs.get("orbits", 0) for i in search)
    solves = [s for s in spans if s.name == "integrate.solve_rk45"]
    accepted = sum(s.attrs.get("accepted", 0) for s in solves)
    rejected = sum(s.attrs.get("rejected", 0) for s in solves)
    certified = sum(s.attrs.get("certified", False) for s in spans if s.name == "flows.detect_period")
    detects = calls["flows.detect_period"]
    rhs = tracer.hot.get(RHS, [0, 0.0, 0.0])
    chris = tracer.hot.get("geometry.christoffel", [0, 0.0, 0.0])
    critical_self = own["critical.find_critical_orbits"]
    n = float(passes)

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "gallery.build_s": build_s,
        "report.self_s": (own["report.analyze_entry"] + own["report.approximate_entry"]) / n,
        "critical.find_s": total["critical.find_critical_orbits"] / n,
        "critical.self_s": critical_self / n,
        "critical.descents": descents / n,
        "critical.converged_ratio": ratio(converged, descents),
        "critical.ms_per_descent": 1e3 * ratio(critical_self, descents),
        "critical.dedup_merges": (converged - orbits) / n,
        "critical.classify_s": total["critical.classify_critical"] / n,
        "critical.grad_f_s": total["critical.grad_f"] / n,
        "killing.field_points": tracer.counts[FIELD_POINTS] / n,
        "killing.metric_points": tracer.counts[METRIC_POINTS] / n,
        "killing.residual_s": total["killing.killing_residual"] / n,
        "flows.detect_period_calls": detects / n,
        "flows.detect_period_s": total["flows.detect_period"] / n,
        "flows.certified_ratio": ratio(certified, detects),
        "flows.flow_calls": calls["flows.flow"] / n,
        "flows.flow_s": total["flows.flow"] / n,
        "flows.shoot_s": total["flows.shoot_geodesic"] / n,
        "flows.residual_s": total["flows.geodesic_residual"] / n,
        "flows.self_s": sum(v for k, v in own.items() if k.startswith("flows.")) / n,
        "flows.dedup_calls": calls["flows.min_distance_to_point"] / n,
        "flows.dedup_s": total["flows.min_distance_to_point"] / n,
        "integrate.calls": len(solves) / n,
        "integrate.rhs_evals": sum(s.attrs.get("rhs_evals", 0) for s in solves) / n,
        "integrate.steps_accepted": accepted / n,
        "integrate.steps_rejected": rejected / n,
        "integrate.rhs_s": rhs[1] / n,
        "integrate.self_s": own["integrate.solve_rk45"] / n,
        "integrate.us_per_step": 1e6 * ratio(total["integrate.solve_rk45"], accepted + rejected),
        "geometry.christoffel_calls": chris[0] / n,
        "geometry.christoffel_s": chris[1] / n,
        "geometry.reduce_point_calls": calls["geometry.reduce_point"] / n,
        "geometry.reduce_point_s": total["geometry.reduce_point"] / n,
        "rational.approximate_closed_s": total["rational.approximate_closed"] / n,
        "rational.certify_s": total["rational.certify_uniform_convergence"] / n,
        "trace.pass_wall_s": traced_wall_s / n,
        "trace.overhead_ratio": ratio(traced_wall_s, untraced_wall_s),
    }


def span_records(tracer: Tracer):
    """JSON-ready records: one per span, then the hot aggregates and counts."""
    for s in tracer.spans:
        yield {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
               "parent": s.parent, "hot_s": s.hot_s, "attrs": s.attrs}
    yield {"hot": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in tracer.hot.items()},
           "counts": dict(tracer.counts)}
