"""Killing flows, geodesics, residual certification and period detection.

Curves are integrated in ambient coordinates with the adaptive RK 5(4)
stepper; embedded manifolds get a constraint projection after every
accepted step.  Periodicity is detected modulo the deck group: a return
is a time s and a deck word g with g.c(s) = c(0) and dg.c'(s) = c'(0)
within tolerance, refined by bisection on a Poincare-section crossing
function evaluated on the dense output.  Period detection runs as the
flow is integrated: it scans and refines on the knots accepted so far
and stops the stepper at the first certified return, so a line that
closes early is not integrated to the horizon.  The certificate keeps
that run, and ``certified_flow`` reads the flow line up to the period off
it instead of integrating it again.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Array,
    DeckElement,
    ManifoldModel,
    MetricField,
    apply_christoffel,
    christoffel,
    directional_diff,
    metric_orthogonal_project,
    reduce_point,
    stacked,
)
from .integrate import DenseCurve, solve_rk45
from .killing import KillingFamily, as_field, energy_terms

PERIOD_TOL = 1e-6
GEODESIC_TOL = 1e-5
SCAN_RESOLUTION = 1e-3
DIP_THRESHOLD = 1e-2
BISECTION_STEPS = 60
RESIDUAL_MAX_SAMPLES = 2000  # interior samples geodesic_residual checks at most
DEDUP_RESOLUTION = 5e-3  # scan step of min_distance_to_point
_SCAN_KNOTS = 8  # knots between two return scans of detect_period


@dataclass(frozen=True, eq=False)
class CurveSample:
    """A time-stamped integrated curve with conservation diagnostics.

    ``dense`` interpolates the full ODE state: the point itself for flow
    curves, the stacked (point, velocity) pair for geodesics.
    """

    manifold: ManifoldModel
    kind: str                      # "flow" | "geodesic"
    times: Array
    points: Array
    velocities: Array
    accelerations: Optional[Array]
    energy_drift: float
    constraint_drift: float
    dense: DenseCurve
    field: Optional[Callable[[Array], Array]] = None

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def position_at(self, s):
        state = self.dense(s)
        n = self.manifold.ambient_dim
        return state[..., :n]

    @functools.cached_property
    def dedup_samples(self):
        """(times, positions) every ``DEDUP_RESOLUTION`` on [0, t_end): the
        coarse scan of ``min_distance_to_point``, interpolated once."""
        ss = np.arange(0.0, self.t_end, DEDUP_RESOLUTION)
        return ss, self.position_at(ss)

    @functools.cached_property
    def max_speed(self) -> float:
        """The largest Euclidean speed at a knot."""
        return float(np.max(np.linalg.norm(self.velocities, axis=1)))


def _energy_values(g: MetricField, points: Array, velocities: Array) -> Array:
    return energy_terms(np.array([g.matrix(p) for p in points]), velocities)[1]


def _constraint_drift(M: ManifoldModel, points: Array) -> float:
    if M.constraint is None:
        return 0.0
    return max(M.constraint_residual(p) for p in points)


def _field_accelerations(field, points: Array, velocities: Array) -> Array:
    """d/ds of the field along its own integral curve: its derivative
    along ``velocities`` = field(points) at every knot, in one stencil on
    the evaluator stacked on the first d + 1 knots."""
    return directional_diff(stacked(field, points[: points.shape[1] + 1]), points, velocities)


def _flow_problem(M: ManifoldModel, K):
    """(field, ODE right-hand side, constraint projection or None) of a flow."""
    field = as_field(K).evaluator

    def rhs(_t, y):
        return field(y)

    project = None
    if M.constraint is not None:
        project = lambda y: M.project_point(y)
    return field, rhs, project


def flow(
    M: ManifoldModel,
    K,
    p0,
    T: float,
    tol: float = 1e-10,
    metric: Optional[MetricField] = None,
) -> CurveSample:
    """Integrate the field flow c' = K(c), c(0) = p0 on [0, T].

    When ``metric`` is given, the drift of g(K, K) along the curve is
    recorded in ``energy_drift`` (it should vanish for Killing fields).
    """
    field, rhs, project = _flow_problem(M, K)
    dense = solve_rk45(rhs, np.asarray(p0, dtype=float), float(T), tol=tol, project=project)
    return _flow_curve(M, field, dense, metric)


def _flow_curve(M: ManifoldModel, field, dense: DenseCurve, metric: Optional[MetricField] = None) -> CurveSample:
    """The flow curve of ``field`` whose knots are those of ``dense``."""
    points = dense.ys
    velocities = dense.fs
    accelerations = _field_accelerations(field, points, velocities)
    drift = math.nan
    if metric is not None:
        vals = _energy_values(metric, points, velocities)
        drift = float(np.max(np.abs(vals - vals[0])))
    return CurveSample(
        M, "flow", dense.ts, points, velocities, accelerations,
        drift, _constraint_drift(M, points), dense, field,
    )


def certified_flow(M: ManifoldModel, K, cert: PeriodCertificate, T: float) -> CurveSample:
    """The curve ``flow(M, K, p0, T)`` gives, read off the run that
    certified ``cert``, for 0 < T <= cert.period.

    Below T its knots are the knots of ``flow`` bit for bit: both runs
    take the same steps until ``flow`` clips its last one to land on T.
    At T it holds the dense value, projected onto the manifold, in place
    of that clipped step.  So the interior knots, and with them the
    ``geodesic_residual`` of the curve, are those of ``flow``.
    """
    run = cert.curve
    if not 0.0 < T <= run.t_end:
        raise ValueError(f"T = {T} outside the certified run (0, {run.t_end}]")
    field, _, project = _flow_problem(M, K)
    y = run(float(T))
    if project is not None:
        y = project(y)
    n = int(np.searchsorted(run.ts, T, side="left"))  # knots strictly below T
    dense = DenseCurve(
        np.append(run.ts[:n], float(T)),
        np.vstack([run.ys[:n], y]),
        np.vstack([run.fs[:n], np.asarray(field(y), dtype=float)]),
    )
    return _flow_curve(M, field, dense)


def geodesic_rhs(g: MetricField) -> Callable[[float, Array], Array]:
    """Right-hand side of the geodesic equation in ambient coordinates.

    For constrained manifolds the ambient acceleration gets the Lagrange
    multiplier term that keeps the curve on the level set; this reproduces
    the Levi-Civita geodesics of the induced metric.
    """
    M = g.manifold
    n = M.ambient_dim

    def rhs(_t, y):
        x = y[:n]
        v = y[n:]
        gamma = christoffel(g, x)
        a = -apply_christoffel(gamma, v, v)
        if M.constraint is not None:
            grad = M.grad_constraint(x)
            hess = M.hess_constraint(x)
            ginv_grad = np.linalg.solve(g.matrix(x), grad)
            lam = -(float(grad @ a) + float(v @ (hess @ v))) / float(grad @ ginv_grad)
            a = a + lam * ginv_grad
        return np.concatenate([v, a])

    return rhs


def shoot_geodesic(g: MetricField, p0, v0, T: float, tol: float = 1e-11) -> CurveSample:
    """Integrate the geodesic with initial point p0 and velocity v0.

    The default local tolerance is tighter than the flow default: energy
    conservation over a full period must stay below 1e-9 absolute, which
    1e-10 only meets without margin.
    """
    M = g.manifold
    n = M.ambient_dim
    p0 = np.asarray(p0, dtype=float)
    v0 = M.tangent_project(p0, v0)
    project = None
    if M.constraint is not None:
        def project(y):
            x = M.project_point(y[:n])
            return np.concatenate([x, M.tangent_project(x, y[n:])])
    dense = solve_rk45(geodesic_rhs(g), np.concatenate([p0, v0]), float(T), tol=tol, project=project)
    points = dense.ys[:, :n]
    velocities = dense.ys[:, n:]
    accelerations = dense.fs[:, n:]
    vals = _energy_values(g, points, velocities)
    drift = float(np.max(np.abs(vals - vals[0])))
    return CurveSample(
        M, "geodesic", dense.ts, points, velocities, accelerations,
        drift, _constraint_drift(M, points), dense,
    )


def geodesic_residual(g: MetricField, c: CurveSample) -> float:
    """Sup of the covariant acceleration norm over interior samples.

    At most ``RESIDUAL_MAX_SAMPLES`` evenly strided samples are checked.
    The norm is the ambient Euclidean one: an indefinite norm could hide a
    nonzero null acceleration.  Values below GEODESIC_TOL certify the
    curve as a geodesic.
    """
    if c.accelerations is None:
        raise ValueError("curve carries no acceleration samples")
    if len(c.times) < 3:
        raise ValueError("need at least 3 samples")
    idx = range(1, len(c.times) - 1)
    if len(c.times) - 2 > RESIDUAL_MAX_SAMPLES:
        stride = (len(c.times) - 2) // RESIDUAL_MAX_SAMPLES + 1
        idx = range(1, len(c.times) - 1, stride)
    worst = 0.0
    for i in idx:
        p = c.points[i]
        v = c.velocities[i]
        gamma = christoffel(g, p)
        resid = c.accelerations[i] + apply_christoffel(gamma, v, v)
        resid = metric_orthogonal_project(g, p, resid)
        worst = max(worst, float(np.linalg.norm(resid)))
    return worst


@dataclass(frozen=True, eq=False)
class PeriodCertificate:
    """Certified return of a flow line modulo the deck group.

    ``deck_word`` carries the curve endpoint back to the start:
    deck_word.apply(c(period)) = c(0) within position_gap.  ``curve`` is
    the integration run that found the return, from the start to the knot
    where it stopped, past ``period``; ``certified_flow`` reads the flow
    line off it without integrating again.
    """

    period: float
    deck_word: DeckElement
    position_gap: float
    velocity_gap: float
    curve: Optional[DenseCurve] = None


def detect_period(
    M: ManifoldModel,
    K,
    p0,
    horizon: float,
    tol: float = PERIOD_TOL,
    tol_ode: float = 1e-10,
) -> Optional[PeriodCertificate]:
    """Find the minimal period of the integral curve of K through p0.

    The flow is integrated and scanned together: as the stepper accepts
    knots, the quotient distance to p0 is evaluated on the dense output
    at the grid times i * step strictly below the last knot.  Once the
    curve has left the ``DIP_THRESHOLD`` ball around p0, each run of grid
    times inside it is a candidate return.  As soon as the run closes and
    the knots cover its refinement window, a deck word within
    3 * ``DIP_THRESHOLD`` of the run's minimum is looked up and the return
    is refined by bisection on the signed crossing of the Poincare section
    through p0 normal to the initial velocity; it is certified when both
    the position and the velocity gap are within ``tol``.  Integration
    stops at the first certified return; without one it runs to
    ``horizon`` and a run still open there is refined last.  The
    certificate carries the run as ``curve``.  Returns None when no
    certified return exists within the horizon (including the case of a
    stationary point of the field).

    The scan step is ``SCAN_RESOLUTION``, shrunk to ``DIP_THRESHOLD /
    (4 * fastest knot so far)`` so that a fast field cannot step over a
    dip; the scan starts again from t = 0 whenever that bound shrinks.
    The knots are those of a whole-horizon run, so the answer does not
    depend on the horizon beyond the return, as long as no faster knot
    lies past it.
    """
    p0 = np.asarray(p0, dtype=float)
    field, rhs, project = _flow_problem(M, K)
    v0 = np.asarray(field(p0), dtype=float)
    if float(np.linalg.norm(v0)) < 1e-12:
        return None
    scan = _ReturnScan(M, field, p0, v0, tol)
    dense = solve_rk45(rhs, p0, float(horizon), tol=tol_ode, project=project, stop=scan.advance)
    if scan.certificate is None:
        scan.finish(dense.ts, dense.ys, dense.fs)
    cert = scan.certificate
    return None if cert is None else dataclasses.replace(cert, curve=dense)


def _window(ts, ys, fs, a: float, b: float) -> DenseCurve:
    """The dense output on the fewest knots that cover [a, b].

    On [a, b] it interpolates on the same knot intervals as the curve of
    all the knots, so it gives bitwise the same values there.
    """
    hi = min(bisect.bisect_right(ts, b), len(ts) - 1)
    lo = max(0, min(bisect.bisect_right(ts, a) - 1, hi - 1))
    return DenseCurve(np.array(ts[lo:hi + 1]), np.array(ys[lo:hi + 1]), np.array(fs[lo:hi + 1]))


class _ReturnScan:
    """The return scan of ``detect_period``, fed with knots as they come.

    ``advance`` is the integrator's stop callback: every ``_SCAN_KNOTS``
    knots it scans the grid times strictly below the last knot and refines
    the closed dip runs whose window the knots reach strictly past.
    ``finish`` scans the rest of the grid after a run to the horizon and
    refines every run left, including one still open there.
    """

    def __init__(self, M, field, p0, v0, tol):
        self.M = M
        self.field = field
        self.p0 = p0
        self.v0 = v0
        self.unit = v0 / float(np.linalg.norm(v0))
        self.tol = tol
        self.seen = 0           # knots whose speed bounds the step
        self.step = math.inf
        self.certificate: Optional[PeriodCertificate] = None
        self._restart()

    def _restart(self) -> None:
        self.scanned = 0        # grid times scanned so far
        self.escaped = False    # the scan has left the dip ball
        self.run = None         # open dip run: (grid index, distance) of its first minimum
        self.pending = []       # grid indices of closed runs' minima, oldest first

    def advance(self, ts, ys, fs) -> bool:
        if len(ts) - self.seen >= _SCAN_KNOTS:
            self._scan(ts, ys, fs, math.ceil(ts[-1] / self._update_step(fs)) - 1)
            self._refine(ts, ys, fs, ts[-1])
        return self.certificate is not None

    def finish(self, ts, ys, fs) -> None:
        self._scan(ts, ys, fs, math.ceil(ts[-1] / self._update_step(fs)))
        if self.run is not None:
            self.pending.append(self.run[0])
        self._refine(ts, ys, fs, math.inf)

    def _update_step(self, fs) -> float:
        # the dip window is DIP_THRESHOLD / speed wide: never step over it
        if len(fs) > self.seen:
            top = float(np.max(np.linalg.norm(np.array(fs[self.seen:]), axis=1)))
            self.seen = len(fs)
            step = min(SCAN_RESOLUTION, DIP_THRESHOLD / (4.0 * top))
            if step < self.step:
                self.step = step
                self._restart()
        return self.step

    def _scan(self, ts, ys, fs, count: int) -> None:
        """Scan the grid times of index below ``count``."""
        first = self.scanned
        if count <= first:
            return
        self.scanned = count
        ss = np.arange(first, count) * self.step
        d = self.M.quotient_distance(_window(ts, ys, fs, ss[0], ss[-1])(ss), self.p0)
        thr = DIP_THRESHOLD
        # require the orbit to leave the start before accepting returns
        if not self.escaped:
            out = np.flatnonzero(d > thr)
            if len(out) == 0:
                return
            self.escaped = True
            first += int(out[0])
            d = d[out[0]:]
        below = d < thr
        bounds = [0, *(np.flatnonzero(below[1:] != below[:-1]) + 1), len(d)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if not below[lo]:
                if self.run is not None:
                    self.pending.append(self.run[0])
                    self.run = None
                continue
            k = lo + int(np.argmin(d[lo:hi]))
            if self.run is None or d[k] < self.run[1]:
                self.run = (first + k, float(d[k]))

    def _refine(self, ts, ys, fs, reach: float) -> None:
        """Refine pending runs in order while ``reach`` lies past their window."""
        while self.pending and self.certificate is None:
            s_best = self.pending[0] * self.step
            if not reach > s_best + 5 * self.step:
                return
            self.pending.pop(0)
            self.certificate = self._refine_return(ts, ys, fs, s_best)

    def _refine_return(self, ts, ys, fs, s_best: float) -> Optional[PeriodCertificate]:
        M, p0, step = self.M, self.p0, self.step
        lo = max(0.0, s_best - 5 * step)
        hi = min(float(ts[-1]), s_best + 5 * step)
        dense = _window(ts, ys, fs, lo, hi)
        word = reduce_point(M, dense(s_best), p0, tol=3 * DIP_THRESHOLD)
        if word is None:
            return None
        # word.apply(p_best) ≈ p0, so the crossing applies word to c(s) directly

        def crossing(s):
            return float((word.apply(dense(float(s))) - p0) @ self.unit)

        # bracket the sign change nearest to the dip minimum
        grid = np.linspace(lo, hi, 21)
        vals = [crossing(s) for s in grid]
        bracket = None
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                bracket = (grid[i], grid[i])
                break
            if vals[i] * vals[i + 1] < 0:
                bracket = (grid[i], grid[i + 1])
                break
        if bracket is None:
            return None
        a, b = bracket
        fa = crossing(a)
        for _ in range(BISECTION_STEPS):
            if a == b:
                break
            m = 0.5 * (a + b)
            fm = crossing(m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        s_star = 0.5 * (a + b)
        if s_star <= 1e-6:
            return None
        p_star = dense(s_star)
        pos_gap = float(np.linalg.norm(word.apply(p_star) - p0))
        v_star = np.asarray(self.field(p_star), dtype=float)
        vel_gap = float(np.linalg.norm(word.apply_vector(v_star) - self.v0))
        if pos_gap <= self.tol and vel_gap <= self.tol:
            return PeriodCertificate(s_star, word, pos_gap, vel_gap)
        return None


def translate_geodesic(
    F: KillingFamily,
    l: int,
    gamma: CurveSample,
    t: float,
    tol: float = 1e-10,
) -> CurveSample:
    """Apply the time-t flow of family member l pointwise to a curve.

    The input must be an integral curve of a combined field of the family
    (it carries its generating field); since the family commutes, the
    image is again an integral curve of the same field, so velocities and
    accelerations are re-derived from the field rather than transported.
    """
    if gamma.field is None:
        raise ValueError("curve does not carry its generating field")
    M = gamma.manifold
    mover = as_field(F.members[l]).evaluator
    if t < 0:
        orig = mover
        mover = lambda p: -orig(p)
    span = abs(float(t))
    new_points = np.empty_like(gamma.points)
    for i, p in enumerate(gamma.points):
        if span == 0.0:
            new_points[i] = p
        else:
            new_points[i] = flow(M, mover, p, span, tol=tol).points[-1]
    field = gamma.field
    new_velocities = np.array([field(p) for p in new_points])
    new_acc = _field_accelerations(field, new_points, new_velocities)
    dense = DenseCurve(gamma.times.copy(), new_points.copy(), new_velocities.copy())
    return CurveSample(
        M, "flow", gamma.times.copy(), new_points, new_velocities, new_acc,
        math.nan, _constraint_drift(M, new_points), dense, field,
    )


def min_distance_to_point(M: ManifoldModel, c: CurveSample, q) -> float:
    """Minimal quotient distance from a curve image to a point.

    Scans the curve's cached ``dedup_samples`` and refines every
    competitive local minimum: refining only the global coarse minimum
    can lock onto the wrong dip when true minima fall between samples.
    A sample is competitive within ``max_speed * DEDUP_RESOLUTION`` of the
    coarse minimum, a bound on how far the curve moves in one step.  The
    last sample's refinement reaches ``t_end``: a curve of one period ends
    less than a step after it, and the stretch in between would be
    missed.
    """
    q = np.asarray(q, dtype=float)
    if len(c.times) < 2 or c.t_end == 0.0:
        return float(np.min(M.quotient_distance(c.points, q)))
    ss, positions = c.dedup_samples
    d = M.quotient_distance(positions, q)
    best = float(np.min(d))
    margin = best + c.max_speed * DEDUP_RESOLUTION
    interior = (d[1:-1] <= d[:-2]) & (d[1:-1] <= d[2:])
    candidates = [j + 1 for j in np.nonzero(interior & (d[1:-1] <= margin))[0]]
    candidates += [0, len(ss) - 1]
    edges = np.append(ss, c.t_end)
    for j in candidates:
        if d[j] > margin:
            continue
        lo = float(ss[max(0, j - 1)])
        hi = float(edges[j + 1])
        for _ in range(3):
            grid = np.linspace(lo, hi, 60)
            dd = M.quotient_distance(c.position_at(grid), q)
            k = int(np.argmin(dd))
            best = min(best, float(dd[k]))
            width = (hi - lo) / 59.0
            lo = max(lo, float(grid[k]) - width)
            hi = min(hi, float(grid[k]) + width)
    return best


def out_of_reach(M: ManifoldModel, c: CurveSample, q, radius: float) -> bool:
    """Whether the cached coarse samples alone show that no point of the
    curve comes within ``radius`` of q.

    Every curve point lies within ``max_speed * DEDUP_RESOLUTION`` of a
    sample (half that between two samples, a whole step past the last
    one), and the quotient distance moves no faster than the point.  So
    a coarse minimum beyond ``radius`` plus that bound puts every point,
    and ``min_distance_to_point``, beyond ``radius``.
    """
    _, positions = c.dedup_samples
    if not len(positions):
        return False
    coarse = float(np.min(M.quotient_distance(positions, np.asarray(q, dtype=float))))
    return coarse > radius + c.max_speed * DEDUP_RESOLUTION


def hausdorff_distance(M: ManifoldModel, c1: CurveSample, c2: CurveSample, n_samples: int = 300) -> float:
    """Hausdorff distance between two curve images in the quotient."""
    s1 = np.linspace(0.0, c1.t_end, n_samples)
    s2 = np.linspace(0.0, c2.t_end, n_samples)
    pts1 = c1.position_at(s1)
    pts2 = c2.position_at(s2)
    d12 = max(float(np.min(M.quotient_distance(pts2, p))) for p in pts1)
    d21 = max(float(np.min(M.quotient_distance(pts1, q))) for q in pts2)
    return max(d12, d21)


def curve_to_csv(g: MetricField, c: CurveSample) -> str:
    """Serialize a curve as CSV with columns s, coordinates, velocities, f."""
    n = c.manifold.ambient_dim
    header = (
        ["s"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"v{i + 1}" for i in range(n)]
        + ["f"]
    )
    lines = [",".join(header)]
    fvals = _energy_values(g, c.points, c.velocities)
    for t, p, v, f in zip(c.times, c.points, c.velocities, fvals):
        row = [t, *p, *v, f]
        lines.append(",".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"
