"""Killing flows, geodesics, residual certification and period detection.

A flow line comes from one run constructor, ``_run``.  A field whose
``linear`` matrix A is skew flows by plane rotations, exp(tA)·p, and its
run is that closed form (``ExactCurve``), with no integration.  Every
other field is integrated in ambient coordinates with the adaptive
RK 5(4) stepper at ``ODE_TOL``, whose cubic Hermite output the period
detector refines returns on.  Every geodesic is integrated with the adaptive
Dormand-Prince 8(5,3) stepper at the tighter ``GEODESIC_ODE_TOL`` and
interpolated by its 7th-order continuous extension, made when first read.
A geodesic is integrated on the Euler-Lagrange form of the energy ½ g(v, v)
(``geodesic_rhs``): per right-hand side, one evaluation of the metric with
its jacobian (``metric_and_jacobian``), one solve and no Christoffel tensor.
``geodesic_residual`` certifies a curve on the other form, through
``christoffel``, so the certificate does not share the integrator's
algebra.  Each tolerance is a module constant, read where its
certificate is made: a return certifies a period within ``PERIOD_TOL``
and a residual below ``GEODESIC_TOL`` certifies a geodesic.  On a level
set both runs are projected onto the constraint at every knot, and a
``CurveSample`` reads its knot values off its run.  Periodicity is
detected modulo the deck group: a return is a time s and a deck word g
with g.c(s) = c(0) and dg.c'(s) = c'(0) within tolerance.  A closed-form
run on a manifold with no deck generators is decided by its rates: it
closes at the minimal T with ω_j·T ∈ 2πℤ on every plane it moves in,
when every ratio of its rates is rational (``ExactCurve.period``), and at
no time otherwise, however near it comes back (Kronecker's theorem;
Hardy and Wright, ch. XXIII); the gaps at T certify it.  Every other run,
integrated or on a quotient, is scanned for returns, each refined by
safeguarded Newton steps on a Poincare-section crossing along the run.
Period detection runs with the run: it scans and refines on the stretch
covered so far and ends the run at the first certified return, so a line
that closes early is not followed to the horizon.  The scan evaluates
the quotient distance to the start at an integrated run's own knots
first, then on a coarse grid of cells in the knot steps that can come
near, and inside a cell only where the curve's travel bound (its speed
bound times half the span) lets the distance come down to
``DIP_THRESHOLD``; a time it skips reads as above the threshold, as it
provably is.  The certificate keeps that run, and ``certified_flow``
reads the flow line up to the period off it instead of computing it
again.  Deduplication (``min_distance_to_point``) asks how near a kept
curve comes to a point on the same travel bound.
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
    identity_element,
    metric_and_jacobian,
    metric_orthogonal_project,
    reduce_point,
    solve_metric,
)
from .integrate import SPEED_BOUND_MARGIN, DenseCurve, solve_dop853, solve_rk45
from .killing import LINEAR_TOL, KillingFamily, KillingField, as_field, eigen_groups, energy_terms
from .rational import fraction_within

PERIOD_TOL = 1e-6
GEODESIC_TOL = 1e-5
ODE_TOL = 1e-10  # local tolerance of integrated flow runs
GEODESIC_ODE_TOL = 1e-11  # local tolerance of geodesic shooting
DIP_THRESHOLD = 1e-2
BISECTION_STEPS = 60  # cap on the safeguarded Newton steps of one return refinement
RESIDUAL_MAX_SAMPLES = 2000  # interior samples geodesic_residual checks at most
HAUSDORFF_SAMPLES = 300  # times per curve of hausdorff_distance
_SCAN_KNOTS = 8  # knots between two return scans of detect_period
_SCAN_CHUNK = 4096  # grid times per return scan of a closed-form run
_CELL = 16  # grid steps per coarse cell of a return scan
_KNOTS_PER_TURN = 128  # knots of a closed-form run per turn of its fastest plane


@dataclass(frozen=True, eq=False)
class CurveSample:
    """A time-stamped integrated curve with conservation diagnostics.

    ``dense`` interpolates the full ODE state, and the knot values are read
    off it: a flow state (width n) is the point, with the velocity as its
    derivative; a geodesic state (width 2n) is the (point, velocity) pair,
    with the acceleration in the second half of its derivative.
    """

    manifold: ManifoldModel
    energy_drift: float
    dense: DenseCurve
    field: Optional[Callable[[Array], Array]] = None

    @property
    def times(self) -> Array:
        return self.dense.ts

    @property
    def points(self) -> Array:
        return self.dense.ys[:, : self.manifold.ambient_dim]

    @property
    def velocities(self) -> Array:
        n = self.manifold.ambient_dim
        return self.dense.fs if self.dense.ys.shape[1] == n else self.dense.ys[:, n:]

    @functools.cached_property
    def accelerations(self) -> Optional[Array]:
        """Integrated on a geodesic; on a flow curve the derivative of its
        ``field`` along the velocity, in one stencil, or None without one."""
        if self.field is not None:
            return directional_diff(self.field, self.points, self.velocities)
        n = self.manifold.ambient_dim
        return self.dense.fs[:, n:] if self.dense.ys.shape[1] == 2 * n else None

    @functools.cached_property
    def constraint_drift(self) -> float:
        """The largest constraint residual at a knot (0 without a constraint)."""
        c = self.manifold.constraint
        return 0.0 if c is None else float(np.max(np.abs(c(self.points))))

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def position_at(self, s):
        state = self.dense(s)
        n = self.manifold.ambient_dim
        return state[..., :n]


def _energy_values(g: MetricField, points: Array, velocities: Array) -> Array:
    return energy_terms(g.matrix(points), velocities)[1]


def _flow_problem(M: ManifoldModel, K):
    """(field, ODE right-hand side, constraint projection or None) of a flow."""
    field = as_field(K).evaluator

    def rhs(_t, y):
        return field(y)

    project = None
    if M.constraint is not None:
        project = lambda y: M.project_point(y)
    return field, rhs, project


@dataclass(frozen=True, eq=False)
class ExactCurve:
    """The flow line c(t) = exp(tA)·p0 of a skew linear field on [0, t_end],
    in closed form, with the interface of ``DenseCurve``.

    The eigen-groups of -A² split the ambient space into the kernel of A
    and the subspaces E_j on which A turns at the rate ω_j.  With
    x_j = Π_j p0 and y_j = A x_j / ω_j,

        c(t) = p0 + Σ_j [(cos(ω_j t) - 1)·x_j + sin(ω_j t)·y_j],

    for every multiplicity of the rates.  ``__call__`` evaluates this
    formula.  The knots ``ts`` lie at i·h below ``t_end``, with
    h = 2π / (``_KNOTS_PER_TURN``·max ω_j), and at ``t_end``; ``ys``
    holds c there, projected onto the manifold, and ``fs`` the field at
    those points, as an integration run holds them.  The knots are
    computed when first read.  Every formula acts on each time on its
    own, so the knots below T are the same, bit for bit, on every run
    from p0 that reaches past T.
    """

    p0: Array
    cos_part: Array  # rows x_j
    sin_part: Array  # rows y_j
    rates: Array  # ω_j
    t_end: float
    project: Optional[Callable[[Array], Array]]
    field: Callable[[Array], Array]

    @classmethod
    def of(cls, K: KillingField, p0: Array, t_end: float, project, field) -> Optional[ExactCurve]:
        """The curve of K from p0, or None unless A = ``K.linear`` is skew to
        ``LINEAR_TOL``·s, s = max |A| > 0, and turns some plane, eigen-gaps
        judged to ``LINEAR_TOL``·s².  The curve is that of (A - A^T) / 2."""
        if K.linear is None:
            return None
        A = np.asarray(K.linear, dtype=float)
        scale = float(np.abs(A).max())
        if scale == 0.0 or np.abs(A + A.T).max() > LINEAR_TOL * scale:
            return None
        A = 0.5 * (A - A.T)
        _, groups = eigen_groups(-(A @ A), LINEAR_TOL * scale * scale)
        if not groups:
            return None
        rates = np.array([math.sqrt(w) for _, w in groups])
        xs = np.array([E.T @ (E @ p0) for E, _ in groups])
        vs = np.array([A @ x / w for x, w in zip(xs, rates)])
        return cls(p0, xs, vs, rates, float(t_end), project, field)

    def __call__(self, s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        y = np.broadcast_to(self.p0, (len(s_arr), len(self.p0)))
        for x, v, w in zip(self.cos_part, self.sin_part, self.rates):
            angle = (w * s_arr)[:, None]
            y = y + (np.cos(angle) - 1.0) * x + np.sin(angle) * v
        return y[0] if np.ndim(s) == 0 else y

    def period(self) -> Optional[float]:
        """The minimal T > 0 with ω_j·T ∈ 2πℤ on every plane the curve
        moves in, or None where there is none.

        The curve moves in E_j when |x_j| > ``PERIOD_TOL``/4; a plane it
        moves in less moves it by at most 2|x_j|, within the gap a return
        allows.  With ω_1 the slowest rate that moves, each ratio
        r_j = ω_j/ω_1 must be a fraction p_j/q_j, and then
        T = 2π·lcm(q_j)/ω_1.  A ratio that is not is no period at any T
        (Kronecker's theorem), however near the curve comes back.  The
        eigen-groups of -A² read each rate to about n·eps·(ω_max/ω_j)²
        relative, in dimension n, so r_j must lie within
        2n·eps·(ω_max/ω_1)²·r_j of p_j/q_j (``fraction_within``): a
        rational rotation in a rotated frame is still closed, and a ratio
        1e-9 off a fraction is not.
        """
        rates = self.rates[np.linalg.norm(self.cos_part, axis=1) > PERIOD_TOL / 4]
        if not len(rates):
            return None
        slack = 2.0 * len(self.p0) * np.finfo(float).eps * (float(np.max(self.rates)) / float(rates[0])) ** 2
        ratios = [fraction_within(r, slack * r) for r in (rates[1:] / rates[0]).tolist()]
        if None in ratios:
            return None
        return 2.0 * math.pi * math.lcm(*(r.denominator for r in ratios)) / float(rates[0])

    def speed_bound(self) -> float:
        """An upper bound on |c'|: c'(t) = Σ_j ω_j (cos(ω_j t)·y_j - sin(ω_j t)·x_j),
        so |c'| <= Σ_j ω_j (|x_j| + |y_j|), rounded up by ``SPEED_BOUND_MARGIN``."""
        norms = np.linalg.norm(self.cos_part, axis=1) + np.linalg.norm(self.sin_part, axis=1)
        return float(self.rates @ norms) * (1.0 + SPEED_BOUND_MARGIN)

    @functools.cached_property
    def ts(self) -> Array:
        h = 2.0 * math.pi / (_KNOTS_PER_TURN * float(np.max(self.rates)))
        ts = np.arange(math.ceil(self.t_end / h) + 1) * h
        return np.append(ts[ts < self.t_end], self.t_end)

    @functools.cached_property
    def ys(self) -> Array:
        ys = self(self.ts)
        return ys if self.project is None else self.project(ys)

    @functools.cached_property
    def fs(self) -> Array:
        return self.field(self.ys)


def _run(M: ManifoldModel, K: KillingField, p0: Array, T: float, scan: Optional[_ReturnScan] = None):
    """The run of the flow line of K from p0 on [0, T].

    A field whose ``linear`` matrix is skew gets its ``ExactCurve``; every
    other field is integrated by ``solve_rk45`` at the local tolerance
    ``ODE_TOL``.  With ``scan``, the run ends at its first certified
    return.  An integrated run feeds the return scan, and so does a
    closed-form run on a manifold with deck generators
    (``_ReturnScan.follow``).  Without them a closed-form run is not
    scanned: its rates decide its minimal period (``ExactCurve.period``)
    and ``_ReturnScan.verdict`` certifies it.  A negative T raises
    ValueError on both kinds of run.
    """
    if T < 0:
        raise ValueError(f"integration horizon must be nonnegative, got {T}")
    field, rhs, project = _flow_problem(M, K)
    exact = ExactCurve.of(K, p0, T, project, field)
    if exact is None:
        dense = solve_rk45(rhs, p0, T, tol=ODE_TOL, project=project, stop=None if scan is None else scan.advance)
        if scan is not None and scan.certificate is None:
            scan.finish(dense.ts, dense.ys, dense.fs)
        return dense
    if scan is not None:
        exact = dataclasses.replace(exact, t_end=(scan.follow if M.deck_generators else scan.verdict)(exact, T))
    return exact


def flow(M: ManifoldModel, K, p0, T: float) -> CurveSample:
    """The field flow c' = K(c), c(0) = p0 on [0, T].

    The curve is exact for a skew linear field and integrated otherwise,
    at the local tolerance ``ODE_TOL`` (see ``_run``).  Its
    ``energy_drift`` is NaN: no metric is involved.
    """
    K = as_field(K)
    run = _run(M, K, np.asarray(p0, dtype=float), float(T))
    return CurveSample(M, math.nan, run, K.evaluator)


def certified_flow(M: ManifoldModel, K, cert: PeriodCertificate, T: float) -> CurveSample:
    """The curve ``flow(M, K, p0, T)`` gives, read off the run that
    certified ``cert``, for 0 < T <= cert.period.

    A closed-form run is cut at T, so the curve is that of ``flow``
    between the knots too.  On an integrated run the knots below T are
    the knots of ``flow`` bit for bit: both runs take the same steps
    until ``flow`` clips its last one to land on T.  At T the curve holds
    the dense value, projected onto the manifold, in place of that
    clipped step.  So the interior knots, and with them the
    ``geodesic_residual`` of the curve, are those of ``flow``.
    """
    run = cert.curve
    if not 0.0 < T <= run.t_end:
        raise ValueError(f"T = {T} outside the certified run (0, {run.t_end}]")
    field, _, project = _flow_problem(M, K)
    if isinstance(run, ExactCurve):
        return CurveSample(M, math.nan, dataclasses.replace(run, t_end=float(T)), field)
    y = run(float(T))
    if project is not None:
        y = project(y)
    n = int(np.searchsorted(run.ts, T, side="left"))  # knots strictly below T
    dense = DenseCurve(
        np.append(run.ts[:n], float(T)),
        np.vstack([run.ys[:n], y]),
        np.vstack([run.fs[:n], field(y)]),
    )
    return CurveSample(M, math.nan, dense, field)


def geodesic_rhs(g: MetricField) -> Callable[[float, Array], Array]:
    """Right-hand side of the geodesic equation in ambient coordinates.

    The geodesics are the Euler-Lagrange curves of the energy
    L = ½ g(v, v) (O'Neill, "Semi-Riemannian Geometry", ch. 3):

        G a = ½ (vᵀ ∂_l G v)_l − (∂_v G) v + λ ∇c,   ∂_v G = Σ_k v_k ∂_k G,

    which is G times −Γ(v, v) + λ G⁻¹∇c, with no Christoffel tensor
    built.  One evaluation of G with ∂G (``metric_and_jacobian``) and one
    solve, against the force and the constraint normal ∇c as two columns.
    On a constrained manifold the multiplier λ, from
    ∇c·a + vᵀ (Hess c) v = 0, keeps the curve on the level set; this
    reproduces the Levi-Civita geodesics of the induced metric.
    """
    M = g.manifold
    n = M.ambient_dim

    def rhs(_t, y):
        x = y[:n]
        v = y[n:]
        G, dG = metric_and_jacobian(g, x)
        dv = dG @ v  # dv[k, i] = (∂_k G v)_i
        force = 0.5 * (dv @ v) - v @ dv
        if M.constraint is None:
            a = solve_metric(G, force)
        else:
            grad = M.constraint_grad(x)
            a, ginv_grad = solve_metric(G, np.stack([force, grad], axis=1)).T
            lam = -(float(grad @ a) + float(v @ (M.constraint_hess(x) @ v))) / float(grad @ ginv_grad)
            a = a + lam * ginv_grad
        return np.concatenate([v, a])

    return rhs


def shoot_geodesic(g: MetricField, p0, v0, T: float) -> CurveSample:
    """Integrate the geodesic with initial point p0 and velocity v0.

    The run is a Dormand-Prince 8(5,3) integration (``solve_dop853``) at
    the local tolerance ``GEODESIC_ODE_TOL``, tighter than the flows'
    ``ODE_TOL``: energy conservation over a full period must stay below
    1e-9 absolute.  On the stationary 3-sphere the drift over a period
    is a few 1e-12, and 1.4e-9 to 2.8e-9 for the field scaled by 30,
    against 1e-9·30² for the energy scaled by 30²: a margin above 300.
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
    dense = solve_dop853(geodesic_rhs(g), np.concatenate([p0, v0]), float(T), tol=GEODESIC_ODE_TOL, project=project)
    vals = _energy_values(g, dense.ys[:, :n], dense.ys[:, n:])
    drift = float(np.max(np.abs(vals - vals[0])))
    return CurveSample(M, drift, dense)


def geodesic_residual(g: MetricField, c: CurveSample) -> float:
    """Sup of the covariant acceleration norm over interior samples.

    At most ``RESIDUAL_MAX_SAMPLES`` evenly strided samples are checked,
    all at once: the connection and the projection are evaluated on the
    stack of sampled knots.
    The norm is the ambient Euclidean one: an indefinite norm could hide a
    nonzero null acceleration.  Values below GEODESIC_TOL certify the
    curve as a geodesic.
    """
    if c.accelerations is None:
        raise ValueError("curve carries no acceleration samples")
    if len(c.times) < 3:
        raise ValueError("need at least 3 samples")
    stride = 1
    if len(c.times) - 2 > RESIDUAL_MAX_SAMPLES:
        stride = (len(c.times) - 2) // RESIDUAL_MAX_SAMPLES + 1
    idx = slice(1, len(c.times) - 1, stride)
    P, V = c.points[idx], c.velocities[idx]
    resid = c.accelerations[idx] + apply_christoffel(christoffel(g, P), V, V)
    resid = metric_orthogonal_project(g, P, resid)
    return float(np.max(np.linalg.norm(resid, axis=1)))


@dataclass(frozen=True, eq=False)
class PeriodCertificate:
    """Certified return of a flow line modulo the deck group.

    ``deck_word`` carries the curve endpoint back to the start:
    deck_word.apply(c(period)) = c(0) within position_gap <= PERIOD_TOL,
    and its differential carries c'(period) to c'(0) within velocity_gap
    <= PERIOD_TOL * |K(p0)|, relative to the speed.  ``curve`` is
    the run that found the return (a ``DenseCurve`` or an
    ``ExactCurve``), from the start to where it stopped: past ``period``
    after a scan, and at ``period`` where the rates of a closed-form run
    decided it; ``certified_flow`` reads the flow line off it without a
    second run.
    """

    period: float
    deck_word: DeckElement
    position_gap: float
    velocity_gap: float
    curve: Optional[DenseCurve | ExactCurve] = None


def detect_period(M: ManifoldModel, K, p0, horizon: float) -> Optional[PeriodCertificate]:
    """Find the minimal period of the integral curve of K through p0.

    The run of the flow line (``_run``) and the return scan go together,
    except on a closed-form run with no deck generators, whose rates
    decide (last paragraph).  The quotient distance to p0 is taken at the
    grid times i * step on the stretch the run covers so far, in up to
    three levels.  On an integrated run it is taken at the run's own
    knots first, and only the knot steps whose smaller end value less the
    curve's travel over half the step reaches ``DIP_THRESHOLD`` go on; a window with none is
    settled without evaluating the dense output.  The grid times left
    are split into cells of ``_CELL`` steps, the distance is taken at
    their ends, and then inside the cells whose smaller end value less
    the travel over half the cell reaches the threshold.  A closed-form
    run starts at the cells.  A time skipped that way is provably above
    the threshold and reads as +inf; every value computed is the one a
    scan of every grid time gives, so the scans make the same decisions.
    Once the curve has left the ``DIP_THRESHOLD`` ball around p0, each
    run of grid times inside it is a candidate return.  As soon as the run
    closes and the curve covers its refinement window, a deck word within
    3 * ``DIP_THRESHOLD`` of the run's minimum is looked up and the
    return is refined on the signed crossing of the Poincare section
    through p0 normal to the initial velocity, by at most
    ``BISECTION_STEPS`` safeguarded Newton steps (``rtsafe``, Press et
    al., "Numerical Recipes", sec. 9.4) in a bracket that starts one scan
    step in, so the trivial return at s = 0 is never refined, whatever
    the time scale.  A return is certified when
    the position gap is within ``PERIOD_TOL`` and the velocity gap within
    ``PERIOD_TOL`` * |K(p0)|, so that K -> cK divides the period by c and
    certifies the same return.  The run ends at the first certified
    return; without one it goes on to ``horizon`` and a run still open
    there is refined last.  The certificate carries the run as ``curve``.
    Returns None when no certified return exists within the horizon
    (including the case of a stationary point of the field).

    The scan step is ``DIP_THRESHOLD / (4 * |K|)`` at the fastest knot
    seen, so no line steps over a dip, whatever its speed.  A skew
    linear field gives the closed-form run.  On a manifold with no deck
    generators it is not scanned: its rates give its minimal period or
    none (``ExactCurve.period``), and the gaps at that period are
    certified against the identity, with the rule a refined return meets.
    On a quotient the scan reads it ``_SCAN_CHUNK`` grid times at a time;
    its speed is constant along the line, |K(p0)|.  Any other field is
    integrated by ``solve_rk45`` at the local tolerance ``ODE_TOL``; the
    scan follows the knots as the stepper accepts them and starts again
    from t = 0 whenever a faster knot shrinks the step.  Those knots are
    those of a whole-horizon run, so the answer does not depend on the
    horizon beyond the return, as long as no faster knot lies past it.
    """
    p0 = np.asarray(p0, dtype=float)
    K = as_field(K)
    v0 = K.evaluator(p0)
    if float(np.linalg.norm(v0)) < 1e-12:
        return None
    scan = _ReturnScan(M, K.evaluator, p0, v0)
    run = _run(M, K, p0, float(horizon), scan)
    cert = scan.certificate
    return None if cert is None else dataclasses.replace(cert, curve=run)


def _window(ts, ys, fs, a: float, b: float) -> DenseCurve:
    """The dense output on the fewest knots that cover [a, b].

    On [a, b] it interpolates on the same knot intervals as the curve of
    all the knots, so it gives bitwise the same values there.
    """
    hi = min(bisect.bisect_right(ts, b), len(ts) - 1)
    lo = max(0, min(bisect.bisect_right(ts, a) - 1, hi - 1))
    return DenseCurve(np.array(ts[lo:hi + 1]), np.array(ys[lo:hi + 1]), np.array(fs[lo:hi + 1]))


class _ReturnScan:
    """The return scan of ``detect_period``.

    It reads the curve through ``window(a, b)``, a callable that gives
    the curve on [a, b]: its positions there and a speed bound, and on
    an integrated run its knots, off which each knot step's bound is
    read: the scan keeps no copy of the run.  Both kinds of run feed it.
    ``_scan`` gets its distances from ``_distances``: on an integrated
    run at the window's knots first, then in coarse cells on the knot
    steps that can come near, and inside a cell only where the travel
    bound lets it reach ``DIP_THRESHOLD``; a skipped time reads as +inf,
    above the threshold.  ``advance`` is the integrator's stop callback:
    every ``_SCAN_KNOTS`` knots it scans the grid times
    strictly below the last knot and refines the closed dip runs whose
    window the knots reach strictly past, each by safeguarded Newton on
    its section crossing (``_refine_return``).
    ``finish`` scans the rest of the grid after a run to the horizon and
    refines every run left, including one still open there.  ``follow``
    does both on a closed-form curve, one chunk of the grid at a time, on
    a quotient; ``verdict`` certifies a closed-form curve's period from its
    rates where there are no deck generators.  Both paths certify through
    ``_certificate``.
    """

    def __init__(self, M, field, p0, v0):
        self.M = M
        self.field = field
        self.p0 = p0
        self.v0 = v0
        self.unit = v0 / float(np.linalg.norm(v0))
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
            window = functools.partial(_window, ts, ys, fs)
            self._scan(window, math.ceil(ts[-1] / self._update_step(fs)) - 1)
            self._refine(window, ts[-1], ts[-1])
        return self.certificate is not None

    def finish(self, ts, ys, fs) -> None:
        window = functools.partial(_window, ts, ys, fs)
        self._scan(window, math.ceil(ts[-1] / self._update_step(fs)))
        self._close(window, ts[-1])

    def verdict(self, curve: ExactCurve, horizon: float) -> float:
        """Certify a closed-form curve's period from its rates, on a
        manifold with no deck generators: the identity carries c(T) back
        to p0 at the minimal period T <= ``horizon``, if there is one and
        its gaps pass.  The time the run ends: T, or ``horizon``."""
        T = curve.period()
        if T is not None and T <= horizon:
            self.certificate = self._certificate(T, curve(T), identity_element(len(self.p0)))
        return horizon if self.certificate is None else T

    def follow(self, curve, horizon: float) -> float:
        """Scan a closed-form curve on [0, horizon) until its first
        certified return; the time the scan reached."""
        window = lambda a, b: curve
        total = math.ceil(horizon / self._update_step([self.v0]))
        while self.certificate is None and self.scanned < total:
            self._scan(window, min(self.scanned + _SCAN_CHUNK, total))
            self._refine(window, self.scanned * self.step, horizon)
        if self.certificate is None:
            self._close(window, horizon)
        return min(horizon, self.scanned * self.step)

    def _close(self, window, end: float) -> None:
        """Refine every run left, the one still open at ``end`` last."""
        if self.run is not None:
            self.pending.append(self.run[0])
        self._refine(window, math.inf, end)

    def _update_step(self, fs) -> float:
        # the dip window is DIP_THRESHOLD / speed wide: never step over it
        if len(fs) > self.seen:
            top = float(np.max(np.linalg.norm(np.array(fs[self.seen:]), axis=1)))
            self.seen = len(fs)
            step = DIP_THRESHOLD / (4.0 * top)
            if step < self.step:
                self.step = step
                self._restart()
        return self.step

    def _scan(self, window, count: int) -> None:
        """Scan the grid times of index below ``count``."""
        first = self.scanned
        if count <= first:
            return
        self.scanned = count
        ss = np.arange(first, count) * self.step
        d = self._distances(window(ss[0], ss[-1]), ss)
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

    def _distances(self, curve, ss: Array) -> Array:
        """The quotient distance from ``curve`` at the times ``ss`` to p0,
        or +inf at a time where it provably exceeds ``DIP_THRESHOLD``.

        The quotient distance is 1-Lipschitz in the point
        (``ManifoldModel``), so on a stretch of span w between two points
        where it is known, along which the curve moves no faster than V,
        it is at least the smaller known value less w·V/2.  Up to three
        levels use this.  An integrated run is first settled at its own
        knots, which the interpolant passes through exactly: each knot
        step carries its own bound V (``DenseCurve.step_speed_bounds``),
        and only the grid times in the steps where the bound can reach the
        threshold go on; if there are none, no point on the curve is
        evaluated at all.  The times left split into cells of ``_CELL``
        steps (``_cells``).  A closed-form run starts at the cells.  Each
        time is evaluated on its own, so every value computed is the one a
        scan of all the times gives, bit for bit.
        """
        if not isinstance(curve, DenseCurve):
            return self._cells(curve, ss, curve.speed_bound())
        ts, ys = curve.ts, curve.ys
        bounds = curve.step_speed_bounds()
        d_knots = self.M.quotient_distance(ys, self.p0)
        near = np.minimum(d_knots[:-1], d_knots[1:]) - 0.5 * np.diff(ts) * bounds <= DIP_THRESHOLD + _slack(ys, self.p0)
        if not near.any():
            return np.full(len(ss), math.inf)
        near = near[np.clip(np.searchsorted(ts, ss, side="right") - 1, 0, len(ts) - 2)]
        d = np.full(len(ss), math.inf)
        d[near] = self._cells(curve, ss[near], float(np.max(bounds)))
        return d

    def _cells(self, curve, ss: Array, speed: float) -> Array:
        """``_distances`` at cell level, on a curve that moves no faster
        than ``speed`` over ``ss``: the distance at the ends of cells of
        ``_CELL`` times first, then inside the cells where the smaller end
        value less half the cell's span times ``speed`` reaches
        ``DIP_THRESHOLD``."""
        ends = np.append(np.arange(0, len(ss) - 1, _CELL), len(ss) - 1)
        pts = curve(ss[ends])
        d_ends = self.M.quotient_distance(pts, self.p0)
        reach = 0.5 * np.diff(ss[ends]) * speed
        near = np.minimum(d_ends[:-1], d_ends[1:]) - reach <= DIP_THRESHOLD + _slack(pts, self.p0)
        inner = np.append(np.repeat(near, np.diff(ends)), False)
        inner[ends] = False
        d = np.full(len(ss), math.inf)
        d[ends] = d_ends
        if inner.any():
            d[inner] = self.M.quotient_distance(curve(ss[inner]), self.p0)
        return d

    def _refine(self, window, reach: float, end: float) -> None:
        """Refine pending runs in order while ``reach`` lies past their
        window; no window reaches past ``end``, where the curve ends."""
        while self.pending and self.certificate is None:
            s_best = self.pending[0] * self.step
            if not reach > s_best + 5 * self.step:
                return
            self.pending.pop(0)
            self.certificate = self._refine_return(window, s_best, end)

    def _refine_return(self, window, s_best: float, end: float) -> Optional[PeriodCertificate]:
        M, p0, step = self.M, self.p0, self.step
        # one scan step in: the trivial return at s = 0 is never bracketed
        lo = max(step, s_best - 5 * step)
        hi = min(float(end), s_best + 5 * step)
        dense = window(lo, hi)
        word = reduce_point(M, dense(s_best), p0, tol=3 * DIP_THRESHOLD)
        if word is None:
            return None
        # word.apply(p_best) ≈ p0, so the crossing applies word to c(s) directly

        def crossing(y):
            return (y @ word.matrix.T + word.offset - p0) @ self.unit

        # bracket the first sign change on the grid, evaluated as one stack
        grid = np.linspace(lo, hi, 21)
        vals = crossing(dense(grid))
        hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
        if len(hits) == 0:
            return None
        i = int(hits[0])
        a, fa = float(grid[i]), float(vals[i])
        b = a if fa == 0.0 else float(grid[i + 1])
        # rtsafe: Newton steps on the crossing (derivative u·dg·K(c(s))) in the
        # bracket [a, b], which shrinks by sign; a step that would leave it
        # bisects it.  Like bisection, this ends on adjacent floats at the root
        s_new = 0.5 * (a + b)
        for _ in range(BISECTION_STEPS):
            s = s_new
            y = dense(s)
            f = float(crossing(y))
            if fa * f <= 0:
                b = s
            else:
                a, fa = s, f
            df = float(word.apply_vector(self.field(y)) @ self.unit)
            s_new = s - f / df if df else math.nan
            # a step onto an end, to an ulp or so, tests the float next to it
            if abs(s_new - a) <= 2 * math.ulp(a):
                s_new = math.nextafter(a, b)
            elif abs(s_new - b) <= 2 * math.ulp(b):
                s_new = math.nextafter(b, a)
            if not a < s_new < b:
                s_new = 0.5 * (a + b)
            if not a < s_new < b:  # no float lies strictly inside [a, b]
                break
        s_star = 0.5 * (a + b)
        return self._certificate(s_star, dense(s_star), word)

    def _certificate(self, s: float, p: Array, word: DeckElement) -> Optional[PeriodCertificate]:
        """The return at time s to the point p, carried back by ``word``,
        if it is certified: the position gap within ``PERIOD_TOL`` and
        the velocity gap within ``PERIOD_TOL`` * |K(p0)|."""
        pos_gap = float(np.linalg.norm(word.apply(p) - self.p0))
        vel_gap = float(np.linalg.norm(word.apply_vector(self.field(p)) - self.v0))
        if pos_gap <= PERIOD_TOL and vel_gap <= PERIOD_TOL * float(np.linalg.norm(self.v0)):
            return PeriodCertificate(s, word, pos_gap, vel_gap)
        return None


def _slack(pts: Array, q: Array) -> float:
    # the computed points and distances are exact to a few ulps of the coordinates
    return 1e-12 * (1.0 + max(float(np.abs(pts).max()), float(np.abs(q).max())))


def translate_geodesic(F: KillingFamily, l: int, gamma: CurveSample, t: float) -> CurveSample:
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
            new_points[i] = flow(M, mover, p, span).points[-1]
    new_velocities = gamma.field(new_points)
    dense = DenseCurve(gamma.times.copy(), new_points, new_velocities)
    return CurveSample(M, math.nan, dense, gamma.field)


def min_distance_to_point(M: ManifoldModel, c: CurveSample, q, radius: float) -> float:
    """Quotient distance from a flow curve's image to a point, decided
    against ``radius``: a value ``<= radius`` is the distance at a curve point, so
    it bounds the minimum from above; a value above ``radius`` is the
    smallest distance measured, and the curve provably stays beyond
    ``radius``, up to rounding.

    The proof is the return scan's: on a stretch of span w between two
    measured points the distance is at least the smaller end value less
    w·V/2, V = ``c.dense.speed_bound()``.  The curve is measured at its
    knots, then every stretch whose bound reaches ``radius`` plus the
    ``_slack`` splits into ``_CELL`` parts, until a point lies within
    ``radius`` or no stretch can reach it.  A stretch whose travel w·V/2
    is below the slack is settled by its ends.
    """
    q = np.asarray(q, dtype=float)
    speed = c.dense.speed_bound()
    slack = _slack(c.points, q)
    d = M.quotient_distance(c.points, q)
    best = float(np.min(d))
    a, b, da, db = c.times[:-1], c.times[1:], d[:-1], d[1:]
    while best > radius:
        reach = 0.5 * (b - a) * speed
        near = (np.minimum(da, db) - reach <= radius + slack) & (reach > slack)
        if not near.any():
            break
        parts = np.linspace(a[near], b[near], _CELL + 1, axis=1)
        inner = M.quotient_distance(c.position_at(parts[:, 1:-1].ravel()), q).reshape(len(parts), _CELL - 1)
        best = min(best, float(np.min(inner)))
        d = np.column_stack([da[near], inner, db[near]])
        a, b, da, db = parts[:, :-1].ravel(), parts[:, 1:].ravel(), d[:, :-1].ravel(), d[:, 1:].ravel()
    return best


def hausdorff_distance(M: ManifoldModel, c1: CurveSample, c2: CurveSample) -> float:
    """Hausdorff distance between two curve images in the quotient, on
    ``HAUSDORFF_SAMPLES`` evenly spaced times of each."""
    s1 = np.linspace(0.0, c1.t_end, HAUSDORFF_SAMPLES)
    s2 = np.linspace(0.0, c2.t_end, HAUSDORFF_SAMPLES)
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
