"""Critical orbits of the energy function and their certification.

The central mechanism: critical points of f(p) = g(K_p, K_p) generate
periodic geodesics through the identity grad f = -2 ∇_K K.  The search
runs every (start, sign) pair of every field it is given in lockstep as
one stack of points (``find_critical_orbits_many``; one field is a stack
of one, ``find_critical_orbits``): projected descent on f and on -f,
then Newton refinement on the Hessian transverse to the flow direction,
both on the analytic ambient gradient of f, each row on its own field's
f.  A descent round evaluates the direction of every row still
moving, then backtracks in at most three stacked trial evaluations:
the rows at their steps, then the rows that fail there at their first
three halvings, then the rows that fail those at all the rest.
Descent on ±f ends at minima and maxima, so the search returns the
extrema of f on the orbit space, not its index-1 critical sets
(saddles), which ``classify_critical`` still labels when given one.
Each field's search sees f of K/σ, σ a power of two read off the
sampled f, so no constant of it depends on the scale of K, and a row's
arithmetic does not depend on the other rows or fields in its stack.
The independent finite-difference certificate ``grad_f`` then checks
all rows of a field in one stacked call: one stack of tangent bases,
one f call on every stencil point and one batched Gram solve; f of the
certified rows is one more.  Deduplication, period detection, residual
certification and classification follow, field by field and one record
at a time, on one record path.
Where f is constant (a sampled variance below ``DEGENERATE_VARIANCE``,
confirmed by ``grad_f`` on the samples) every point is critical: there
is no search, and one sampled point is the single candidate of that
path, labelled "degenerate_constant".  Deduplication merges candidates
on one flow line and, where K comes with a certified commuting family
of linear isometries, on one orbit of the family's torus, so a
Morse-Bott critical set gives one record.  Each kept record gets one run of its
flow line (closed-form for a skew linear field): the run that certifies
its period also gives the curve that later candidates are deduplicated
against and that the geodesic residual is measured on.  Classification
reads the transverse Hessian that Newton steps on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateCriticalPointError, SearchFailureError
from .flows import certified_flow, detect_period, flow, geodesic_residual, min_distance_to_point
from .geometry import FD_STEP_FIRST, Array, ManifoldModel, MetricField, central_diff, complement, inner, stackwise
from .killing import KillingField, as_field, certify_killing_field, energy_terms, metric_and_form, reflect
from .killing import torus_orbit_distance

GRAD_TOL = 1e-7
DEDUP_DISTANCE = 1e-4
DEGENERATE_VARIANCE = 1e-12
CLASSIFY_EIG_TOL = 1e-6
PROBE_SAMPLES = 256  # seeded samples: the f-variance test and the pool of starts
DESCENT_MAX_ITER = 300  # lockstep rounds of _descend
DESCENT_GRAD_STOP = 1e-9  # descent direction norm at which a row stops
ARMIJO_TRIALS = 40  # Armijo steps per round of _descend: step·2⁻ʲ, j < 40
NEWTON_MAX_ITER = 20
NEWTON_TRUST = 0.3  # longest Newton step
TANGENT_FD_STEP = 1e-5  # step of _tangent_df's own stencil


@dataclass(frozen=True, eq=False)
class CriticalOrbit:
    """A certified critical orbit of the energy function."""

    representative: Array
    f_value: float
    grad_norm: float
    classification: str  # "min" | "max" | "saddle" | "degenerate" | "degenerate_constant"
    geodesic_residual: float
    period: Optional[float] = None

    @property
    def degenerate(self) -> bool:
        """Whether the transverse Hessian has a null direction, as it
        has everywhere when f is constant."""
        return self.classification in ("degenerate", "degenerate_constant")


def _tangent_df(f, p: Array, basis: Array) -> Array:
    """Directional derivatives of f along a tangent basis (central FD).

    ``p`` is one point with an (m, d) basis or an (N, d) stack with an
    (N, m, d) stack of bases.  All 2·m·N stencil points p ± h·b go to f
    in one stacked call.  Kept apart from ``geometry.central_diff`` on
    purpose: it is the independent certificate of the analytic gradient.
    """
    h = TANGENT_FD_STEP
    m = basis.shape[-2]
    X = p[..., None, :] + h * np.concatenate([basis, -basis], axis=-2)
    v = f(X.reshape(-1, X.shape[-1])).reshape(X.shape[:-1])
    return (v[..., :m] - v[..., m:]) / (2 * h)


def grad_f(g: MetricField, K, p) -> Array:
    """The g-gradient of f at p, or at each row of an (N, d) stack, via
    finite differences and g-duality.

    Solves g(grad f, e_i) = df(e_i) in a Euclidean-orthonormal tangent
    basis.  Independent of the connection and of the analytic gradient
    the search descends on; tests cross-check it against the identity
    grad f = -2 ∇_K K.  A stack is certified in one pass: one
    ``check_on_manifold``, one stack of tangent bases, one ``_tangent_df``
    call on all its stencil points and one batched Gram solve; a row
    does not depend on the other rows.
    """
    M = g.manifold
    p = np.asarray(p, dtype=float)
    M.check_on_manifold(p)
    basis = M.tangent_basis(p)
    df = _tangent_df(_Energy(g, as_field(K)).values, p, basis)
    gram = basis @ g.matrix(p) @ np.swapaxes(basis, -1, -2)
    return np.einsum("...m,...md->...d", np.linalg.solve(gram, df[..., None])[..., 0], basis)


def classify_critical(g: MetricField, K, p):
    """Classify a critical point by the transverse Hessian of f.

    Returns ("min" | "max" | "saddle", eigenvalues).  The Hessian is the
    one ``_newton_refine`` steps on: central differences of the analytic
    gradient minus λ·Hess c, restricted to the tangent directions
    Euclidean-orthogonal to the flow.  Raises
    DegenerateCriticalPointError when some transverse eigenvalue sits
    within CLASSIFY_EIG_TOL of zero (a Morse-Bott set of positive
    dimension transverse to the flow has one per dimension), and
    ValueError when the gradient precondition fails.
    """
    M = g.manifold
    p = np.asarray(p, dtype=float)
    core = _Energy(g, as_field(K))
    P = p[None]
    _, grad, _, k = core.parts(P)
    basis = M.tangent_basis(p)
    if float(np.linalg.norm(basis @ grad[0])) > GRAD_TOL * 10:
        raise ValueError("point is not critical (gradient precondition)")
    k = basis @ k[0]
    if float(np.linalg.norm(k)) > 1e-10:
        # the tangent directions Euclidean-orthogonal to the flow, K in tangent coordinates
        basis = complement(k) @ basis
    eig = np.linalg.eigvalsh(basis @ _hessian(core, M, P, grad, _normals(M, P))[0] @ basis.T)
    if np.any(np.abs(eig) <= CLASSIFY_EIG_TOL):
        raise DegenerateCriticalPointError(f"transverse eigenvalues {eig} too close to zero")
    if np.all(eig > 0):
        return "min", eig
    if np.all(eig < 0):
        return "max", eig
    return "saddle", eig


@dataclass(frozen=True, eq=False)
class _Energy:
    """f = g(K, K) and its ambient gradient on (N, d) stacks of points.

    ``K`` is one field, or with ``which`` a tuple of fields: row n is
    then a point of field ``K[which[n]]``, and each field is evaluated on
    its own rows in one call.  G is one call on the whole stack, whose
    rows round as the one point, so a row's values do not depend on the
    other fields in the stack.  ``at``, ``repeated`` and ``stencil``
    give the energy of a stack made from this one's rows; for one field
    that is the energy itself.
    """

    g: MetricField
    K: KillingField | tuple
    which: Optional[Array] = None

    def at(self, index: Array) -> _Energy:
        """The energy of the stack whose row n is row ``index[n]`` of this one's."""
        return self if self.which is None else _Energy(self.g, self.K, self.which[index])

    def repeated(self, m: int) -> _Energy:
        """The energy of the stack that holds each row m times in a row."""
        return self if self.which is None else _Energy(self.g, self.K, np.repeat(self.which, m))

    def stencil(self, d: int) -> _Energy:
        """The energy of ``central_diff``'s stencil along d directions,
        laid out (sign, row, direction)."""
        return self if self.which is None else _Energy(self.g, self.K, np.tile(np.repeat(self.which, d), 2))

    def _each(self, P: Array, attr: str) -> Array:
        """Each field's ``attr`` evaluator on its rows of a non-empty stack."""
        if self.which is None:
            return getattr(self.K, attr)(P)
        out = None
        for j, K in enumerate(self.K):
            rows = self.which == j
            if rows.any():
                v = getattr(K, attr)(P[rows])
                if out is None:
                    out = np.empty(P.shape[:1] + v.shape[1:])
                out[rows] = v
        return out

    def values(self, P: Array) -> Array:
        return energy_terms(self.g.matrix(P), self._each(P, "evaluator"))[1]

    def parts(self, P: Array):
        """f, its ambient gradient, G and K at each row.

        ∇f_m = 2 (∂_m K)·(G K) + K^T (∂_m G) K, G and the second term by ``metric_and_form``.
        """
        k = self._each(P, "evaluator")
        G, form = metric_and_form(self.g, P, k)
        gk, f = energy_terms(G, k)
        grad = 2.0 * np.einsum("nmi,ni->nm", self._each(P, "jacobian"), gk)
        return f, grad + form, G, k

    def gradient(self, P: Array) -> Array:
        return self.parts(P)[1]


def _bordered_solve(A: Array, borders: list, rhs: Array) -> Array:
    """Per row, x with A x + Σ_j y_j b_j = rhs and b_j·x = 0.

    ``borders`` holds (N, d) stacks b_j.  A singular row (a zero border
    among them) is solved by least squares, on its own.
    """
    n, d = rhs.shape
    m = d + len(borders)
    S = np.zeros((n, m, m))
    S[:, :d, :d] = A
    for j, b in enumerate(borders):
        S[:, :d, d + j] = S[:, d + j, :d] = b
    r = np.zeros((n, m, 1))
    r[:, :d, 0] = rhs
    try:
        return np.linalg.solve(S, r)[:, :d, 0]
    except np.linalg.LinAlgError:
        return np.array([_solve_or_lstsq(s, v) for s, v in zip(S, r)])[:, :d]


def _solve_or_lstsq(S: Array, r: Array) -> Array:
    try:
        return np.linalg.solve(S[None], r[None])[0, :, 0]
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(S, r[:, 0], rcond=None)[0]


def _normals(M: ManifoldModel, P: Array) -> list:
    """The constraint normal at each row, as the one border of a tangent solve."""
    return [] if M.constraint is None else [M.constraint_grad(P)]


def _descent_direction(core: _Energy, M: ManifoldModel, P: Array):
    """f and the gradient of f for a definite inner product, per row.

    Uses the auxiliary Riemannian metric g_R where K is timelike,
    otherwise the Euclidean tangential gradient; both share their zero
    set with the true differential of f.  The constraint normal borders
    the solve, so the result is tangent without a tangent basis.
    """
    f, grad, G, k = core.parts(P)
    A = np.broadcast_to(np.eye(P.shape[1]), G.shape).copy()
    if core.g.role == "lorentzian":
        t = f < -1e-10
        A[t] = reflect(G[t], *energy_terms(G[t], k[t]))
    return f, _bordered_solve(A, _normals(M, P), grad)


def _descend(core: _Energy, M: ManifoldModel, P: Array, sign: Array):
    """Projected gradient descent on sign*f with Armijo backtracking.

    Every row keeps its own step and stops on its own.  A round
    evaluates the descent direction of the rows still moving, then at
    most three stacked trial evaluations of the halvings step·2⁻ʲ: every
    row at j = 0, the rows that fail there at 0 < j < 4, and the rows
    that fail those at 4 ≤ j < ARMIJO_TRIALS.  Most rows that fail their
    step pass at j = 1, so the long block is left to the few rows whose
    decrease is lost to rounding, which fail every trial.  A row moves
    to its first trial that passes Armijo's test and stops when none
    does.  The halvings are exact, so this lands where halving one trial
    at a time does.  ``core`` is the energy of P's rows, and every subset
    or repetition of the rows takes its energy from it.
    """
    P = M.project_point(P)
    step = np.full(len(P), 0.1)
    live = np.arange(len(P))
    scales = 0.5 ** np.arange(ARMIJO_TRIALS)  # powers of two: exact halvings
    for _ in range(DESCENT_MAX_ITER):
        if not len(live):
            break
        f, d = _descent_direction(core.at(live), M, P[live])
        d = sign[live, None] * d
        nd = np.linalg.norm(d, axis=1)
        moving = nd > DESCENT_GRAD_STOP
        live, fp, d, nd = live[moving], sign[live][moving] * f[moving], d[moving], nd[moving]
        accepted = np.zeros(len(live), dtype=bool)
        pending = np.arange(len(live))
        for block in (scales[:1], scales[1:4], scales[4:]):
            if not len(pending):
                break
            rows = live[pending]
            t = step[rows, None] * block
            X = P[rows, None] - t[..., None] * d[pending, None]
            Q = M.project_point(X.reshape(-1, X.shape[-1]))
            bound = fp[pending, None] - 1e-4 * t * nd[pending, None] * nd[pending, None]
            ok = sign[rows, None] * core.at(rows).repeated(len(block)).values(Q).reshape(t.shape) < bound
            Q = Q.reshape(X.shape)
            hit = ok.any(axis=1)
            first = ok[hit].argmax(axis=1)
            P[rows[hit]] = Q[hit, first]
            step[rows[hit]] = np.minimum(t[hit, first] * 1.5, 10.0)
            accepted[pending[hit]] = True
            pending = pending[~hit]
        live = live[accepted]
    return P


def _hessian(core: _Energy, M: ManifoldModel, P: Array, grad: Array, normals: list) -> Array:
    """Per row, central differences of the analytic gradient minus
    λ·Hess c with λ = ∇f·∇c / |∇c|²: on the constraint set the straight-
    line ambient Hessian misses this curvature term, which can even flip
    signs."""
    d = P.shape[1]
    H = central_diff(core.stencil(d).gradient, P, np.eye(d), FD_STEP_FIRST)
    H = 0.5 * (H + H.transpose(0, 2, 1))
    for c in normals:
        lam = inner(grad, c) / inner(c, c)
        H = H - lam[:, None, None] * M.constraint_hess(P)
    return H


def _newton_refine(core: _Energy, M: ManifoldModel, P: Array):
    """Newton steps on the KKT system that borders out the flow direction.

    The Hessian is ``_hessian``.  Rows stop on their own; ``core`` is
    the energy of P's rows, as in ``_descend``.
    """
    P = P.copy()
    live = np.arange(len(P))
    for _ in range(NEWTON_MAX_ITER):
        if not len(live):
            break
        Q = P[live]
        _, grad, _, k = core.at(live).parts(Q)
        normals = _normals(M, Q)
        moving = np.linalg.norm(M.tangent_project(Q, grad), axis=1) > 1e-12
        live, Q, grad, k = live[moving], Q[moving], grad[moving], k[moving]
        if not len(live):
            break
        normals = [c[moving] for c in normals]
        H = _hessian(core.at(live), M, Q, grad, normals)
        # a (near-)stationary field has no flow direction to border out:
        # its zero border makes the row singular, solved by least squares
        kt = M.tangent_project(Q, k)
        kt[np.linalg.norm(kt, axis=1) <= 1e-10] = 0.0
        delta = _bordered_solve(H, [kt] + normals, -grad)
        nd = np.linalg.norm(delta, axis=1)
        delta = np.where((nd > NEWTON_TRUST)[:, None], delta * (NEWTON_TRUST / nd)[:, None], delta)
        P[live] = M.project_point(Q + delta)
        live = live[nd >= 1e-14]
    return P


def _search_rows(core: _Energy, M: ManifoldModel, starts: Array) -> Array:
    """Descent plus Newton from each start on f (even rows) and -f (odd
    rows); ``core`` is the energy of those rows, start i's at 2i and 2i + 1."""
    P = np.repeat(np.asarray(starts, dtype=float), 2, axis=0)
    sign = np.tile([1.0, -1.0], len(starts))
    return _newton_refine(core, M, _descend(core, M, P, sign))


def _scale(fmax: float) -> float:
    """σ = 2^k with k = ⌊log₄ fmax + ¼⌋, so that f/σ² has its largest
    |value| in [2^-½, 2^1½); 1 where fmax is 0 or not finite.  k is read
    off ``math.frexp``: fmax·4^j gives k + j exactly."""
    if not 0.0 < fmax < math.inf:
        return 1.0
    mantissa, e = math.frexp(fmax)  # fmax = mantissa·2^(e % 2)·4^(e // 2)
    return math.ldexp(1.0, e // 2 + math.floor((e % 2 + math.log2(mantissa) + 0.5) / 2))


def _divided(K: KillingField, sigma: float) -> KillingField:
    """K/σ in K's torus, with its jacobian and its matrix, if linear:
    exact for a power of two σ."""
    return KillingField(
        stackwise(lambda p: K.evaluator(p) / sigma),
        K.label,
        basis=K.basis,
        jacobian=stackwise(lambda p: K.jacobian(p) / sigma),
        linear=None if K.linear is None else K.linear / sigma,
    )


def find_critical_orbits(
    g: MetricField,
    K,
    budget: int = 64,
    seed: int = 42,
    horizon: float = 50.0,
) -> list:
    """Locate the critical orbits of f = g(K, K) on ``g.manifold``.

    The search runs on K/σ, σ = 2^k the power of two that ``_scale``
    reads off max |f| on the seeded samples (1 where f is 0 there): the
    f-variance test, descent, Newton, ``grad_f`` and ``classify_critical``
    see f/σ², whose largest value is of size 1, so K → cK multiplies f by
    c², divides periods by c and changes nothing else, bit for bit where
    c is a power of two.  A record holds f, |grad f|, the period and the
    geodesic residual of K itself.

    It is the search of a stack of one field: ``find_critical_orbits_many``
    of [K] at [horizon], whose records are each field's own.
    Multi-start descent on f and -f from ``budget`` of ``PROBE_SAMPLES``
    seeded samples (always including the sampled argmin and argmax) and
    Newton refinement, all rows in lockstep, then the finite-difference
    gradient certificate ``grad_f`` on all 2·budget rows in one call; a
    row is a candidate where its certified norm for K/σ is within
    ``GRAD_TOL``, and SearchFailureError, naming K's label and stating
    the smallest such norm, is raised where none is.  Descent on ±f ends
    at the extrema of f on the orbit space, so its index-1 critical sets
    (saddles) are not returned.  The record stage takes f of all
    candidates in one stacked call, one ``check_on_manifold`` and one
    ``energy_terms`` of ``g.matrix`` and K on the stack, whose rows round
    as ``energy`` at each point.  The candidates, in order of f, are
    deduplicated against the kept records at the same f (to
    1e-6·(σ² + |f|)).  First modulo the torus of the
    commuting family ``K.basis``, in closed form: each new record
    measures ``torus_orbit_distance`` to every candidate in one stacked
    call, and a candidate within ``DEDUP_DISTANCE`` of a kept
    representative's torus orbit joins it, since f is invariant
    under every isometry that preserves K, so the critical sets of a
    closed field are whole torus orbits (Bott, "Nondegenerate critical
    manifolds", 1954).  This rule holds only where the manifold has no
    deck group, ``torus_orbit_distance`` gives the orbit distance in
    closed form and every member passes ``certify_killing_field`` for g;
    the members are certified once per call and family, on the first row
    the rule would merge.  Then by flow reach: a row within
    ``DEDUP_DISTANCE`` of a kept orbit's curve joins it too; either rule
    merges, so their order changes no record.  So there is one record
    per critical set of such a field, and one per flow line a row lands
    on elsewhere.

    A row that starts a new record gets its period from
    ``detect_period``; the certificate's run gives the orbit's curve up
    to min(period, span) through ``certified_flow``, span = min(horizon,
    (4π/max(|K/σ|, 0.1) + 1)/σ), so the orbit gets one run, and only an
    orbit without a certificate is flowed for span instead.  That curve
    serves the later deduplication and the geodesic residual;
    ``classify_critical`` labels the record "degenerate" where the
    transverse Hessian has a null direction, as on a Morse-Bott set of
    positive dimension transverse to the flow.  Where the sampled
    f-variance is below ``DEGENERATE_VARIANCE`` and ``grad_f`` is within
    ``GRAD_TOL`` on every sample, every point is critical: there is no
    search, and the first sample is the one candidate of the same record
    path, labelled "degenerate_constant" in place of a classification.

    Every run of a flow line is one of ``flows``: closed-form for a field
    whose ``linear`` matrix is skew, integrated at ``flows.ODE_TOL``
    otherwise, with periods certified to ``flows.PERIOD_TOL``.  A budget
    below 1, a horizon that is not finite and positive, or a negative
    seed raises ValueError.
    """
    return find_critical_orbits_many(g, [K], budget, seed, [horizon])[0]


def find_critical_orbits_many(g: MetricField, fields, budget: int, seed: int, horizons) -> list:
    """``find_critical_orbits`` of each field of ``fields`` on ``g`` at
    its horizon in ``horizons``: one record list per field, in input
    order, each bit for bit that of the field's own call.

    The seeded probe is drawn once and shared.  Each field gets its own
    σ, its own K/σ and its own f-variance test; the descent and Newton
    rows of every field with a non-constant f run as one lockstep stack,
    whose energy evaluates each field on its own rows (``_Energy``), so a
    round costs about what it costs for one field.  The certificate runs
    once per field on that field's rows, and SearchFailureError is raised
    for the first field, in input order, with no certified row.  Records
    are then made field by field; the members of a torus family that
    several fields share are certified once.  A length of ``horizons``
    other than that of ``fields`` raises ValueError, as the arguments
    that ``find_critical_orbits`` refuses do.
    """
    horizons = list(horizons)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    for horizon in horizons:
        if not (math.isfinite(horizon) and horizon > 0.0):
            raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    fields = [as_field(K) for K in fields]
    if len(horizons) != len(fields):
        raise ValueError(f"{len(fields)} fields need as many horizons, got {len(horizons)}")
    samples = g.manifold.sample_points(np.random.default_rng(seed), PROBE_SAMPLES)
    probes = [_Probe.of(g, K, samples) for K in fields]
    rows = iter(_lockstep_rows(g, [p for p in probes if not p.constant], samples, budget))
    candidates = [_constant_candidate(g, p, samples[0]) if p.constant else _certified(g, p, next(rows)) for p in probes]
    verdicts = {}  # per torus family: whether every member is Killing for g
    return [_records(g, p, found, horizon, verdicts) for p, found, horizon in zip(probes, candidates, horizons)]


@dataclass(frozen=True, eq=False)
class _Probe:
    """A field K with f on the seeded samples, its σ, K/σ and whether f
    is constant there: its variance var(f/σ²) on the samples is below
    ``DEGENERATE_VARIANCE``, and then the certificate ``grad_f`` of K/σ is
    within ``GRAD_TOL`` on every sample.  Only a field that passes the
    variance test pays for the gradient; a near-constant f whose gradient
    the certificate sees is searched."""

    K: KillingField
    fvals: Array
    sigma: float
    Ks: KillingField
    constant: bool

    @classmethod
    def of(cls, g: MetricField, K: KillingField, samples: Array) -> _Probe:
        fvals = _Energy(g, K).values(samples)
        sigma = _scale(float(np.max(np.abs(fvals))))
        Ks = _divided(K, sigma)
        constant = float(np.var(fvals / sigma**2)) < DEGENERATE_VARIANCE
        constant = constant and bool(np.all(np.linalg.norm(grad_f(g, Ks, samples), axis=1) <= GRAD_TOL))
        return cls(K, fvals, sigma, Ks, constant)


def _lockstep_rows(g: MetricField, probes: list, samples: Array, budget: int) -> list:
    """The searched rows of each probed field, from one ``_search_rows``
    stack: per field, descent from ``budget`` samples on ±f, the sampled
    argmin and argmax first."""
    if not probes:
        return []
    starts = []
    for p in probes:
        order = [int(np.argmin(p.fvals)), int(np.argmax(p.fvals))]
        order += [i for i in range(len(samples)) if i not in order]
        starts.append(samples[order[:budget]])
    if len(probes) == 1:
        core = _Energy(g, probes[0].Ks)
    else:
        core = _Energy(g, tuple(p.Ks for p in probes), np.repeat(np.arange(len(probes)), 2 * len(starts[0])))
    return np.split(_search_rows(core, g.manifold, np.concatenate(starts)), len(probes))


def _constant_candidate(g: MetricField, probe: _Probe, p: Array) -> list:
    """The one candidate of a constant f: the sample p, f and |grad f| of K."""
    return [(p, float(probe.fvals[0]), probe.sigma**2 * float(np.linalg.norm(grad_f(g, probe.Ks, p))))]


def _certified(g: MetricField, probe: _Probe, rows: Array) -> list:
    """(point, f, |grad f|) of each row that ``grad_f`` certifies for
    K/σ, f and |grad f| of K itself; SearchFailureError where none is."""
    norms = np.linalg.norm(grad_f(g, probe.Ks, rows), axis=1)
    certified = norms <= GRAD_TOL
    if not certified.any():
        raise SearchFailureError(
            f"no start converged to a critical point of {probe.K.label!r}: 0 of {len(rows)} rows certified, "
            f"smallest gradient norm {np.fmin.reduce(norms):.3e} against GRAD_TOL = {GRAD_TOL:.1e}"
        )
    rows, norms = rows[certified], norms[certified]
    g.manifold.check_on_manifold(rows)
    f = energy_terms(g.matrix(rows), probe.K(rows))[1]
    return list(zip(rows, f.tolist(), (probe.sigma**2 * norms).tolist()))


def _records(g: MetricField, probe: _Probe, candidates: list, horizon: float, verdicts: dict) -> list:
    """The records of one field's candidates, deduplicated, in order of f
    (``find_critical_orbits``).  ``verdicts`` holds, per torus family,
    whether its members are Killing for g, certified on the first merge
    that needs it."""
    K, Ks, sigma = probe.K, probe.Ks, probe.sigma
    M = g.manifold
    candidates.sort(key=lambda c: (c[1], tuple(np.round(c[0], 9))))
    points = np.array([p for p, _, _ in candidates])
    torus = None if M.deck_generators else torus_orbit_distance(Ks)
    out = []
    curves = []
    near = []  # per record: which candidates lie within DEDUP_DISTANCE of its torus orbit
    for i, (p, fv, gn) in enumerate(candidates):
        level = [r for r, o in enumerate(out) if abs(fv - o.f_value) <= 1e-6 * (sigma**2 + abs(o.f_value))]
        if torus is not None and any(near[r][i] for r in level):
            if K.basis not in verdicts:
                verdicts[K.basis] = all(certify_killing_field(g, m).certified for m in K.basis.members)
            if verdicts[K.basis]:
                continue
        if any(min_distance_to_point(M, curves[r], p, DEDUP_DISTANCE) <= DEDUP_DISTANCE for r in level):
            continue
        cert = detect_period(M, K, p, horizon)
        speed = float(np.linalg.norm(Ks(p)))
        span = min(horizon, (4.0 * math.pi / max(speed, 0.1) + 1.0) / sigma)
        if cert is None:
            line = flow(M, K, p, span)
        else:
            line = certified_flow(M, K, cert, min(cert.period, span))
        if probe.constant:
            label = "degenerate_constant"
        else:
            try:
                label, _ = classify_critical(g, Ks, p)
            except DegenerateCriticalPointError:
                label = "degenerate"
        curves.append(line)
        near.append(None if torus is None else torus(points, p) <= DEDUP_DISTANCE)
        out.append(
            CriticalOrbit(
                representative=p,
                f_value=fv,
                grad_norm=gn,
                classification=label,
                geodesic_residual=geodesic_residual(g, line),
                period=cert.period if cert else None,
            )
        )
    out.sort(key=lambda o: o.f_value)
    return out
