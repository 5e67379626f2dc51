"""Killing vector fields, residual certification, metric conversions.

A vector field is Killing when its flow preserves the metric, i.e. when
the Lie derivative L_K g vanishes (O'Neill, *Semi-Riemannian Geometry*,
1983, ch. 9).  In ambient coordinates, with G the metric matrix, ∂_m G
its derivatives and J[m, i] = ∂_m K_i the field jacobian (the convention
of ``KillingField.jacobian``),

    L_K g = Σ_m K_m ∂_m G + J G + G Jᵀ.

K is tangent to the manifold, so its flow preserves the manifold and
L_K g restricted to tangent vectors is the Lie derivative of the induced
metric.  The residual is the largest entry of that restriction, so it
vanishes (up to the rounding of the jacobians) exactly on Killing fields.

Both metric conversions reflect a base B in a field κ, G = B - 2uuᵀ/φ
with u = Bκ and φ = κᵀBκ.  Their ∂G keeps B and κ, from which the energy
gradient takes kᵀ(∂_m G)k (``metric_and_form``); every other layer reads
G and ∂G, from one evaluation of B, ∂B, κ and Dκ (``metric_and_jacobian``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotTimelikeError, VanishingFieldError
from .geometry import (
    FD_STEP_FIRST,
    Array,
    MetricField,
    _derivative,
    as_evaluator,
    constant,
    inner,
    matvec,
    metric_and_jacobian,
    metric_eval,
    stackwise,
)

KILLING_RESIDUAL_TOL = 1e-8
COMMUTE_TOL = 1e-7
LINEAR_TOL = 1e-10  # skewness, commutators and eigen-gaps of field matrices, relative
# seeded sample points of the certificates
CERTIFY_SEED = 0
FAMILY_SAMPLES = 20
FAMILY_SEED = 0


@dataclass(frozen=True, eq=False)
class KillingField:
    """A vector field with optional torus-generator coordinates.

    ``basis`` is the ``KillingFamily`` of the torus the field lies in,
    its members and their bracket certificate, and ``generator`` holds
    K's coefficients in it (both set by ``combine_family``, so only for
    fields combined from such a family).  ``max_residual`` is the Killing
    residual ``certify_killing_field`` measured on its samples (inf until
    measured), and ``certified`` says whether it stayed within
    ``KILLING_RESIDUAL_TOL``; perturbed non-Killing fields are legitimate
    objects that are not certified.  ``linear`` holds the matrix A of a
    linear field, K(p) = A p (see ``linear_field``).  When A is skew, the
    flows of ``flows`` read the flow line exp(tA)·p off A in closed form
    instead of integrating ``evaluator``; every other use evaluates the
    field through ``evaluator``.  ``jacobian`` holds J[m, i] = ∂_m K_i:
    the analytic one when given, else ``central_diff`` of ``evaluator``
    at ``FD_STEP_FIRST``, filled when the field is built.  Both take a
    point or an (N, d) stack and return float arrays once the field is
    built (``geometry``).  Functions that take a field accept a bare
    callable too, through ``as_field``.
    """

    evaluator: Callable[[Array], Array]
    label: str = "K"
    generator: Optional[tuple] = None  # K's coefficients in ``basis``
    basis: Optional[KillingFamily] = None
    max_residual: float = math.inf
    jacobian: Optional[Callable[[Array], Array]] = None  # row m = ∂field/∂x_m
    linear: Optional[Array] = None  # A with K(p) = A p

    def __post_init__(self):
        object.__setattr__(self, "evaluator", as_evaluator(self.evaluator))
        object.__setattr__(self, "jacobian", _derivative(self.jacobian, self.evaluator, FD_STEP_FIRST))

    @property
    def certified(self) -> bool:
        return self.max_residual <= KILLING_RESIDUAL_TOL

    def __call__(self, p: Array) -> Array:
        return self.evaluator(np.asarray(p, dtype=float))


def linear_field(
    A, label: str = "K", generator: Optional[tuple] = None, basis: Optional[KillingFamily] = None
) -> KillingField:
    """The field K(p) = A p with its constant jacobian A^T, for one point
    or an (N, d) stack."""
    A = np.asarray(A, dtype=float)
    return KillingField(stackwise(lambda p: matvec(A, p)), label, generator, basis, jacobian=constant(A.T.copy()), linear=A)


def eigen_groups(S: Array, tol: float):
    """The kernel and the eigen-groups of a symmetric positive semidefinite S.

    Returns (fixed, groups).  The rows of ``fixed`` are an orthonormal
    basis of the eigenvectors whose eigenvalue is at most ``tol``.  Each
    group (E, w) holds the orthonormal rows E of one run of eigenvalues
    above ``tol`` that lie within ``tol`` of their neighbours, and w, their
    mean.  For S = -A² with A skew the groups are the invariant subspaces
    on which A turns at the rate sqrt(w).
    """
    w, V = np.linalg.eigh(S)
    nonzero = np.flatnonzero(w > tol)
    runs = np.split(nonzero, np.flatnonzero(np.diff(w[nonzero]) > tol) + 1) if len(nonzero) else []
    return V[:, w <= tol].T, [(V[:, idx].T, float(np.mean(w[idx]))) for idx in runs]


def torus_orbit_distance(K: KillingField) -> Optional[Callable[[Array, Array], float]]:
    """dist(p, orbit of r) under the torus exp(Σ θ_i A_i) of the members
    of ``K.basis``, in closed form, or None where they do not give it.

    Needs K and every member linear, the members A_i skew and commuting
    with each other and with K's matrix: skewness is judged to
    ``LINEAR_TOL``·s, s = max |A_i|, brackets and eigen-gaps to
    ``LINEAR_TOL``·s² and the bracket with K to ``LINEAR_TOL``·s·|K|,
    so K → cK changes nothing.  The eigen-groups of the fixed
    generic Σ c_i (-A_i²) (c_i = π^-i) are then invariant under every
    A_i; each nonzero group must be a plane E_j, on which A_i rotates at
    rate ω_ij, and the rates must have full column rank, so that the
    angles on the planes move independently.  The orbit of r is then the
    product of the circles |Π_j p| = |Π_j r| over the fixed part Π_0 r:

        dist(p, orbit(r))² = Σ_j (|Π_j p| - |Π_j r|)² + |Π_0 (p - r)|².

    ``distance(p, r)`` takes one point p or an (N, d) stack of them, each
    row rounded as the one point.  Whether the members are Killing for
    some metric is not checked here.
    """
    members = K.basis.members if K.basis is not None else ()
    if K.linear is None or not members or any(m.linear is None for m in members):
        return None
    A = [np.asarray(m.linear, dtype=float) for m in members]
    scale = max(float(np.abs(a).max()) for a in A)
    tol = LINEAR_TOL * scale * scale
    if any(np.abs(a + a.T).max() > LINEAR_TOL * scale for a in A):
        return None
    for i, a in enumerate(A):
        if any(np.abs(a @ b - b @ a).max() > tol for b in A[i + 1 :]):
            return None
    k_tol = LINEAR_TOL * scale * float(np.abs(K.linear).max())
    if any(np.abs(a @ K.linear - K.linear @ a).max() > k_tol for a in A):
        return None
    fixed, groups = eigen_groups(sum(math.pi**-i * -(a @ a) for i, a in enumerate(A)), tol)
    if not groups or any(len(E) != 2 for E, _ in groups):
        return None
    planes = [E for E, _ in groups]
    rates = np.array([[E[1] @ a @ E[0] for E in planes] for a in A])
    if np.linalg.matrix_rank(rates, tol) < len(planes):
        return None

    def norm(E, x):  # |E x| per row, as np.linalg.norm rounds it
        y = matvec(E, x)
        return np.sqrt(inner(y, y))

    def distance(p, r):
        p = np.asarray(p, dtype=float)
        drift = matvec(fixed, p - r)
        return np.sqrt(sum((norm(E, p) - norm(E, r)) ** 2 for E in planes) + inner(drift, drift))

    return distance


def as_field(K) -> KillingField:
    """K as a KillingField: a bare callable is wrapped, and its jacobian
    filled, by ``KillingField``; a field is returned as it is."""
    return K if isinstance(K, KillingField) else KillingField(K)


@dataclass(frozen=True, eq=False)
class KillingFamily:
    """A finite family of Killing fields.  ``max_bracket`` is the largest
    pairwise Lie bracket ``make_killing_family`` measured on its samples
    (inf until measured), and ``commuting`` says whether it stayed within
    ``COMMUTE_TOL``."""

    members: tuple
    max_bracket: float = math.inf

    def __len__(self) -> int:
        return len(self.members)

    @property
    def commuting(self) -> bool:
        return self.max_bracket <= COMMUTE_TOL


def killing_residual(g: MetricField, K, p) -> float:
    """max |B (L_K g) Bᵀ| at p, or over the rows of an (N, d) stack.

    L_K g = Σ_m K_m ∂_m G + J G + G Jᵀ with J[m, i] = ∂_m K_i (module
    docstring); the rows of B are ``tangent_basis``, the complement of
    ∇c, Euclidean-orthonormal in the ambient chart (not g-orthonormal),
    which avoids normalizing against null directions of an indefinite
    metric; the maximum depends on that frame only by rounding.  A stack
    gets one stack of bases, and a row does not depend on the other rows.
    G and ∂G come from ``metric_and_jacobian``, so a reflection is
    evaluated once.  ∂G and J are the jacobians the metric and the field
    carry: analytic where they were built with them, else the central
    differences filled when they were built.  Raises OffManifoldError at
    a point off the manifold.
    """
    p = np.asarray(p, dtype=float)
    M = g.manifold
    M.check_on_manifold(p)
    K = as_field(K)
    G, dG = metric_and_jacobian(g, p)
    J = K.jacobian(p)
    flow = np.einsum("...m,...mij->...ij", K(p), dG)
    L = flow + J @ G + G @ np.swapaxes(J, -1, -2)
    B = M.tangent_basis(p)
    return float(np.abs(B @ L @ np.swapaxes(B, -1, -2)).max())


def certify_killing_field(g: MetricField, K, n_samples: int = 50) -> KillingField:
    """Return a copy of K with its residual filled in, the largest on
    ``n_samples`` points seeded by ``CERTIFY_SEED``: certified when it
    stays within ``KILLING_RESIDUAL_TOL``."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    K = as_field(K)
    pts = g.manifold.sample_points(np.random.default_rng(CERTIFY_SEED), n_samples)
    worst = killing_residual(g, K, pts)
    return dataclasses.replace(K, max_residual=worst)


def make_killing_field(g: MetricField, evaluator: Callable[[Array], Array], label: str = "K") -> KillingField:
    return certify_killing_field(g, KillingField(evaluator, label=label))


def lie_bracket(X, Y, p) -> Array:
    """The Lie bracket [X, Y] = J_Yᵀ X - J_Xᵀ Y at p, or at each row of an
    (N, d) stack, with J[m, i] = ∂_m K_i as in ``killing_residual``.

    Exact for linear fields (analytic jacobians), and exactly
    antisymmetric: [Y, X] is -[X, Y] to the last bit.
    """
    p = np.asarray(p, dtype=float)
    X, Y = as_field(X), as_field(Y)

    def derivative(A, B):  # J_Aᵀ B, the derivative of A along B
        return np.einsum("...mi,...m->...i", A.jacobian(p), B(p))

    return derivative(Y, X) - derivative(X, Y)


def make_killing_family(g: MetricField, members) -> KillingFamily:
    """Bundle fields, through ``as_field``, into a family, verifying
    pairwise commutation on ``FAMILY_SAMPLES`` points seeded by
    ``FAMILY_SEED``: the brackets must stay within ``COMMUTE_TOL``."""
    members = [as_field(m) for m in members]
    pts = g.manifold.sample_points(np.random.default_rng(FAMILY_SEED), FAMILY_SAMPLES)
    brackets = [lie_bracket(a, b, pts) for i, a in enumerate(members) for b in members[i + 1 :]]
    worst = max((float(np.linalg.norm(br, axis=-1).max()) for br in brackets), default=0.0)
    return KillingFamily(tuple(members), max_bracket=worst)


def gram_matrix(g: MetricField, F: KillingFamily, q) -> Array:
    """The matrix A(q)_ij = g(K^i_q, K^j_q); exactly symmetric."""
    q = np.asarray(q, dtype=float)
    m = len(F.members)
    vals = [F.members[i](q) for i in range(m)]
    A = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            A[i, j] = A[j, i] = metric_eval(g, q, vals[i], vals[j])
    return A


def combine_family(F: KillingFamily, x) -> KillingField:
    """Pointwise linear combination sum_i x_i K^i of a commuting family.

    The result lies in the torus of ``F``: its ``basis`` is ``F`` and its
    ``generator`` is x.  When every member is linear, so is the result,
    with A = sum_i x_i A_i: one matrix product per point in place of a
    loop over the members.
    """
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("combination coefficients must be nonzero")
    if len(x) != len(F.members):
        raise ValueError("coefficient count does not match family size")
    members = F.members

    def combine(values):
        out = x[0] * values[0]
        for c, v in zip(x[1:], values[1:]):
            out = out + c * v
        return out

    generator = tuple(float(c) for c in x)
    label = "+".join(f"{c:g}*{K.label}" for c, K in zip(x, members))
    if all(K.linear is not None for K in members):
        return linear_field(combine([K.linear for K in members]), label, generator, F)

    @stackwise
    def evaluator(p):
        return combine([K(p) for K in members])

    @stackwise
    def jacobian(p):
        return combine([K.jacobian(p) for K in members])

    return KillingField(evaluator, label=label, generator=generator, basis=F, jacobian=jacobian)


def lorentz_to_riemann(g: MetricField, K) -> MetricField:
    """Auxiliary Riemannian metric for a timelike Killing field.

    g_R(v, w) = g(v, w) - 2 g(v, K) g(w, K) / g(K, K); positive definite
    wherever K is timelike, with g_R(K, K) = -g(K, K).  The evaluator is
    lazy so that converting back reproduces the input to round-off.
    """
    if g.role != "lorentzian":
        raise ValueError("lorentz_to_riemann needs a Lorentzian metric")

    def check(f):
        if (f >= -1e-10).any():
            raise NotTimelikeError(f"field not timelike here: g(K,K) = {np.max(f):.3e}")

    return _reflected(g, K, check, (g.manifold.intrinsic_dim, 0))


def riemann_to_lorentz(g_R: MetricField, K) -> MetricField:
    """Lorentzian metric from a Riemannian one and a nonvanishing field.

    Same reflection formula with g_R in place of g; the field becomes
    timelike: g(K, K) = -g_R(K, K) < 0.
    """
    if g_R.role != "riemannian":
        raise ValueError("riemann_to_lorentz needs a Riemannian metric")

    def check(f):
        if (f < 1e-12).any():
            raise VanishingFieldError("field vanishes (or metric not positive) here")

    return _reflected(g_R, K, check, (g_R.manifold.intrinsic_dim - 1, 1))


def _reflected(g: MetricField, K, check, signature: tuple) -> MetricField:
    """The lazy reflection of ``g`` in ``K``, the body of both
    conversions: ``check(f)`` raises where f = g(K, K) rules it out."""
    K = as_field(K)

    def evaluator(p, _g=g, _field=K.evaluator):
        G = _g.matrix(p)
        gk, f = energy_terms(G, _field(p))
        check(f)
        return reflect(G, gk, f)

    return MetricField(g.manifold, stackwise(evaluator), signature, jacobian=_conversion_jacobian(g, K, check))


def metric_and_form(g: MetricField, P: Array, k: Array):
    """G and kᵀ(∂_m G)k at each row of (N, d) stacks ``P`` and ``k``: the
    einsum over ∂G, or for a reflection (module docstring) its closed form
    on the one evaluation that gives G, with no ∂G built:

        kᵀ(∂_m G)k = kᵀ(∂_m B)k - 4c ∂_m w + 2c² ∂_m φ,  c = w/φ,  w = u·k,
        ∂_m w = κᵀ(∂_m B)k + (∂_m κ)·(Bk),  ∂_m φ = 2 (∂_m κ)·u + κᵀ(∂_m B)κ."""
    reflection = getattr(g.jacobian, "reflection", None)
    if reflection is None:
        G, dG = metric_and_jacobian(g, P)
        return G, np.einsum("ni,nmij,nj->nm", k, dG, k)
    B, dB, kappa, dkappa, u, phi = reflection(P)
    c = (inner(u, k) / phi)[:, None]
    dBk = np.einsum("nmij,nj->nmi", dB, k)
    dw = np.einsum("nmi,ni->nm", dBk, kappa) + np.einsum("nmi,ni->nm", dkappa, matvec(B, k))
    dphi = 2.0 * np.einsum("nmi,ni->nm", dkappa, u) + np.einsum("ni,nmij,nj->nm", kappa, dB, kappa)
    return reflect(B, u, phi), np.einsum("nmi,ni->nm", dBk, k) - 4.0 * c * dw + 2.0 * c * c * dphi


def energy_terms(G: Array, k: Array):
    """The lowered field Gk and the energy k^T G k.

    ``G`` and ``k`` are one matrix and vector or stacks of them.  This is
    the one formula for f = g(K, K): the pointwise energy, the critical
    search, the reflection conversions and the approximation certificate
    all contract here.
    """
    gk = matvec(G, k)
    return gk, inner(k, gk)


def reflect(G: Array, gk: Array, f: Array) -> Array:
    """The reflection G - 2 (Gk)(Gk)^T / f of a metric in a field whose
    energy f = k^T G k is nonzero, from ``energy_terms``."""
    return G - 2.0 * gk[..., :, None] * gk[..., None, :] / f[..., None, None]


def _conversion_jacobian(g: MetricField, K: KillingField, check) -> Callable[[Array], Array]:
    """Jacobian of G - 2 (GK)(GK)^T / (K^T G K) by the quotient rule, on
    the jacobians ``g.jacobian`` and ``K.jacobian``.  Accepts one point or
    an ``(N, d)`` stack, in one body: its products are the ``matvec``
    gufunc over broadcast axes, so every row of a stack is its one-point
    value bit for bit.  ``reflection`` gives B = G, ∂B, κ = K, Dκ,
    u = Bκ and φ = κᵀBκ, one evaluation each, after ``check(φ)``, and
    ``with_matrix`` the reflected matrix with the jacobian.
    """

    def reflection(p):
        B, dB = metric_and_jacobian(g, p)
        kappa, dkappa = K(p), K.jacobian(p)
        u, phi = energy_terms(B, kappa)
        check(phi)
        return B, dB, kappa, dkappa, u, phi

    def with_matrix(p):
        G, dG, k, dk, gk, f = reflection(np.asarray(p, dtype=float))
        f4 = f[..., None, None, None]
        dgk = matvec(dG, k[..., None, :]) + matvec(G[..., None, :, :], dk)
        df = matvec(dk, gk) + matvec(dgk, k)
        half = dgk[..., :, :, None] * gk[..., None, None, :]
        douter = half + np.swapaxes(half, -1, -2)
        outer = gk[..., None, :, None] * gk[..., None, None, :]
        return reflect(G, gk, f), dG - 2.0 * (douter * f4 - outer * df[..., None, None]) / (f4 * f4)

    jac = stackwise(lambda p: with_matrix(p)[1])
    jac.reflection, jac.with_matrix = reflection, with_matrix  # a record rebuilt without this jacobian drops both
    return jac


def energy(g: MetricField, K, p) -> float:
    """The energy function g(K_p, K_p), constant along the Killing flow."""
    p = np.asarray(p, dtype=float)
    g.manifold.check_on_manifold(p)
    return float(energy_terms(g.matrix(p), as_field(K)(p))[1])
