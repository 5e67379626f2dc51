"""The shared central-difference stencil and the field normaliser.

Every fold of a hand-written stencil into ``geometry.central_diff`` is
pinned bit for bit against the per-point stencil it replaced, written out
here as the reference.  The Killing residual and the Lie bracket read the
field jacobians instead of a stencil; they are checked against the
per-point stencils they replaced to a stated tolerance, and against
independent references.  The derivatives a record fills when it is
built without them work on stacks of points and follow a new evaluator,
and the reflection conversions round-trip on random S³ points for a
field with an analytic jacobian and for a bare callable.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import killing_geodesics as kg
from killing_geodesics import geometry
from killing_geodesics.errors import OffManifoldError
from killing_geodesics.geometry import (
    apply_christoffel,
    christoffel,
    metric_eval,
    metric_orthogonal_project,
)
from killing_geodesics.killing import linear_field

from conftest import assert_draws_of_one

SQRT2 = math.sqrt(2.0)
H = 1e-5


def _rotation(alpha):
    """The matrix of K = (iz, i alpha w) on C² = R⁴."""
    A = np.zeros((4, 4))
    A[0, 1], A[1, 0] = -1.0, 1.0
    A[2, 3], A[3, 2] = -alpha, alpha
    return A


def _sphere(**derivatives):
    return kg.ManifoldModel(
        ambient_dim=4,
        constraint=lambda p: float(p @ p) - 1.0,
        sampler=lambda rng, n: (lambda v: v / np.sqrt(np.vecdot(v, v))[:, None])(rng.normal(size=(n, 4))),
        **derivatives,
    )


# -- the per-point stencils the folds replaced ----------------------------


def _reference_directional(field, v, p):
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return np.zeros_like(p)
    u = v / nv
    return (np.asarray(field(p + H * u), float) - np.asarray(field(p - H * u), float)) / (2 * H) * nv


def _reference_accelerations(field, points):
    return np.array([_reference_directional(field, np.asarray(field(p), dtype=float), p) for p in points])


def _reference_covariant(g, X, v, p):
    if float(np.linalg.norm(v)) == 0.0:
        return np.zeros_like(p)
    dX = _reference_directional(X, v, p)
    amb = dX + apply_christoffel(christoffel(g, p), v, np.asarray(X(p), dtype=float))
    return metric_orthogonal_project(g, p, amb)


def _reference_residual(g, field, p):
    basis = g.manifold.tangent_basis(p)
    nabla = [_reference_covariant(g, field, b, p) for b in basis]
    worst = 0.0
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            s = metric_eval(g, p, nabla[i], basis[j]) + metric_eval(g, p, nabla[j], basis[i])
            worst = max(worst, abs(s))
    return worst


def _reference_bracket(X, Y, p):
    return _reference_directional(Y, X(p), p) - _reference_directional(X, Y(p), p)


def _fields(all_entries, s3):
    """(entry, field) for every gallery entry, plus a bare single-point
    field on S³ that can only be evaluated row by row."""
    A = _rotation(SQRT2)
    return [(e, e.killing) for e in all_entries] + [(s3, lambda p: A @ p)]


class TestFoldsAreBitwise:
    def test_flow_accelerations(self, all_entries, s3):
        rng = np.random.default_rng(31)
        for entry, K in _fields(all_entries, s3):
            field = K.evaluator if isinstance(K, kg.KillingField) else K
            for p0 in entry.manifold.sample_points(rng, 3):
                line = kg.flow(entry.manifold, K, p0, 3.0)
                assert len(line.points) > entry.manifold.ambient_dim + 1
                assert np.array_equal(line.accelerations, _reference_accelerations(field, line.points)), entry.name

    def test_covariant_derivative_rows_match_single_vectors(self, all_entries, s3):
        rng = np.random.default_rng(33)
        for entry, K in _fields(all_entries, s3):
            for p in entry.manifold.sample_points(rng, 3):
                basis = entry.manifold.tangent_basis(p)
                rows = kg.covariant_derivative(entry.metric, K, basis, p)
                single = np.array([kg.covariant_derivative(entry.metric, K, b, p) for b in basis])
                assert np.array_equal(rows, single), entry.name


def _skew(seed, d=4):
    S = np.random.default_rng(seed).normal(size=(d, d))
    return S - S.T


def _flow_map(A, t):
    """exp(tA) by its Taylor series, to double precision for |tA| << 1."""
    term = out = np.eye(len(A))
    for k in range(1, 30):
        term = term @ (t * A) / k
        out = out + term
    return out


def _pullback_derivative(g, A, p, h=1e-4):
    """d/dt at 0 of exp(tA)ᵀ G(exp(tA) p) exp(tA), the Lie derivative of
    the ambient metric along p -> A p, by a five-point stencil in t."""

    def pullback(t):
        E = _flow_map(A, t)
        return E.T @ g.matrix(E @ p) @ E

    return (-pullback(2 * h) + 8 * pullback(h) - 8 * pullback(-h) + pullback(-2 * h)) / (12 * h)


class TestKillingEquation:
    """``killing_residual`` as L_K g on the jacobians, and ``lie_bracket``
    as J_Yᵀ X - J_Xᵀ Y."""

    def test_residual_agrees_with_the_stencil(self, all_entries, s3):
        # the stencil's finite-difference floor is about 2e-11 on S³
        rng = np.random.default_rng(32)
        for entry, K in _fields(all_entries, s3):
            field = K.evaluator if isinstance(K, kg.KillingField) else K
            for p in entry.manifold.sample_points(rng, 5):
                new = kg.killing_residual(entry.metric, K, p)
                assert abs(new - _reference_residual(entry.metric, field, p)) <= 1e-9, entry.name

    def test_residual_agrees_with_the_stencil_off_killing(self, s3):
        A = _skew(40)
        for p in s3.manifold.sample_points(np.random.default_rng(41), 5):
            ref = _reference_residual(s3.metric, lambda q: A @ q, p)
            assert ref > 0.1
            assert kg.killing_residual(s3.metric, lambda q: A @ q, p) == pytest.approx(ref, rel=1e-8)

    def test_residual_is_the_derivative_of_the_pulled_back_metric(self, s3):
        A = _skew(42)
        K = linear_field(A)
        for p in s3.manifold.sample_points(np.random.default_rng(43), 5):
            B = s3.manifold.tangent_basis(p)
            expected = float(np.abs(B @ _pullback_derivative(s3.metric, A, p) @ B.T).max())
            assert expected > 0.1
            assert kg.killing_residual(s3.metric, K, p) == pytest.approx(expected, rel=1e-10)

    def test_stack_is_the_max_over_its_points(self, all_entries, s3):
        A = _skew(44)
        fields = _fields(all_entries, s3) + [(s3, lambda q: A @ q)]
        rng = np.random.default_rng(45)
        for entry, K in fields:
            P = entry.manifold.sample_points(rng, 12)
            each = max(kg.killing_residual(entry.metric, K, p) for p in P)
            assert kg.killing_residual(entry.metric, K, P) == pytest.approx(each, rel=1e-12, abs=1e-15), entry.name

    def test_off_manifold_point_raises(self, s3):
        off = np.array([1.1, 0.0, 0.0, 0.0])
        with pytest.raises(OffManifoldError):
            kg.killing_residual(s3.metric, s3.killing, off)
        P = s3.manifold.sample_points(np.random.default_rng(46), 6)
        with pytest.raises(OffManifoldError):
            kg.killing_residual(s3.metric, s3.killing, np.vstack([P, off]))

    def test_bracket_agrees_with_the_stencil(self, all_entries, s3):
        A = _rotation(SQRT2)
        pairs = [(e, *e.family.members) for e in all_entries if e.family is not None and len(e.family) == 2]
        pairs.append((s3, lambda p: A @ p, s3.family.members[0]))
        rng = np.random.default_rng(34)
        for entry, X, Y in pairs:
            for p in entry.manifold.sample_points(rng, 5):
                assert np.abs(kg.lie_bracket(X, Y, p) - _reference_bracket(X, Y, p)).max() <= 1e-9, entry.name

    def test_bracket_agrees_with_the_stencil_off_commuting(self, s3):
        A, B = _skew(47), _skew(48)
        X, Y = (lambda p: A @ p), (lambda p: B @ p)
        for p in s3.manifold.sample_points(np.random.default_rng(49), 5):
            ref = _reference_bracket(X, Y, p)
            np.testing.assert_allclose(kg.lie_bracket(X, Y, p), ref, rtol=1e-8, atol=0)

    def test_bracket_of_linear_fields_is_the_commutator(self, s3):
        # oracle: [Ap, Bp]^i = (Ap)^m ∂_m (Bp)^i - (Bp)^m ∂_m (Ap)^i = ((BA - AB) p)^i
        A, B = _skew(50), _skew(51)
        P = s3.manifold.sample_points(np.random.default_rng(52), 6)
        exact = P @ (B @ A - A @ B).T
        np.testing.assert_allclose(kg.lie_bracket(linear_field(A), linear_field(B), P), exact, rtol=0, atol=1e-14)
        for p, row in zip(P, exact):
            np.testing.assert_allclose(kg.lie_bracket(lambda q: A @ q, lambda q: B @ q, p), row, rtol=0, atol=1e-8)


class TestFallbacksOnStacks:
    def test_constraint_gradient_and_hessian(self):
        M = _sphere()
        P = M.sample_points(np.random.default_rng(35), 6)
        np.testing.assert_allclose(M.constraint_grad(P[0]), 2.0 * P[0], atol=1e-6)
        np.testing.assert_allclose(M.constraint_grad(P), 2.0 * P, atol=1e-6)
        np.testing.assert_allclose(M.constraint_hess(P[0]), 2.0 * np.eye(4), atol=1e-6)
        np.testing.assert_allclose(M.constraint_hess(P), np.broadcast_to(2.0 * np.eye(4), (6, 4, 4)), atol=1e-6)

    def test_metric_jacobian(self, s3):
        P = s3.manifold.sample_points(np.random.default_rng(36), 6)
        fd = dataclasses.replace(s3.metric, jacobian=None).jacobian(P)
        np.testing.assert_allclose(fd, s3.metric.jacobian(P), atol=1e-6)

    def test_sphere_draws_a_stack_as_its_points(self):
        assert_draws_of_one(_sphere())

    def test_as_field_jacobian(self):
        A = _rotation(SQRT2)
        P = _sphere().sample_points(np.random.default_rng(37), 6)
        J = kg.as_field(lambda p: A @ p).jacobian(P)
        assert J.shape == (6, 4, 4)
        for row in J:
            np.testing.assert_allclose(row, A.T, atol=1e-8)

    def test_as_field_keeps_a_complete_field(self, s3):
        assert kg.as_field(s3.killing) is s3.killing


def _stencil(fn, P, h):
    return geometry.central_diff(fn, P, np.eye(P.shape[-1]), h)


class TestFilledDerivatives:
    """A record built without a derivative fills it once, when built:
    ``central_diff`` of its own evaluator along the coordinates, at
    ``FD_STEP_FIRST`` (the constraint Hessian: of the gradient, at
    ``FD_STEP_SECOND``, symmetrised).  Rebuilt with a new evaluator by
    ``dataclasses.replace``, it differentiates the new one."""

    P = np.random.default_rng(38).normal(size=(5, 4))

    def test_manifold(self):
        M = _sphere()
        grad = _stencil(M.constraint, self.P, geometry.FD_STEP_FIRST)
        hess = _stencil(lambda X: _stencil(M.constraint, X, geometry.FD_STEP_FIRST), self.P, geometry.FD_STEP_SECOND)
        np.testing.assert_array_equal(M.constraint_grad(self.P), grad)
        np.testing.assert_array_equal(M.constraint_hess(self.P), 0.5 * (hess + hess.transpose(0, 2, 1)))
        np.testing.assert_array_equal(M.constraint_grad(self.P[0]), grad[0])
        moved = dataclasses.replace(M, constraint=lambda p: float(p @ p) - 4.0 * p[0] ** 3)
        np.testing.assert_array_equal(moved.constraint_grad(self.P), _stencil(moved.constraint, self.P, geometry.FD_STEP_FIRST))
        assert np.abs(moved.constraint_grad(self.P) - grad).max() > 1.0
        assert np.abs(moved.constraint_hess(self.P) - M.constraint_hess(self.P)).max() > 1.0

    def test_metric(self):
        g = kg.MetricField(_sphere(), lambda p: np.diag(1.0 + p * p), (3, 0))
        np.testing.assert_array_equal(g.jacobian(self.P), _stencil(g.evaluator, self.P, geometry.FD_STEP_FIRST))
        moved = dataclasses.replace(g, evaluator=lambda p: np.diag(1.0 + p**4))
        np.testing.assert_array_equal(moved.jacobian(self.P), _stencil(moved.evaluator, self.P, geometry.FD_STEP_FIRST))
        assert np.abs(moved.jacobian(self.P) - g.jacobian(self.P)).max() > 1.0

    def test_field(self, s3):
        K = kg.KillingField(lambda p: p * p)
        np.testing.assert_array_equal(K.jacobian(self.P), _stencil(K.evaluator, self.P, geometry.FD_STEP_FIRST))
        moved = dataclasses.replace(K, evaluator=lambda p: p**3)
        np.testing.assert_array_equal(moved.jacobian(self.P), _stencil(moved.evaluator, self.P, geometry.FD_STEP_FIRST))
        assert np.abs(moved.jacobian(self.P) - K.jacobian(self.P)).max() > 1.0
        # a derivative the record was built with is kept
        assert dataclasses.replace(s3.killing, evaluator=lambda p: p**3).jacobian is s3.killing.jacobian


def _round_metric():
    M = _sphere(constraint_grad=lambda p: 2.0 * p, constraint_hess=lambda p: 2.0 * np.eye(4))
    eye, zero = np.eye(4), np.zeros((4, 4, 4))
    return kg.MetricField(M, lambda p: eye, (3, 0), jacobian=lambda p: zero)


_A = _rotation(SQRT2)
_G_R = _round_metric()
_FIELDS = {
    "analytic": kg.KillingField(lambda p: _A @ p, jacobian=lambda p: _A.T),
    "bare": lambda p: _A @ p,
}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda v: np.linalg.norm(v) > 0.1),
    st.sampled_from(sorted(_FIELDS)),
)
def test_reflection_round_trip(v, kind):
    K = _FIELDS[kind]
    p = np.asarray(v) / np.linalg.norm(v)
    back = kg.lorentz_to_riemann(kg.riemann_to_lorentz(_G_R, K), K)
    np.testing.assert_allclose(back.matrix(p), _G_R.matrix(p), rtol=0, atol=1e-12)
    np.testing.assert_allclose(back.jacobian(p), _G_R.jacobian(p), rtol=0, atol=1e-6)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_directional_norms_are_the_one_row_norms(d):
    # directional_diff scales each row by its norm as np.linalg.norm rounds
    # it; norm(axis=1) rounds these rows differently
    rng = np.random.default_rng(40 + d)
    A = rng.normal(size=(d, d))
    field = geometry.stackwise(lambda p: geometry.matvec(A, p))
    p, V = rng.normal(size=d), rng.normal(size=(300, d))
    V[7] = 0.0
    assert not np.array_equal(np.linalg.norm(V, axis=1), [np.linalg.norm(v) for v in V])
    rows = np.array([_reference_directional(field, v, p) for v in V])
    assert np.array_equal(geometry.directional_diff(field, p, V), rows)
