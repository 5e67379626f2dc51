import dataclasses
import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics.errors import NotTimelikeError, UnsupportedCapabilityError, VanishingFieldError
from killing_geodesics import critical
from killing_geodesics.geometry import metric_and_jacobian
from killing_geodesics.killing import energy_terms, metric_and_form

from conftest import random_tangent

SQRT2 = math.sqrt(2.0)


class TestKillingResidual:
    def test_constant_field_flat_torus(self, flat_torus, rng):
        for _ in range(5):
            p = flat_torus.manifold.sample_point(rng)
            assert kg.killing_residual(flat_torus.metric, flat_torus.killing, p) <= 1e-10

    def test_stationary_sphere_field(self, s3, rng):
        worst = max(
            kg.killing_residual(s3.metric, s3.killing, s3.manifold.sample_point(rng))
            for _ in range(25)
        )
        assert worst <= 1e-8

    def test_non_killing_field_detected(self, flat_torus):
        # oracle: for X = (x mod 1) d/dt the only nonzero derivative is
        # dX^t/dx = 1, so the symmetric part g(D_x X, dt) + g(D_t X, dx)
        # equals g(dt, dt) = -1 and the residual is 1 away from the seam.
        bad = lambda p: np.array([0.0, p[0] % 1.0])
        res = kg.killing_residual(flat_torus.metric, bad, np.array([0.5, 0.2]))
        assert res >= 0.5

    def test_certification_flag(self, flat_torus):
        bad = lambda p: np.array([0.0, 1.0 + 0.3 * math.sin(2 * math.pi * p[0])])
        K = kg.make_killing_field(flat_torus.metric, bad, label="perturbed")
        assert not K.certified
        assert K.max_residual >= 0.1

    def test_a_certificate_needs_a_point(self, flat_torus):
        # a certificate over no points certifies nothing
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n}"):
                kg.certify_killing_field(flat_torus.metric, flat_torus.killing, n_samples=n)

    def test_energy_constant_along_flow(self, all_entries):
        for entry in all_entries:
            p0 = entry.probe_point
            f0 = kg.energy(entry.metric, entry.killing, p0)
            curve = kg.flow(entry.manifold, entry.killing, p0, 1.0)
            f = np.array([kg.energy(entry.metric, entry.killing, p) for p in curve.points])
            assert np.abs(f - f[0]).max() <= 1e-7
            assert abs(kg.energy(entry.metric, entry.killing, entry.manifold.project_point(curve.points[-1])) - f0) <= 1e-7


class TestConversions:
    def test_minkowski_examples(self, flat_torus):
        g = flat_torus.metric
        K = flat_torus.killing  # dt
        g_r = kg.lorentz_to_riemann(g, K)
        p = np.array([0.2, 0.3])
        dt = np.array([0.0, 1.0])
        dx = np.array([1.0, 0.0])
        assert kg.metric_eval(g_r, p, dt, dt) == pytest.approx(1.0, abs=1e-14)
        assert kg.metric_eval(g_r, p, dx, dx) == pytest.approx(1.0, abs=1e-14)
        # oracle: g(v,w) = -1 and the correction is -2(-1)(-1)/(-1) = +2
        v = np.array([1.0, 1.0])
        assert kg.metric_eval(g_r, p, v, dt) == pytest.approx(1.0, abs=1e-14)

    def test_not_timelike_error(self, flat_torus):
        g_r = kg.lorentz_to_riemann(flat_torus.metric, lambda p: np.array([1.0, 0.0]))
        with pytest.raises(NotTimelikeError):
            g_r.matrix(np.array([0.1, 0.1]))

    def test_positive_definite_result(self, s3, rng):
        from killing_geodesics.geometry import tangent_gram

        g_r = kg.lorentz_to_riemann(s3.metric, s3.killing)
        for _ in range(10):
            p = s3.manifold.sample_point(rng)
            eig = np.linalg.eigvalsh(tangent_gram(g_r, p))
            assert np.all(eig > 0)

    def test_sphere_energy_values(self, s3):
        # oracle: g(K,K) = -(|z|^2 + alpha^2 |w|^2) on the unit sphere
        f1 = kg.energy(s3.metric, s3.killing, np.array([1.0, 0.0, 0.0, 0.0]))
        f2 = kg.energy(s3.metric, s3.killing, np.array([0.0, 0.0, 1.0, 0.0]))
        assert f1 == pytest.approx(-1.0, abs=1e-12)
        assert f2 == pytest.approx(-2.0, abs=1e-12)

    def test_vanishing_field_error(self, s3):
        g_round = kg.MetricField(s3.manifold, lambda p: np.eye(4), (3, 0))
        zero = lambda p: np.zeros(4)
        g = kg.riemann_to_lorentz(g_round, zero)
        with pytest.raises(VanishingFieldError):
            g.matrix(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_involution_both_ways(self, s3, rng):
        M = s3.manifold
        g = s3.metric
        K = s3.killing
        g_r = kg.lorentz_to_riemann(g, K)
        g_back = kg.riemann_to_lorentz(g_r, K)
        g_r_back = kg.lorentz_to_riemann(g_back, K)
        for _ in range(100):
            p = M.sample_point(rng)
            v = random_tangent(M, p, rng)
            w = random_tangent(M, p, rng)
            assert abs(kg.metric_eval(g_back, p, v, w) - kg.metric_eval(g, p, v, w)) <= 1e-12
            assert abs(kg.metric_eval(g_r_back, p, v, w) - kg.metric_eval(g_r, p, v, w)) <= 1e-12

    def test_flipped_energy(self, s3, rng):
        g_r = kg.lorentz_to_riemann(s3.metric, s3.killing)
        for _ in range(10):
            p = s3.manifold.sample_point(rng)
            k = s3.killing(p)
            lor = kg.metric_eval(s3.metric, p, k, k)
            rie = kg.metric_eval(g_r, p, k, k)
            assert rie == pytest.approx(-lor, abs=1e-12)


def _einsum_conversion_jacobian(G, dG, k, dk):
    """The quotient-rule jacobian of the reflection of G in k, on the
    einsum contractions that a stack takes, at one point."""
    gk, f = energy_terms(G, k)
    f = f[..., None, None, None]
    dgk = np.einsum("...mij,...j->...mi", dG, k) + np.einsum("...ij,...mj->...mi", G, dk)
    df = np.einsum("...mi,...i->...m", dk, gk) + np.einsum("...i,...mi->...m", k, dgk)
    outer = gk[..., None, :, None] * gk[..., None, None, :]
    douter = dgk[..., :, :, None] * gk[..., None, None, :] + gk[..., None, :, None] * dgk[..., :, None, :]
    return dG - 2.0 * (douter * f - outer * df[..., None, None]) / (f * f)


class TestConversionJacobian:
    """The reflection's jacobian has one body for a point and a stack:
    each row of a stack is its one-point value bit for bit."""

    def test_one_point_is_its_row_of_the_stack(self, s3, lorentzian_entries, timelike_somewhere, rng):
        # the gallery's reflected metric, every reflection a Lorentzian
        # entry gives, both ways, and the weaker-hypothesis metric; the
        # round trip on stationary-s3 is constant, so its jacobian cancels
        # to rounding of terms of size 1
        cases = [(s3.metric, s3.manifold), (timelike_somewhere[0], s3.manifold)]
        for entry in lorentzian_entries:
            g_r = kg.lorentz_to_riemann(entry.metric, entry.killing)
            cases += [(g_r, entry.manifold), (kg.riemann_to_lorentz(g_r, entry.killing), entry.manifold)]
        for g, M in cases:
            P = M.sample_points(rng, 40)
            stack = g.jacobian(P)
            for p, row in zip(P, stack):
                assert np.array_equal(g.jacobian(p), row)

    def test_one_point_is_the_einsum_form_on_stationary_s3(self, s3, rng):
        # the reflection of the round metric (G = I, dG = 0) in a field
        # whose jacobian has one entry per row: every sum has one nonzero
        # term, so both paths round alike
        for p in s3.manifold.sample_points(rng, 40):
            ref = _einsum_conversion_jacobian(np.eye(4), np.zeros((4, 4, 4)), s3.killing(p), s3.killing.jacobian(p))
            assert np.array_equal(s3.metric.jacobian(p), ref)


def _raising_reflections(s3, timelike_somewhere):
    """lorentz_to_riemann in a field timelike only near two circles, and
    riemann_to_lorentz in rot-z, which vanishes on the circle z = 0, with
    the error each raises, and points on both sides of that."""
    g, K = timelike_somewhere
    round_g = kg.MetricField(s3.manifold, lambda p: np.eye(4), (3, 0))
    cases = [
        (kg.lorentz_to_riemann(g, K), NotTimelikeError),
        (kg.riemann_to_lorentz(round_g, s3.family.members[0]), VanishingFieldError),
    ]
    return cases, np.array([[0.6, 0.0, 0.8, 0.0], [0.0, 0.0, 0.6, 0.8], [0.0, 0.0, 0.0, 1.0]])


class TestMetricAndJacobian:
    """(G, ∂G) of a reflection from one evaluation of its base and field:
    bit for bit ``g.matrix`` and ``g.jacobian``, raising where the
    evaluator raises."""

    def test_bit_for_bit(self, s3, timelike_somewhere, rng):
        # stationary-s3, the weaker-hypothesis metric of item 4, a
        # reflection of a reflection (each level one evaluation) and a
        # reflection of a base that is not constant; each row of a stack
        # is the one-point pair
        P = s3.manifold.sample_points(rng, 24)
        base = kg.MetricField(s3.manifold, lambda p: np.diag(1.0 + p * p), (3, 0))
        metrics = (
            s3.metric,
            timelike_somewhere[0],
            kg.lorentz_to_riemann(s3.metric, s3.killing),
            kg.riemann_to_lorentz(base, s3.killing),
        )
        for g in metrics:
            assert hasattr(g.jacobian, "with_matrix")
            for p in (P[0], P[:1], P):
                G, dG = metric_and_jacobian(g, p)
                assert np.array_equal(G, g.matrix(p))
                assert np.array_equal(dG, g.jacobian(p))
            G, dG = metric_and_jacobian(g, P)
            for p, G_row, dG_row in zip(P, G, dG):
                G_one, dG_one = metric_and_jacobian(g, p)
                assert np.array_equal(G_one, G_row)
                assert np.array_equal(dG_one, dG_row)

    def test_raises_where_the_evaluator_does(self, s3, timelike_somewhere):
        cases, P = _raising_reflections(s3, timelike_somewhere)
        for reflected, error in cases:
            raised = 0
            for p in (*P, P):
                try:
                    G = reflected.matrix(p)
                except error:
                    raised += 1
                    with pytest.raises(error):
                        metric_and_jacobian(reflected, p)
                else:
                    assert np.array_equal(metric_and_jacobian(reflected, p)[0], G)
            assert 2 <= raised <= len(P)

    def test_replaced_jacobian_takes_two_calls(self, s3, rng):
        stencil = dataclasses.replace(s3.metric, jacobian=None)
        assert not hasattr(stencil.jacobian, "with_matrix")
        P = s3.manifold.sample_points(rng, 8)
        G, dG = metric_and_jacobian(stencil, P)
        assert np.array_equal(G, stencil.matrix(P))
        assert np.array_equal(dG, stencil.jacobian(P))
        assert not np.array_equal(dG, s3.metric.jacobian(P))


def _size_of_terms(g, P, k):
    """Per row, |k|² times a bound on the terms the reflection's jacobian
    ∂B - 2 (∂(uuᵀ) φ - uuᵀ ∂φ) / φ² sums (u = Bκ, φ = κᵀBκ), in row norms."""
    norm = lambda x: np.linalg.norm(x.reshape(len(P), -1), axis=1)
    B, dB, kappa, dkappa, u, phi = g.jacobian.reflection(P)
    phi = np.abs(phi)
    du = norm(dB) * norm(kappa) + norm(B) * norm(dkappa)
    dphi = 2.0 * norm(dkappa) * norm(u) + norm(dB) * norm(kappa) ** 2
    return norm(k) ** 2 * (norm(dB) + 4.0 * norm(u) * du / phi + 2.0 * norm(u) ** 2 * dphi / phi**2)


def _assert_form_is_the_einsum(g, P, k):
    # relative to the size of the terms: for k = κ on a constant base the
    # form is 0, and the einsum over ∂G is rounding of that size
    ref = np.einsum("ni,nmij,nj->nm", k, g.jacobian(P), k)
    G, form = metric_and_form(g, P, k)
    assert np.array_equal(G, g.matrix(P))
    assert np.all(np.abs(form - ref) <= 1e-13 * _size_of_terms(g, P, k)[:, None])


class TestJacobianForm:
    """The energy gradient's metric term kᵀ(∂_m G)k: in closed form for a
    reflected metric, the einsum over the whole ∂G otherwise, with G bit
    for bit ``g.matrix``."""

    @pytest.mark.parametrize("alpha", [SQRT2, 1.5])
    def test_stationary_sphere(self, alpha, rng):
        entry = kg.make_stationary_sphere(alpha)
        P = entry.manifold.sample_points(rng, 48)
        assert hasattr(entry.metric.jacobian, "reflection")
        _assert_form_is_the_einsum(entry.metric, P, entry.killing(P))

    def test_approximants(self, s3, rng):
        # the reflection is in K, and each approximant's k differs from it
        P = s3.manifold.sample_points(rng, 48)
        approximants = kg.approximate_closed(s3.killing, 5, metric=s3.metric)
        assert len(approximants) == 5
        for field, _ in approximants:
            assert np.abs(field(P) - s3.killing(P)).max() > 1e-4
            _assert_form_is_the_einsum(s3.metric, P, field(P))

    def test_timelike_somewhere(self, timelike_somewhere, rng):
        g, K = timelike_somewhere
        P = g.manifold.sample_points(rng, 48)
        _assert_form_is_the_einsum(g, P, K(P))

    def test_lorentz_to_riemann(self, s3, rng):
        g_r = kg.lorentz_to_riemann(s3.metric, s3.killing)
        P = s3.manifold.sample_points(rng, 48)
        for k in (s3.killing(P), rng.normal(size=P.shape)):
            _assert_form_is_the_einsum(g_r, P, k)

    def test_base_that_is_not_constant(self, s3, rng):
        # every gallery base has ∂g_R = 0; this one has the ∂_m B terms
        base = kg.MetricField(s3.manifold, lambda p: np.diag(1.0 + p * p), (3, 0))
        g = kg.riemann_to_lorentz(base, s3.killing)
        P = s3.manifold.sample_points(rng, 48)
        assert np.abs(base.jacobian(P)).max() > 0.5
        for k in (s3.killing(P), rng.normal(size=P.shape)):
            _assert_form_is_the_einsum(g, P, k)

    def test_replaced_jacobian_takes_the_einsum(self, s3, rng):
        stencil = dataclasses.replace(s3.metric, jacobian=None)
        assert not hasattr(stencil.jacobian, "reflection")
        P = s3.manifold.sample_points(rng, 16)
        k = s3.killing(P)
        ref = np.einsum("ni,nmij,nj->nm", k, stencil.jacobian(P), k)
        G, form = metric_and_form(stencil, P, k)
        assert np.array_equal(G, stencil.matrix(P))
        assert np.array_equal(form, ref)

    def test_gradient_raises_where_the_reflection_does(self, s3, timelike_somewhere):
        cases, P = _raising_reflections(s3, timelike_somewhere)
        K = timelike_somewhere[1]
        for reflected, error in cases:
            with pytest.raises(error):
                reflected.matrix(P)
            with pytest.raises(error):
                critical._Energy(reflected, K).parts(P)


class TestLieBracket:
    def test_constant_fields_commute(self, flat_torus):
        X = lambda p: np.array([1.0, 0.0])
        Y = lambda p: np.array([0.0, 1.0])
        assert np.abs(kg.lie_bracket(X, Y, np.array([0.2, 0.4]))).max() <= 1e-12

    def test_sphere_rotations_commute(self, s3, rng):
        K1, K2 = s3.family.members
        for _ in range(5):
            p = s3.manifold.sample_point(rng)
            assert np.linalg.norm(kg.lie_bracket(K1, K2, p)) <= 1e-8

    def test_coordinate_example(self):
        # oracle: [d/dx, x d/dt] = d/dt by the coordinate formula
        X = lambda p: np.array([1.0, 0.0])
        Y = lambda p: np.array([0.0, p[0]])
        out = kg.lie_bracket(X, Y, np.array([0.7, 0.1]))
        assert np.linalg.norm(out - np.array([0.0, 1.0])) <= 1e-8

    def test_exact_antisymmetry(self, s3, rng):
        K1, K2 = s3.family.members
        p = s3.manifold.sample_point(rng)
        fwd = kg.lie_bracket(K1, K2, p)
        bwd = kg.lie_bracket(K2, K1, p)
        assert np.all(fwd == -bwd)


class TestFamilies:
    def test_gram_flat_torus(self, flat_torus):
        g = flat_torus.metric
        dx, dt = flat_torus.family.members
        fam = kg.make_killing_family(g, (dt, dx))
        A = kg.gram_matrix(g, fam, np.array([0.1, 0.9]))
        assert np.allclose(A, np.diag([-1.0, 1.0]), atol=1e-14)
        B = kg.gram_matrix(g, fam, np.array([0.7, 0.2]))
        assert np.array_equal(A, B)

    def test_gram_sphere_oracle(self, s3):
        # oracle: direct evaluation of the reflection formula with plain
        # numpy, independent of the MetricField plumbing
        alpha = SQRT2
        u = 0.5
        p = np.array([math.sqrt(1 - u), 0.0, math.sqrt(u), 0.0])
        k1 = np.array([-p[1], p[0], 0.0, 0.0])
        k2 = np.array([0.0, 0.0, -p[3], p[2]])
        k = k1 + alpha * k2

        def lor(v, w):
            return float(v @ w) - 2.0 * float(v @ k) * float(w @ k) / float(k @ k)

        expected = np.array([[lor(k1, k1), lor(k1, k2)], [lor(k2, k1), lor(k2, k2)]])
        A = kg.gram_matrix(s3.metric, s3.family, p)
        assert np.abs(A - expected).max() <= 1e-12

    def test_gram_flow_invariance(self, s3, rng):
        q = s3.manifold.sample_point(rng)
        A0 = kg.gram_matrix(s3.metric, s3.family, q)
        moved = kg.flow(s3.manifold, s3.family.members[0], q, 0.8).points[-1]
        A1 = kg.gram_matrix(s3.metric, s3.family, s3.manifold.project_point(moved))
        assert np.abs(A1 - A0).max() <= 1e-6

    def test_combine_basis_selection(self, flat_torus):
        K = kg.combine_family(flat_torus.family, (1.0, 0.0))
        assert np.allclose(K(np.array([0.3, 0.3])), [1.0, 0.0])
        assert K.generator == (1.0, 0.0)

    def test_combine_null_direction(self, flat_torus_null):
        f = kg.energy(flat_torus_null.metric, flat_torus_null.killing, np.array([0.4, 0.1]))
        assert f == pytest.approx(0.0, abs=1e-14)

    def test_combine_sphere_direction(self, s3, rng):
        # the combination (1, sqrt2) must evaluate to (iz, i sqrt2 w)
        K = kg.combine_family(kg.make_killing_family(s3.metric, s3.family.members), (1.0, SQRT2))
        for _ in range(5):
            p = s3.manifold.sample_point(rng)
            expected = np.array([-p[1], p[0], -SQRT2 * p[3], SQRT2 * p[2]])
            assert np.allclose(K(p), expected, atol=1e-14)

    def test_combined_linear_field_is_the_member_loop(self, s3, rng):
        # one matrix product per point must round like the loop it
        # replaced, sum_i x_i (A_i p), on points and on (N, 4) stacks
        K1, K2 = s3.family.members
        coeffs = [(1.0, SQRT2)] + [K.generator for K, _ in kg.approximate_closed(s3.killing, 5, s3.metric)]
        assert len(coeffs) == 6
        P = s3.manifold.sample_points(rng, 16)
        for x in coeffs:
            K = kg.combine_family(s3.family, x)
            assert np.array_equal(K.linear, x[0] * K1.linear + x[1] * K2.linear)
            for p in P:
                assert np.array_equal(K(p), x[0] * K1(p) + x[1] * K2(p))
                assert np.array_equal(K.jacobian(p), x[0] * K1.jacobian(p) + x[1] * K2.jacobian(p))
            assert np.array_equal(K.evaluator(P), x[0] * K1.evaluator(P) + x[1] * K2.evaluator(P))
            assert np.array_equal(K.jacobian(P), x[0] * K1.jacobian(P) + x[1] * K2.jacobian(P))

    def test_combine_rejects_zero(self, flat_torus):
        with pytest.raises(ValueError):
            kg.combine_family(flat_torus.family, (0.0, 0.0))

    def test_commuting_flag(self, s3):
        assert s3.family.commuting
        assert s3.family.max_bracket <= 1e-7


def _certified(entry, f):
    assert kg.certify_killing_field(entry.metric, f).certified


def _combined(entry, f):
    K = kg.combine_family(kg.make_killing_family(entry.metric, (f, f)), (1.0, 1.0))
    p = entry.probe_point
    assert np.array_equal(K(p), 2.0 * f(p))


def _not_closable(entry, f):
    with pytest.raises(UnsupportedCapabilityError):
        kg.approximate_closed(f, 3, entry.metric)


def _no_convergence_certificate(entry, f):
    with pytest.raises(UnsupportedCapabilityError):
        kg.certify_uniform_convergence(entry.metric, f, [], samples=500, seed=7)


@pytest.mark.parametrize("use", [_certified, _combined, _not_closable, _no_convergence_certificate])
def test_takes_a_bare_callable(s3, use):
    """Every function that takes a field takes a bare single-point
    callable too, through ``as_field``."""
    A = s3.killing.linear
    use(s3, lambda p: A @ p)
