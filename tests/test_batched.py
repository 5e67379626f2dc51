"""The stacked evaluation layer and the lockstep critical search.

Every evaluator the search calls maps an (N, d) stack of points row by
row, the analytic gradient of f agrees with the finite-difference
certificate, and a row of the lockstep search does not depend on the
other rows in its batch.
"""

import dataclasses
import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics import critical, geometry

SQRT2 = math.sqrt(2.0)


def _stack_points(entry, n=7, seed=5):
    rng = np.random.default_rng(seed)
    return entry.manifold.sample_points(rng, n)


def _assert_rowwise(fn, P):
    stacked = np.asarray(fn(P), dtype=float)
    rows = np.array([np.asarray(fn(p), dtype=float) for p in P])
    assert stacked.shape == rows.shape
    # a single point takes BLAS products, a stack einsum: a few ulps apart
    np.testing.assert_allclose(stacked, rows, rtol=1e-14, atol=1e-14)


class TestStackedEvaluators:
    def test_field_metric_and_jacobians(self, all_entries):
        for entry in all_entries:
            P = _stack_points(entry)
            K, g = entry.killing, entry.metric
            for fn in (K.evaluator, K.jacobian, g.matrix, g.jacobian):
                _assert_rowwise(fn, P)
                # so the search runs the gallery without a row loop
                assert geometry.stacked(fn, P[: entry.manifold.ambient_dim + 1]) is fn

    def test_constraint_and_projection(self, all_entries):
        rng = np.random.default_rng(8)
        for entry in all_entries:
            M = entry.manifold
            if M.constraint is None:
                continue
            P = _stack_points(entry) + 1e-3 * rng.normal(size=(7, M.ambient_dim))
            _assert_rowwise(M.constraint, P)
            _assert_rowwise(M.grad_constraint, P)
            _assert_rowwise(M.hess_constraint, P)
            projected = M.project_point(P)
            rows = np.array([M.project_point(p) for p in P])
            np.testing.assert_allclose(projected, rows, rtol=1e-14, atol=1e-14)
            assert max(M.constraint_residual(q) for q in projected) <= 1e-13

    def test_projection_keeps_scalar_constraints(self):
        M = kg.ManifoldModel(
            kind="embedded",
            ambient_dim=3,
            intrinsic_dim=2,
            constraint=lambda p: float(p @ p) - 1.0,
        )
        q = M.project_point(np.array([0.6, 0.0, 0.9]))
        assert abs(float(q @ q) - 1.0) <= 1e-13


class TestAnalyticGradient:
    def test_matches_certificate_by_duality(self, all_entries, rng):
        # g(grad f, e) = df(e) = ∇f·e for every tangent e
        for entry in all_entries:
            M, g, K = entry.manifold, entry.metric, entry.killing
            P = M.sample_points(rng, 50)
            core = critical._batched_energy(g, K, P[: M.ambient_dim + 1])
            grads = core.gradient(P)
            for p, grad in zip(P, grads):
                cert = critical.grad_f(g, K, p)
                G = g.matrix(p)
                for e in M.tangent_basis(p):
                    assert abs(cert @ G @ e - grad @ e) <= 1e-6


class TestLockstepSearch:
    def test_rows_do_not_depend_on_the_batch(self, s3):
        M, g, K = s3.manifold, s3.metric, s3.killing
        starts = M.sample_points(np.random.default_rng(42), 64)
        probe = starts[: M.ambient_dim + 1]
        core = critical._batched_energy(g, K, probe)
        M = critical._batched_manifold(M, probe)
        alone = critical._search_rows(core, M, starts[:3])
        batch = critical._search_rows(core, M, starts)
        assert alone.shape == (6, 4)
        assert np.array_equal(alone, batch[:6])

    def test_single_point_field_is_wrapped(self, s3):
        A = np.zeros((4, 4))
        A[1, 0], A[0, 1] = 1.0, -1.0
        A[3, 2], A[2, 3] = SQRT2, -SQRT2
        plain = kg.find_critical_orbits(s3.metric, lambda p: A @ p, s3.manifold, budget=16, seed=42)
        gallery = kg.find_critical_orbits(s3.metric, s3.killing, s3.manifold, budget=16, seed=42)
        assert len(plain) == len(gallery) == 2
        for a, b in zip(plain, gallery):
            assert a.classification == b.classification
            assert a.f_value == pytest.approx(b.f_value, abs=1e-12)
            assert a.period == pytest.approx(b.period, abs=1e-6)

    def test_scalar_constraint_is_wrapped(self, s3):
        # a constraint written for one point, with finite-difference derivatives
        M = kg.ManifoldModel(
            kind="embedded",
            ambient_dim=4,
            intrinsic_dim=3,
            constraint=lambda p: float(p @ p) - 1.0,
            sampler=s3.manifold.sampler,
        )
        g = dataclasses.replace(s3.metric, manifold=M)
        orbits = kg.find_critical_orbits(g, s3.killing, M, budget=8, seed=42)
        assert [o.classification for o in orbits] == ["min", "max"]
        assert [o.f_value for o in orbits] == pytest.approx([-2.0, -1.0], abs=1e-9)

    def test_every_row_meets_the_certificate(self, s3, monkeypatch):
        norms = []
        certificate = critical.grad_f

        def recording(g, K, p):
            grad = certificate(g, K, p)
            norms.append(float(np.linalg.norm(grad)))
            return grad

        monkeypatch.setattr(critical, "grad_f", recording)
        kg.find_critical_orbits(s3.metric, s3.killing, s3.manifold, budget=64, seed=42)
        assert len(norms) == 128
        assert max(norms) <= 1e-9
