"""The stacked evaluation layer and the lockstep critical search.

Every evaluator the search calls maps an (N, d) stack of points row by
row: the gallery's by construction, so they are called unwrapped, and any
other callable through ``geometry.as_evaluator``, which probes it once.
A stack rounds each row as the one point: the products ``matvec`` and
``inner``, the gallery's evaluators and f itself, bit for bit.
The analytic gradient of f agrees with the finite-difference
certificate, whose stencil is one stacked call of f and agrees with one
call per direction.  The certificate, the tangent basis and the Killing
residual take a stack of points, agree with one row at a time and do
not depend on the batch, and one point is a stack of one row; the
search certifies all its rows in one call.  A row of the lockstep
search does not depend on the other rows in its batch.  Descent
backtracks in at most three stacked trial evaluations per round and
lands where halving one trial at a time lands.
"""

import dataclasses
import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics import critical, geometry
from killing_geodesics.killing import energy_terms, linear_field
from killing_geodesics.rational import approximate_closed

SQRT2 = math.sqrt(2.0)


def _stack_points(entry, n=7, seed=5):
    rng = np.random.default_rng(seed)
    return entry.manifold.sample_points(rng, n)


def _assert_rowwise(fn, P):
    stacked = np.asarray(fn(P), dtype=float)
    rows = np.array([np.asarray(fn(p), dtype=float) for p in P])
    assert stacked.shape == rows.shape
    # a stack rounds each row as the one point (geometry.matvec)
    assert np.array_equal(stacked, rows)


def _assert_unwrapped(fn):
    # so every layer calls the gallery without a probe or a row loop
    assert not hasattr(fn, "__wrapped__")
    assert geometry.as_evaluator(fn) is fn


class TestStackedEvaluators:
    def test_field_metric_and_jacobians(self, all_entries):
        for entry in all_entries:
            P = _stack_points(entry)
            g = entry.metric
            fields = (entry.killing,) + (entry.family.members if entry.family else ())
            for fn in [g.evaluator, g.jacobian] + [fn for K in fields for fn in (K.evaluator, K.jacobian)]:
                _assert_rowwise(fn, P)
                _assert_unwrapped(fn)

    def test_constraint_and_projection(self, all_entries):
        rng = np.random.default_rng(8)
        for entry in all_entries:
            M = entry.manifold
            if M.constraint is None:
                continue
            P = _stack_points(entry) + 1e-3 * rng.normal(size=(7, M.ambient_dim))
            _assert_rowwise(M.constraint, P)
            _assert_rowwise(M.constraint_grad, P)
            _assert_rowwise(M.constraint_hess, P)
            for fn in (M.constraint, M.constraint_grad, M.constraint_hess):
                _assert_unwrapped(fn)
            projected = M.project_point(P)
            rows = np.array([M.project_point(p) for p in P])
            assert np.array_equal(projected, rows)
            assert max(M.constraint_residual(q) for q in projected) <= 1e-13

    def test_projection_keeps_scalar_constraints(self):
        M = kg.ManifoldModel(
            ambient_dim=3,
            constraint=lambda p: float(p @ p) - 1.0,
        )
        q = M.project_point(np.array([0.6, 0.0, 0.9]))
        assert abs(float(q @ q) - 1.0) <= 1e-13


def _counting(calls):
    """A callable that maps stacks and records the ndim of each argument."""

    def double(p):
        calls.append(np.ndim(p))
        return 2.0 * np.asarray(p, dtype=float)

    return double


class TestAsEvaluator:
    def test_probe_runs_once(self):
        calls = []
        K = kg.KillingField(_counting(calls))
        P = np.random.default_rng(3).normal(size=(7, 4))
        for _ in range(20):
            np.testing.assert_array_equal(K(P), 2.0 * P)
        # the probe: d + 1 rows one at a time and once as a stack
        assert calls == [1] * 5 + [2] + [2] * 20

    def test_short_stacks_wait_for_the_probe(self):
        calls = []
        ev = geometry.as_evaluator(_counting(calls))
        ev(np.ones((4, 4)))
        assert calls == [1] * 4
        ev(np.ones((5, 4)))
        ev(np.ones((2, 4)))
        assert calls == [1] * 4 + [1] * 5 + [2] + [2] + [2]

    def test_single_point_callable_on_a_square_stack(self):
        A = np.random.default_rng(4).normal(size=(4, 4))
        ev = geometry.as_evaluator(lambda p: A @ p)
        rng = np.random.default_rng(5)
        for n in (4, 9, 4):  # before and after the probe
            P = rng.normal(size=(n, 4))
            assert np.array_equal(ev(P), np.array([A @ p for p in P]))

    def test_replace_does_not_wrap_twice(self, s3):
        A = np.zeros((4, 4))
        K = kg.KillingField(lambda p: A @ p)
        again = dataclasses.replace(K, label="again")
        assert again.evaluator is K.evaluator
        assert not hasattr(K.evaluator.__wrapped__, "__wrapped__")
        M = dataclasses.replace(s3.manifold, constraint=lambda p: float(p @ p) - 1.0)
        assert dataclasses.replace(M, sampler=None).constraint is M.constraint
        g = dataclasses.replace(s3.metric, evaluator=lambda p: np.eye(4))
        assert dataclasses.replace(g, signature=(3, 0)).evaluator is g.evaluator


def _grad_f_one_direction_at_a_time(g, K, p):
    """The reference certificate: one call of f per stencil point."""
    f = critical._Energy(g, K).values
    basis = g.manifold.tangent_basis(p)
    h = critical.TANGENT_FD_STEP
    df = np.array([(f(p + h * b) - f(p - h * b)) / (2 * h) for b in basis])
    return np.linalg.solve(basis @ g.matrix(p) @ basis.T, df) @ basis


class TestAnalyticGradient:
    def test_one_stencil_call_matches_one_call_per_direction(self, all_entries, rng, monkeypatch):
        sizes = []
        values = critical._Energy.values

        def recording(self, P):
            sizes.append(len(P))
            return values(self, P)

        monkeypatch.setattr(critical._Energy, "values", recording)
        for entry in all_entries:
            M, g, K = entry.manifold, entry.metric, entry.killing
            for p in M.sample_points(rng, 10):
                sizes.clear()
                cert = critical.grad_f(g, K, p)
                assert sizes == [2 * len(M.tangent_basis(p))]
                np.testing.assert_allclose(cert, _grad_f_one_direction_at_a_time(g, K, p), rtol=0, atol=1e-9)

    def test_matches_certificate_by_duality(self, all_entries, rng):
        # g(grad f, e) = df(e) = ∇f·e for every tangent e
        for entry in all_entries:
            M, g, K = entry.manifold, entry.metric, entry.killing
            P = M.sample_points(rng, 50)
            core = critical._Energy(g, K)
            grads = core.gradient(P)
            for p, grad in zip(P, grads):
                cert = critical.grad_f(g, K, p)
                G = g.matrix(p)
                for e in M.tangent_basis(p):
                    assert abs(cert @ G @ e - grad @ e) <= 1e-6


def _tangent_basis_one_direction_at_a_time(M, p):
    """An independent one-point reference for the tangent space:
    Gram-Schmidt on one ``tangent_project`` per ambient direction."""
    basis = []
    for k in range(M.ambient_dim):
        v = M.tangent_project(p, np.eye(M.ambient_dim)[k])
        for b in basis:
            v = v - (b @ v) * b
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-8:
            basis.append(v / nrm)
        if len(basis) == M.intrinsic_dim:
            break
    return np.array(basis)


class TestStackedCertificate:
    def test_matches_one_row_at_a_time(self, all_entries):
        for entry in all_entries:
            M, g, K = entry.manifold, entry.metric, entry.killing
            P = _stack_points(entry, n=40)
            stacked = critical.grad_f(g, K, P)
            rows = np.array([critical.grad_f(g, K, p) for p in P])
            assert stacked.shape == P.shape
            # a zero gradient (constant f) must come out exactly zero
            np.testing.assert_allclose(stacked, rows, rtol=1e-12, atol=1e-12 * np.abs(rows).max())

    def test_rows_do_not_depend_on_the_batch(self, all_entries):
        for entry in all_entries:
            g, K = entry.metric, entry.killing
            P = _stack_points(entry, n=40)
            whole = critical.grad_f(g, K, P)
            assert np.array_equal(critical.grad_f(g, K, P[5:8]), whole[5:8])
            assert np.array_equal(critical.grad_f(g, K, P[[17, 3]]), whole[[17, 3]])

    def test_one_stencil_call_for_the_stack(self, s3, monkeypatch):
        sizes = []
        values = critical._Energy.values

        def recording(self, P):
            sizes.append(len(P))
            return values(self, P)

        monkeypatch.setattr(critical._Energy, "values", recording)
        critical.grad_f(s3.metric, s3.killing, _stack_points(s3, n=11))
        assert sizes == [2 * 3 * 11]

    def test_off_manifold_row_is_rejected(self, s3):
        P = _stack_points(s3, n=5)
        P[3] *= 1.1
        with pytest.raises(kg.OffManifoldError):
            critical.grad_f(s3.metric, s3.killing, P)


class TestStackedTangentBasis:
    def test_rows_are_orthonormal_and_tangent(self, all_entries):
        for entry in all_entries:
            M = entry.manifold
            P = _stack_points(entry, n=50)
            B = M.tangent_basis(P)
            assert B.shape == (len(P), M.intrinsic_dim, M.ambient_dim)
            gram = B @ np.swapaxes(B, 1, 2)
            np.testing.assert_allclose(gram, np.broadcast_to(np.eye(M.intrinsic_dim), gram.shape), atol=1e-13)
            if M.constraint is not None:
                assert np.abs(np.einsum("nmd,nd->nm", B, M.constraint_grad(P))).max() <= 1e-13

    def test_matches_one_row_at_a_time(self, all_entries):
        for entry in all_entries:
            M = entry.manifold
            P = _stack_points(entry, n=50)
            # the same tangent space: the frames differ, their projectors BᵀB do not
            R = np.array([_tangent_basis_one_direction_at_a_time(M, p) for p in P])
            B = M.tangent_basis(P)
            np.testing.assert_allclose(np.swapaxes(B, 1, 2) @ B, np.swapaxes(R, 1, 2) @ R, rtol=0, atol=1e-13)

    def test_pole_row_drops_its_normal_direction(self, s3):
        # at e_0 the normal is the first ambient direction: its reflection
        # only flips e_0, so the row's basis is exactly the other three
        # directions, whichever directions its neighbours reflect onto
        P = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0], [0.5, 0.5, 0.5, 0.5]])
        B = s3.manifold.tangent_basis(P)
        assert np.array_equal(B[0], np.eye(4)[1:])
        for q, b in zip(P, B):
            np.testing.assert_allclose(b, s3.manifold.tangent_basis(q), atol=1e-15)

    def test_one_point_is_its_stack_of_one_row(self, all_entries):
        for entry in all_entries:
            M = entry.manifold
            P = _stack_points(entry, n=20)
            whole = M.tangent_basis(P)
            for p, b in zip(P, whole):
                assert np.array_equal(M.tangent_basis(p), M.tangent_basis(p[None])[0])
                assert np.array_equal(M.tangent_basis(p), b)


def _killing_residual_in_one_point_frame(g, K, p):
    """The Killing residual at one point, in the one-point frame of
    ``tangent_basis``, on the L that ``killing_residual`` forms there."""
    K = kg.as_field(K)
    G, J = g.matrix(p), K.jacobian(p)
    L = np.einsum("...m,...mij->...ij", K(p), g.jacobian(p)) + J @ G + G @ np.swapaxes(J, -1, -2)
    B = g.manifold.tangent_basis(p)
    return float(np.abs(B @ L @ B.T).max())


def _fields(entry):
    """The entry's field, and on stationary-s3 also the bare callable 30·K
    whose jacobian is filled by central differences."""
    if entry.name != "stationary-s3":
        return [entry.killing]
    evaluator = entry.killing.evaluator
    return [entry.killing, lambda p: 30.0 * np.asarray(evaluator(p), dtype=float)]


class TestStackedKillingResidual:
    def test_stack_is_the_largest_row(self, all_entries):
        for entry in all_entries:
            g = entry.metric
            P = _stack_points(entry, n=50)
            for K in _fields(entry):
                # each row as one point and as a stack of one
                rows = [kg.killing_residual(g, K, p) for p in P]
                assert rows == [kg.killing_residual(g, K, P[i : i + 1]) for i in range(len(P))]
                assert kg.killing_residual(g, K, P) == max(rows)

    def test_rows_match_one_point_frames(self, all_entries):
        for entry in all_entries:
            g = entry.metric
            P = _stack_points(entry, n=50)
            for K in _fields(entry):
                rows = [kg.killing_residual(g, K, p) for p in P]
                before = [_killing_residual_in_one_point_frame(g, K, p) for p in P]
                np.testing.assert_allclose(rows, before, rtol=1e-14, atol=0)


class TestLockstepSearch:
    def test_rows_do_not_depend_on_the_batch(self, s3):
        M, g, K = s3.manifold, s3.metric, s3.killing
        starts = M.sample_points(np.random.default_rng(42), 64)
        core = critical._Energy(g, K)
        alone = critical._search_rows(core, M, starts[:3])
        batch = critical._search_rows(core, M, starts)
        assert alone.shape == (6, 4)
        assert np.array_equal(alone, batch[:6])

    def test_mixed_stack_rows_are_their_fields_stacks_of_one(self, s3, timelike_somewhere):
        # rows of three fields, interleaved: f, the gradient, G, K and the
        # Hessian, whose stencil is laid out (sign, row, direction), give
        # each row its own field's stack-of-one value, bit for bit
        g, K = timelike_somewhere
        M = g.manifold
        three_halves = approximate_closed(s3.killing, 2, metric=s3.metric)[1][0]
        fields = (three_halves, K, critical._divided(linear_field(3.0 * K.linear, basis=K.basis), 4.0))
        P = M.sample_points(np.random.default_rng(5), 24)
        which = np.random.default_rng(6).permutation(np.arange(24) % 3)
        mixed = critical._Energy(g, fields, which)
        parts = mixed.parts(P)
        values = mixed.values(P)
        H = critical._hessian(mixed, M, P, parts[1], critical._normals(M, P))
        for n, (p, j) in enumerate(zip(P, which)):
            one, Q = critical._Energy(g, fields[j]), p[None]
            own = one.parts(Q)
            assert all(np.array_equal(a[n], b[0]) for a, b in zip(parts, own))
            assert values[n] == one.values(Q)[0]
            assert np.array_equal(H[n], critical._hessian(one, M, Q, own[1], critical._normals(M, Q))[0])
        assert np.array_equal(mixed.at(which == 1).values(P[which == 1]), values[which == 1])

    def test_mixed_stack_rows_are_their_fields_search_rows(self, s3):
        # descent and Newton on a stack of several fields land every row
        # where the field's own stack lands it
        M, g = s3.manifold, s3.metric
        fields = tuple(field for field, _ in approximate_closed(s3.killing, 3, metric=g))
        starts = M.sample_points(np.random.default_rng(42), 24)
        which = np.repeat(np.arange(3), 16)
        mixed = critical._search_rows(critical._Energy(g, fields, which), M, starts)
        for j, field in enumerate(fields):
            own = critical._search_rows(critical._Energy(g, field), M, starts[8 * j : 8 * (j + 1)])
            assert np.array_equal(mixed[which == j], own)

    def test_single_point_field_is_wrapped(self, s3):
        A = np.zeros((4, 4))
        A[1, 0], A[0, 1] = 1.0, -1.0
        A[3, 2], A[2, 3] = SQRT2, -SQRT2
        plain = kg.find_critical_orbits(s3.metric, lambda p: A @ p, budget=16, seed=42)
        gallery = kg.find_critical_orbits(s3.metric, s3.killing, budget=16, seed=42)
        assert len(plain) == len(gallery) == 2
        for a, b in zip(plain, gallery):
            assert a.classification == b.classification
            assert a.f_value == pytest.approx(b.f_value, abs=1e-12)
            assert a.period == pytest.approx(b.period, abs=1e-6)

    def test_scalar_constraint_is_wrapped(self, s3):
        # a constraint written for one point, with finite-difference derivatives
        M = kg.ManifoldModel(
            ambient_dim=4,
            constraint=lambda p: float(p @ p) - 1.0,
            sampler=s3.manifold.sampler,
        )
        g = dataclasses.replace(s3.metric, manifold=M)
        orbits = kg.find_critical_orbits(g, s3.killing, budget=8, seed=42)
        assert [o.classification for o in orbits] == ["min", "max"]
        assert [o.f_value for o in orbits] == pytest.approx([-2.0, -1.0], abs=1e-9)

    def test_every_row_meets_the_certificate(self, s3, monkeypatch):
        stacks, calls, descending, projections = [], [], [False], [0]
        certificate, values, descend = critical.grad_f, critical._Energy.values, critical._descend
        project = kg.ManifoldModel.project_point

        def recording(g, K, p):
            grad = certificate(g, K, p)
            stacks.append(np.linalg.norm(grad, axis=-1))
            return grad

        def counting(self, P):
            calls.append((descending[0], len(P)))
            return values(self, P)

        def marking(*args):
            descending[0] = True
            try:
                return descend(*args)
            finally:
                descending[0] = False

        def projecting(self, p):
            projections[0] += descending[0]
            return project(self, p)

        monkeypatch.setattr(critical, "grad_f", recording)
        monkeypatch.setattr(critical._Energy, "values", counting)
        monkeypatch.setattr(critical, "_descend", marking)
        monkeypatch.setattr(kg.ManifoldModel, "project_point", projecting)
        kg.find_critical_orbits(s3.metric, s3.killing, budget=64, seed=42)
        # one certificate call on all 2·budget rows
        assert [np.shape(norms) for norms in stacks] == [(128,)]
        assert max(stacks[0]) <= 1e-9
        # a work guard, exact on every rounding path: the f evaluations are
        # the probe, one stencil call for all rows (2 points per tangent
        # direction) and one per Armijo block of descent, which projects
        # its starts and then each block's trial points; a stencil call
        # per row makes about 204
        assert [n for within, n in calls if not within] == [critical.PROBE_SAMPLES, 128 * 2 * 3]
        assert sum(within for within, _ in calls) == projections[0] - 1


def _descend_one_halving_at_a_time(core, M, P, sign):
    """The reference Armijo loop: one stacked evaluation per halving."""
    P = M.project_point(P)
    step = np.full(len(P), 0.1)
    live = np.arange(len(P))
    for _ in range(critical.DESCENT_MAX_ITER):
        if not len(live):
            break
        f, d = critical._descent_direction(core, M, P[live])
        d = sign[live, None] * d
        nd = np.linalg.norm(d, axis=1)
        moving = nd > critical.DESCENT_GRAD_STOP
        live, fp, d, nd = live[moving], sign[live][moving] * f[moving], d[moving], nd[moving]
        accepted = np.zeros(len(live), dtype=bool)
        trial = step[live]
        pending = np.arange(len(live))
        for _ in range(40):
            if not len(pending):
                break
            rows = live[pending]
            Q = M.project_point(P[rows] - trial[pending, None] * d[pending])
            t = trial[pending]
            ok = sign[rows] * core.values(Q) < fp[pending] - 1e-4 * t * nd[pending] * nd[pending]
            P[rows[ok]] = Q[ok]
            step[rows[ok]] = np.minimum(t[ok] * 1.5, 10.0)
            accepted[pending[ok]] = True
            pending = pending[~ok]
            trial[pending] *= 0.5
        live = live[accepted]
    return P


class TestStackedBacktracking:
    def test_matches_one_halving_at_a_time(self, s3, timelike_somewhere):
        sign = np.tile([1.0, -1.0], 64)
        for g, K in ((s3.metric, s3.killing), timelike_somewhere):
            core = critical._Energy(g, K)
            P = np.repeat(g.manifold.sample_points(np.random.default_rng(42), 64), 2, axis=0)
            stacked = critical._descend(core, g.manifold, P.copy(), sign)
            assert np.array_equal(stacked, _descend_one_halving_at_a_time(core, g.manifold, P.copy(), sign))

    def test_at_most_three_trial_evaluations_per_round(self, s3, monkeypatch):
        # calls in order: the direction of n rows, then the trials of the
        # m rows still moving; a row that is not in the next direction
        # failed all its trials and dropped out
        calls = []
        direction, values = critical._descent_direction, critical._Energy.values

        def recording_direction(core, M, P):
            calls.append(("direction", len(P)))
            return direction(core, M, P)

        def recording_values(self, P):
            calls.append(("values", len(P)))
            return values(self, P)

        monkeypatch.setattr(critical, "_descent_direction", recording_direction)
        monkeypatch.setattr(critical._Energy, "values", recording_values)
        M = s3.manifold
        starts = M.sample_points(np.random.default_rng(42), 64)
        critical._search_rows(critical._Energy(s3.metric, s3.killing), M, starts)
        rounds = [i for i, (kind, _) in enumerate(calls) if kind == "direction"] + [len(calls)]
        assert len(rounds) > 2
        dropped = 0
        for i, j in zip(rounds, rounds[1:]):
            trials = calls[i + 1 : j]
            assert all(kind == "values" for kind, _ in trials) and len(trials) <= 3
            if trials and j < len(calls):
                dropped += trials[0][1] - calls[j][1]
        assert dropped >= 1
        # a work guard: all 39 halvings of a failing row in one block make
        # about 43,000 points
        assert sum(n for kind, n in calls if kind == "values") <= 11_000


class TestProductsRoundAsThePoint:
    """``geometry.matvec`` and ``geometry.inner`` round every row of a
    stack as the one point, so the stacked record stage and the stacked
    norms give the one-point values bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_rows_are_the_one_point_products(self, d):
        rng = np.random.default_rng(d)
        A, x, y = rng.normal(size=(400, d, d)), rng.normal(size=(400, d)), rng.normal(size=(400, d))
        assert np.array_equal(geometry.matvec(A, x), np.array([a @ v for a, v in zip(A, x)]))
        assert np.array_equal(geometry.matvec(A[0], x), np.array([A[0] @ v for v in x]))
        assert np.array_equal(geometry.inner(x, y), np.array([v @ w for v, w in zip(x, y)]))
        assert np.array_equal(np.sqrt(geometry.inner(x, x)), np.array([np.linalg.norm(v) for v in x]))
        assert np.array_equal(geometry.matvec(A[0], x[0]), A[0] @ x[0])
        assert geometry.inner(x[0], y[0]) == x[0] @ y[0]

    def test_stacked_energy_is_the_pointwise_energy(self, all_entries, timelike_somewhere):
        cases = [(e.metric, e.killing) for e in all_entries] + [timelike_somewhere]
        for g, K in cases:
            P = g.manifold.sample_points(np.random.default_rng(6), 100)
            f = energy_terms(g.matrix(P), K(P))[1]
            assert np.array_equal(f, [kg.energy(g, K, p) for p in P])
