import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import killing_geodesics as kg
from killing_geodesics import geometry
from killing_geodesics.errors import OffManifoldError, SingularMetricError
from killing_geodesics.geometry import (
    apply_christoffel,
    christoffel,
    complement,
    metric_orthogonal_project,
)

from conftest import assert_draws_of_one, random_tangent

SQRT2 = math.sqrt(2.0)


def chart_2d():
    """A bare 2d coordinate patch (no deck group, no constraint)."""
    return kg.ManifoldModel(ambient_dim=2)


def minkowski_plane():
    M = chart_2d()
    G = np.diag([1.0, -1.0])
    return kg.MetricField(M, lambda p: G, (1, 1))


class TestMetricEval:
    def test_minkowski_diagonal(self):
        g = minkowski_plane()
        p = np.zeros(2)
        dt = np.array([0.0, 1.0])
        dx = np.array([1.0, 0.0])
        assert kg.metric_eval(g, p, dt, dt) == -1.0
        assert kg.metric_eval(g, p, dx, dt) == 0.0

    def test_round_sphere_restriction(self, s3):
        # ambient Euclidean inner product restricted to the tangent space
        M = s3.manifold
        round_g = kg.MetricField(M, lambda p: np.eye(4), (3, 0))
        p = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        assert kg.metric_eval(round_g, p, v, v) == pytest.approx(1.0, abs=1e-15)

    def test_exact_symmetry(self, s3, rng):
        g = s3.metric
        for _ in range(20):
            p = s3.manifold.sample_point(rng)
            v = random_tangent(s3.manifold, p, rng)
            w = random_tangent(s3.manifold, p, rng)
            assert kg.metric_eval(g, p, v, w) - kg.metric_eval(g, p, w, v) == 0.0

    def test_off_manifold_rejected(self, s3):
        p = np.array([1.1, 0.0, 0.0, 0.0])
        v = np.zeros(4)
        with pytest.raises(OffManifoldError):
            kg.metric_eval(s3.metric, p, v, v)

    def test_accepts_tangent_vector_objects(self, s3, rng):
        # tangent vectors are plain array-likes: a projected vector passed
        # as a list gives the same value as the ndarray it came from
        p = s3.manifold.sample_point(rng)
        raw = rng.normal(size=4)
        v = s3.manifold.tangent_project(p, list(raw))
        grad = s3.manifold.constraint_grad(p)
        assert abs(grad @ v) <= 1e-10
        a = kg.metric_eval(s3.metric, p, list(v), tuple(v))
        b = kg.metric_eval(s3.metric, p, v, v)
        assert a == b


class TestChristoffel:
    def test_flat_metric_vanishes(self, flat_torus):
        gamma = christoffel(flat_torus.metric, np.array([0.3, 0.7]))
        assert np.abs(gamma).max() == 0.0

    def test_sphere_chart_closed_form(self):
        # oracle: on the round 2-sphere chart (theta, phi) with
        # g = diag(1, sin^2 theta) the nonzero coefficients are
        # Gamma^theta_{phi phi} = -sin(theta) cos(theta) and
        # Gamma^phi_{theta phi} = cot(theta).
        M = chart_2d()
        g = kg.MetricField(
            M, lambda p: np.diag([1.0, math.sin(p[0]) ** 2]), (2, 0)
        )
        for theta in (1.0, math.pi / 2):
            p = np.array([theta, 0.4])
            expected = np.zeros((2, 2, 2))
            expected[0, 1, 1] = -math.sin(theta) * math.cos(theta)
            expected[1, 0, 1] = expected[1, 1, 0] = math.cos(theta) / math.sin(theta)
            gamma = christoffel(g, p)
            assert np.abs(gamma - expected).max() <= 1e-6

    def test_equator_values_vanish(self):
        M = chart_2d()
        g = kg.MetricField(
            M, lambda p: np.diag([1.0, math.sin(p[0]) ** 2]), (2, 0)
        )
        gamma = christoffel(g, np.array([math.pi / 2, 0.0]))
        assert abs(gamma[0, 1, 1]) <= 1e-7
        assert abs(gamma[1, 0, 1]) <= 1e-7

    def test_torsion_free(self, s3, rng):
        p = s3.manifold.sample_point(rng)
        gamma = christoffel(dataclasses.replace(s3.metric, jacobian=None), p)
        assert np.abs(gamma - np.transpose(gamma, (0, 2, 1))).max() <= 1e-9

    def test_fd_matches_analytic_jacobian(self, s3, rng):
        for _ in range(5):
            p = s3.manifold.sample_point(rng)
            g_fd = christoffel(dataclasses.replace(s3.metric, jacobian=None), p)
            g_an = christoffel(s3.metric, p)
            assert np.abs(g_fd - g_an).max() <= 1e-6

    def test_metric_compatibility(self, s3, rng):
        # FD derivative of g_ij must equal the Gamma expansion
        # d_k g_ij = Gamma^l_{ki} g_lj + Gamma^l_{kj} g_il
        p = s3.manifold.sample_point(rng)
        G = s3.metric.matrix(p)
        d = s3.metric.jacobian(p)
        gamma = christoffel(s3.metric, p)
        expansion = np.einsum("lki,lj->kij", gamma, G) + np.einsum("lkj,il->kij", gamma, G)
        assert np.abs(d - expansion).max() <= 1e-6

    def test_degenerate_metric_raises(self):
        M = chart_2d()
        g = kg.MetricField(M, lambda p: np.diag([1.0, 0.0]), (1, 0))
        with pytest.raises(SingularMetricError):
            christoffel(g, np.zeros(2))


class TestStacks:
    """On an (N, d) stack, christoffel and metric_orthogonal_project give
    each row's single-point value.  The rows go through stacked LAPACK
    and einsum calls, whose rounding may differ from the single-point
    calls by a few ulps."""

    def _bumpy(self):
        # a metric written for one point: a stack takes the row loop
        return kg.MetricField(chart_2d(), lambda p: np.diag([1.0 + p[0] ** 2, 2.0 + math.sin(p[1])]), (2, 0))

    def test_christoffel_rows(self, s3, rng):
        P = s3.manifold.sample_points(rng, 9)
        cases = [(s3.metric, P), (dataclasses.replace(s3.metric, jacobian=None), P), (self._bumpy(), rng.normal(size=(7, 2)))]
        for g, Q in cases:
            rows = np.array([christoffel(g, q) for q in Q])
            assert np.abs(christoffel(g, Q) - rows).max() <= 1e-12 * np.abs(rows).max()

    def test_projection_rows(self, s3, rng):
        P = s3.manifold.sample_points(rng, 9)
        U = rng.normal(size=P.shape)
        rows = np.array([metric_orthogonal_project(s3.metric, p, u) for p, u in zip(P, U)])
        assert np.abs(metric_orthogonal_project(s3.metric, P, U) - rows).max() <= 1e-13

    def test_apply_christoffel_rows(self, s3, rng):
        P = s3.manifold.sample_points(rng, 5)
        V = rng.normal(size=P.shape)
        gamma = christoffel(s3.metric, P)
        rows = np.array([apply_christoffel(c, v, v) for c, v in zip(gamma, V)])
        assert np.abs(apply_christoffel(gamma, V, V) - rows).max() <= 1e-13

    def test_degenerate_row_raises(self):
        g = kg.MetricField(chart_2d(), lambda p: np.diag([1.0, p[0]]), (2, 0))
        with pytest.raises(SingularMetricError):
            christoffel(g, np.array([[1.0, 0.0], [0.5, 0.3], [0.0, 0.2]]))


EPS = np.finfo(float).eps
# entries far from under- and overflow, so that scaling by 2^±40 is exact
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-6, 10.0), st.floats(-10.0, -1e-6))


@st.composite
def _nonzero_stacks(draw):
    """An (N, d) stack of nonzero vectors, d in 2..8, whose rows are
    either generic or ±c e_k."""
    d = draw(st.integers(2, 8))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            n = np.zeros(d)
            n[draw(st.integers(0, d - 1))] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-6, 1e6))
        else:
            n = np.array(draw(st.lists(_ENTRY, min_size=d, max_size=d)))
        assume(np.any(n != 0.0))
        rows.append(n)
    return np.array(rows)


class TestComplement:
    """``complement(n)``: the rows of one Householder reflection, less the
    row of n's largest entry."""

    @settings(max_examples=60, deadline=None)
    @given(_nonzero_stacks())
    def test_rows_are_orthonormal_and_orthogonal_to_n(self, N):
        d = N.shape[1]
        for n in N:
            B = complement(n)
            assert B.shape == (d - 1, d)
            assert np.abs(B @ B.T - np.eye(d - 1)).max() <= 8 * EPS
            assert np.abs(B @ (n / np.linalg.norm(n))).max() <= 8 * EPS

    @settings(max_examples=60, deadline=None)
    @given(_nonzero_stacks())
    def test_a_row_of_a_stack_is_its_one_point_call(self, N):
        whole = complement(N)
        for n, b in zip(N, whole):
            assert np.array_equal(b, complement(n))

    @settings(max_examples=60, deadline=None)
    @given(_nonzero_stacks())
    def test_scaling_by_a_power_of_two_changes_nothing(self, N):
        B = complement(N)
        for j in [-40, -3, 5, 40]:
            for sign in [1.0, -1.0]:
                assert np.array_equal(complement(sign * 2.0**j * N), B)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_a_coordinate_direction_gives_the_identity_rows(self, d, data):
        k = data.draw(st.integers(0, d - 1))
        c = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(1e-6, 1e6))
        n = np.zeros(d)
        n[k] = c
        assert np.array_equal(complement(n), np.delete(np.eye(d), k, axis=0))


class TestCovariantDerivative:
    def test_constant_field_flat(self, flat_torus):
        X = lambda p: np.array([0.3, 0.7])
        out = kg.covariant_derivative(flat_torus.metric, X, np.array([1.0, 2.0]), np.array([0.1, 0.2]))
        assert np.abs(out).max() <= 1e-12

    def test_round_sphere_great_circle(self):
        # oracle: the unit-speed great-circle field (iz, iw) has ambient
        # acceleration -p, which is normal to the sphere, so the
        # covariant acceleration vanishes.
        M = kg.ManifoldModel(
            ambient_dim=4,
            constraint=lambda p: float(p @ p) - 1.0,
            constraint_grad=lambda p: 2.0 * p,
            constraint_hess=lambda p: 2.0 * np.eye(4),
            sampler=lambda rng, n: (lambda v: v / np.sqrt(np.vecdot(v, v))[:, None])(rng.normal(size=(n, 4))),
        )
        g = kg.MetricField(M, lambda p: np.eye(4), (3, 0))
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0], A[2, 3], A[3, 2] = -1.0, 1.0, -1.0, 1.0
        K = lambda p: A @ p
        p = np.array([1.0, 0.0, 0.0, 0.0])
        out = kg.covariant_derivative(g, K, K(p), p)
        assert np.linalg.norm(out) <= 1e-8

    def test_linearity_in_direction(self, s3, rng):
        p = s3.manifold.sample_point(rng)
        v = random_tangent(s3.manifold, p, rng)
        K = s3.killing.evaluator
        one = kg.covariant_derivative(s3.metric, K, v, p)
        two = kg.covariant_derivative(s3.metric, K, 2.0 * v, p)
        assert np.linalg.norm(two - 2.0 * one) <= 1e-8


class TestDeckGroup:
    def test_reduce_point_single_translation(self, klein):
        M = klein.manifold
        p = np.array([0.3, 0.0])
        q = np.array([1.3, 0.0])
        word = kg.reduce_point(M, p, q)
        assert word is not None
        assert np.linalg.norm(word.apply(p) - q) <= 1e-9
        assert word.word == ((0, 1),)

    def test_reduce_point_glide(self, klein):
        # the glide (x,t) -> (1-x, t+1) carries (0.3, 0) to (0.7, 1)
        M = klein.manifold
        p = np.array([0.3, 0.0])
        q = np.array([0.7, 1.0])
        word = kg.reduce_point(M, p, q)
        assert word is not None
        assert np.linalg.norm(word.apply(p) - q) <= 1e-9
        assert word.word == ((1, 1),)

    def test_reduce_point_identity(self, klein):
        p = np.array([0.3, 0.0])
        word = kg.reduce_point(klein.manifold, p, p)
        assert word is not None and word.word == ()

    def test_reduce_point_absent(self, klein):
        assert kg.reduce_point(klein.manifold, np.array([0.3, 0.0]), np.array([0.4, 0.3])) is None

    def test_reduce_to_fundamental_far_point(self, klein):
        M = klein.manifold
        p = np.array([5.3, 7.0])
        reduced, element = M.reduce_to_fundamental(p)
        assert np.linalg.norm(element.apply(p) - reduced) <= 1e-12
        assert np.all(reduced >= -1e-12) and np.all(reduced < 1.0 + 1e-12)
        assert M.quotient_distance(reduced, p) <= 1e-9

    def test_reduce_point_far_corner(self, t4):
        # reduction moves p by 7 along t; the reduced points are then a word
        # of length 4 apart: the whole ball is searched after reduction
        p = np.array([0.995, 0.995, 0.995, 7.995])
        q = np.full(4, 0.005)
        word = kg.reduce_point(t4.manifold, p, q, tol=0.03)
        assert word is not None
        assert np.linalg.norm(word.apply(p) - q) <= 0.03

    def test_deck_ball_built_once(self, monkeypatch):
        # each BFS level is built at most once per model, and reduce_point
        # builds none past the first level with a hit
        built = []
        bfs = geometry._bfs_levels

        def recording(*args):
            for n, level in enumerate(bfs(*args)):
                built.append(n)
                yield level

        monkeypatch.setattr(geometry, "_bfs_levels", recording)
        entry = kg.build_entry("klein-bottle")
        for p0 in ([0.3, 0.2], [0.0, 0.5], [0.3, 0.7]):
            assert kg.detect_period(entry.manifold, entry.killing, np.array(p0), 5.0) is not None
        assert 0 < len(built) < geometry.MAX_WORD_LEN + 1
        assert built == list(range(len(built)))
        assert len(entry.manifold.deck_ball.words) == 85  # word length <= MAX_WORD_LEN
        assert built == list(range(geometry.MAX_WORD_LEN + 1))

    @pytest.mark.parametrize("name", ["klein-bottle", "mapping-torus", "commuting-t4"])
    def test_reduce_point_matches_the_whole_ball(self, name):
        # the level-by-level search returns the element the search of the
        # whole ball in BFS order returns: the same word, matrix and offset
        M = kg.build_entry(name).manifold
        rng = np.random.default_rng(29)
        ball = M.deck_ball
        for _ in range(40):
            p = M.sample_point(rng)
            for k in rng.integers(len(M.deck_moves), size=rng.integers(0, 6)):
                p = M.deck_moves[k].apply(p)
            q = M.sample_point(rng) if rng.random() < 0.25 else p
            for k in rng.integers(len(M.deck_moves), size=rng.integers(0, 6)):
                q = M.deck_moves[k].apply(q)
            p_red, wp = M.reduce_to_fundamental(p)
            q_red, wq = M.reduce_to_fundamental(q)
            hits = np.flatnonzero(np.linalg.norm(ball.images(p_red) - q_red, axis=1) <= 0.03)
            found = kg.reduce_point(dataclasses.replace(M), p, q, tol=0.03)
            if not len(hits):
                assert found is None
                continue
            k = hits[0]
            whole = wq.inverse().compose(kg.DeckElement(ball.matrices[k], ball.offsets[k], ball.words[k])).compose(wp)
            assert found.word == whole.word
            assert np.array_equal(found.matrix, whole.matrix) and np.array_equal(found.offset, whole.offset)

    @pytest.mark.parametrize("name", ["flat_torus", "klein", "mapping_torus", "t4"])
    def test_quotient_distance_matches_word_search(self, name, request, rng):
        # each vectorized closed form must agree with the generic path, the
        # minimum over the deck ball after reduction
        M = request.getfixturevalue(name).manifold
        generic = dataclasses.replace(M, quotient_distance_fn=None)
        moves = M.deck_moves
        for _ in range(25):
            p = M.sample_point(rng)
            for k in rng.integers(len(moves), size=3):
                p = moves[k].apply(p)
            q = M.sample_point(rng)
            fast = M.quotient_distance(p, q)
            slow = generic.quotient_distance(p, q)
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_deck_generators_preserve_metric(self, all_entries, rng):
        for entry in all_entries:
            M, g = entry.manifold, entry.metric
            for gen in M.deck_generators:
                for _ in range(10):
                    p = M.sample_point(rng)
                    v = random_tangent(M, p, rng)
                    w = random_tangent(M, p, rng)
                    q = M.project_point(gen.apply(p))
                    lhs = kg.metric_eval(g, q, gen.apply_vector(v), gen.apply_vector(w))
                    rhs = kg.metric_eval(g, p, v, w)
                    assert abs(lhs - rhs) <= 1e-9

    def test_quotient_distance_is_one_lipschitz(self, all_entries, rng):
        # the return scan skips the times a curve cannot reach the dip ball
        # in, by the premise |d(p, q) - d(p', q)| <= |p - p'|; the curve is
        # read in covering coordinates and off the level set by rounding,
        # so the pairs are ambient points around deck images of samples
        for entry in all_entries:
            M = entry.manifold
            moves = M.deck_moves
            for _ in range(200):
                p = M.sample_point(rng)
                if moves:
                    for k in rng.integers(len(moves), size=3):
                        p = moves[k].apply(p)
                p = p + 1e-3 * rng.normal(size=M.ambient_dim)
                p2 = p + rng.choice([1e-6, 1e-3, 3e-2, 0.3]) * rng.normal(size=M.ambient_dim)
                q = M.sample_point(rng)
                gap = abs(M.quotient_distance(p, q) - M.quotient_distance(p2, q))
                assert gap <= np.linalg.norm(p - p2) * (1.0 + 1e-12) + 1e-15, entry.name

    @pytest.mark.parametrize("matrix", [[[1.0, 1e-6], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]], ids=["shear", "scale"])
    def test_deck_generator_must_be_an_isometry(self, matrix):
        # a deck element that is no Euclidean isometry would break the
        # scan's premise that the quotient distance is 1-Lipschitz
        with pytest.raises(ValueError, match="isometry"):
            kg.ManifoldModel(ambient_dim=2, deck_generators=(kg.make_deck_generator(0, matrix, [1.0, 0.0]),))
        near = np.array([[1.0, 1e-13], [0.0, 1.0]])
        kg.ManifoldModel(ambient_dim=2, deck_generators=(kg.make_deck_generator(0, near, [1.0, 0.0]),))

    def test_word_simplification(self, klein):
        a = klein.manifold.deck_generators[0]
        prod = a.compose(a.inverse())
        assert prod.word == ()
        assert prod.is_identity()


def _unit_sphere_in_a_box():
    # every row of the box [1/2, 1]³ projects onto |p| = 1 at its first draw
    return kg.ManifoldModel(
        ambient_dim=3,
        constraint=lambda p: np.sum(p * p, axis=-1) - 1.0,
        fundamental_box=np.array([[0.5, 1.0]] * 3),
    )


def _unit_box(constraint):
    # the gradient e₀ keeps each projection finite, whether it lands or not
    return kg.ManifoldModel(
        ambient_dim=3,
        constraint=constraint,
        constraint_grad=lambda p: np.broadcast_to(np.eye(3)[0], np.shape(p)),
        fundamental_box=np.array([[0.0, 1.0]] * 3),
    )


def _half_reachable(p):
    # x₀ - 3/4 where x₀ > 1/2, which one Newton step solves; 1 where x₀ <= 1/2,
    # and there each step moves x₀ further from the level set
    return np.where(p[..., 0] > 0.5, p[..., 0] - 0.75, 1.0)


class _CountingRng:
    """A generator that keeps every uniform draw it hands out."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def uniform(self, low, high, size=None):
        self.draws.append(self.rng.uniform(low, high, size=size))
        return self.draws[-1]


class TestSampling:
    def test_a_stack_is_its_points_drawn_in_turn(self, all_entries):
        for entry in all_entries:
            assert_draws_of_one(entry.manifold)
        assert_draws_of_one(_unit_sphere_in_a_box())

    def test_sphere_rows_are_the_one_point_quotient(self, s3, mapping_torus):
        # the reference: one normal draw per point, divided by np.linalg.norm
        def unit(rng, dim):
            v = rng.normal(size=dim)
            return v / np.linalg.norm(v)

        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        P = s3.manifold.sample_points(rng, 500)
        assert P.tobytes() == np.array([unit(ref, 4) for _ in range(500)]).tobytes()
        P = mapping_torus.manifold.sample_points(rng, 500)
        assert P.tobytes() == np.array([[*unit(ref, 3), ref.uniform(0.0, 1.0)] for _ in range(500)]).tobytes()

    def test_one_sampler_call_per_stack(self, all_entries):
        for M in (e.manifold for e in all_entries if e.manifold.sampler is not None):
            calls = []

            def counting(rng, n, _sampler=M.sampler):
                calls.append(n)
                return _sampler(rng, n)

            dataclasses.replace(M, sampler=counting).sample_points(np.random.default_rng(1), 64)
            assert calls == [64]

    def test_one_uniform_call_on_the_open_box(self, all_entries):
        boxes = [e.manifold for e in all_entries if e.manifold.sampler is None]
        assert boxes
        for M in boxes:
            rng = _CountingRng(1)
            P = M.sample_points(rng, 64)
            assert len(rng.draws) == 1 and np.array_equal(P, rng.draws[0])

    def test_only_the_rows_off_the_level_set_are_redrawn(self):
        M = _unit_box(_half_reachable)
        rng = _CountingRng(8)
        P = M.sample_points(rng, 40)
        assert np.abs(M.constraint(P)).max() <= geometry.CONSTRAINT_TOL
        first, *redraws = rng.draws
        assert first.shape == (40, 3) and redraws
        expect, todo = first.copy(), np.flatnonzero(first[:, 0] <= 0.5)
        assert 0 < todo.size < 40
        for draw in redraws:
            assert draw.shape == (todo.size, 3)
            expect[todo] = draw
            todo = todo[draw[:, 0] <= 0.5]
        assert todo.size == 0
        # the projection moves x₀ alone
        assert np.array_equal(P[:, 1:], expect[:, 1:])
        np.testing.assert_allclose(P[:, 0], 0.75, atol=1e-15)

    def test_a_stack_that_never_projects_fails(self):
        M = _unit_box(lambda p: 1.0 + 0.0 * p[..., 0])
        rng = _CountingRng(6)
        with pytest.raises(RuntimeError, match="sampling failed"):
            M.sample_points(rng, 5)
        assert [d.shape for d in rng.draws] == [(5, 3)] * 100

    def test_sample_counts(self, all_entries):
        for M in [e.manifold for e in all_entries] + [_unit_sphere_in_a_box()]:
            with pytest.raises(ValueError, match="sample count must be non-negative, got -3"):
                M.sample_points(np.random.default_rng(0), -3)
            assert M.sample_points(np.random.default_rng(0), 0).shape == (0, M.ambient_dim)


class TestManifoldInvariants:
    def test_dimension_floor(self):
        with pytest.raises(ValueError):
            kg.ManifoldModel(ambient_dim=1)

    def test_tangent_projection_invariant(self, s3, rng):
        M = s3.manifold
        for _ in range(20):
            p = M.sample_point(rng)
            v = M.tangent_project(p, rng.normal(size=4))
            assert abs(M.constraint_grad(p) @ v) <= 1e-10

    def test_signature_check(self, all_entries, rng):
        from killing_geodesics.geometry import signature_of_gram, tangent_gram

        for entry in all_entries:
            for _ in range(10):
                p = entry.manifold.sample_point(rng)
                assert signature_of_gram(tangent_gram(entry.metric, p)) == tuple(entry.metric.signature)

    def test_apply_christoffel_contraction(self, s3, rng):
        p = s3.manifold.sample_point(rng)
        gamma = christoffel(s3.metric, p)
        v = rng.normal(size=4)
        expected = np.array([v @ gamma[k] @ v for k in range(4)])
        assert np.allclose(apply_christoffel(gamma, v, v), expected)

    def test_sample_point_projects_the_box(self):
        # no sampler: a uniform point of the box, projected onto c = 0
        M = _unit_sphere_in_a_box()
        rng = np.random.default_rng(6)
        for p in M.sample_points(rng, 10):
            assert M.constraint_residual(p) <= geometry.CONSTRAINT_TOL

    def test_sample_point_gives_up_on_an_empty_level_set(self):
        # c = 1 never vanishes; its gradient e₀ keeps each projection finite
        M = kg.ManifoldModel(
            ambient_dim=3,
            constraint=lambda p: 1.0 + 0.0 * p[..., 0],
            constraint_grad=lambda p: np.broadcast_to(np.eye(3)[0], np.shape(p)),
            fundamental_box=np.array([[0.0, 1.0]] * 3),
        )
        rng, tries = np.random.default_rng(6), np.random.default_rng(6)
        with pytest.raises(RuntimeError, match="sampling failed"):
            M.sample_point(rng)
        for _ in range(100):
            tries.uniform(M.fundamental_box[:, 0], M.fundamental_box[:, 1])
        assert rng.uniform() == tries.uniform()

    def test_an_empty_stack_is_on_the_manifold(self, all_entries):
        for entry in all_entries:
            M = entry.manifold
            empty = np.zeros((0, M.ambient_dim))
            assert M.constraint_residual(empty) == 0.0
            M.check_on_manifold(empty)
        # a stack with a row off the manifold still raises
        s3 = all_entries[2].manifold
        with pytest.raises(OffManifoldError):
            s3.check_on_manifold(np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))
