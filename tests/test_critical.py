import dataclasses
import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics import critical
from killing_geodesics.critical import _bordered_solve, classify_critical, grad_f
from killing_geodesics.errors import DegenerateCriticalPointError, SearchFailureError
from killing_geodesics.geometry import covariant_derivative
from killing_geodesics.killing import linear_field
from killing_geodesics.rational import approximate_closed

SQRT2 = math.sqrt(2.0)

C1 = np.array([1.0, 0.0, 0.0, 0.0])
C2 = np.array([0.0, 0.0, 1.0, 0.0])


class TestEnergy:
    def test_klein_constant(self, klein, rng):
        for _ in range(5):
            p = klein.manifold.sample_point(rng)
            assert kg.energy(klein.metric, klein.killing, p) == pytest.approx(-1.0, abs=1e-14)

    def test_sphere_values(self, s3):
        assert kg.energy(s3.metric, s3.killing, C1) == pytest.approx(-1.0, abs=1e-12)
        assert kg.energy(s3.metric, s3.killing, C2) == pytest.approx(-2.0, abs=1e-12)

    def test_sphere_closed_form(self, s3, rng):
        # oracle: f = -(|z|^2 + 2 |w|^2) on the unit sphere
        for _ in range(20):
            p = s3.manifold.sample_point(rng)
            expected = -(p[0] ** 2 + p[1] ** 2 + 2.0 * (p[2] ** 2 + p[3] ** 2))
            assert kg.energy(s3.metric, s3.killing, p) == pytest.approx(expected, abs=1e-12)

    def test_null_combination(self, flat_torus_null):
        assert kg.energy(flat_torus_null.metric, flat_torus_null.killing, np.array([0.5, 0.5])) == pytest.approx(0.0, abs=1e-14)


class TestGradient:
    def test_constant_energy_zero_gradient(self, klein, rng):
        p = klein.manifold.sample_point(rng)
        assert np.linalg.norm(grad_f(klein.metric, klein.killing, p)) <= 1e-10

    def test_zero_on_critical_circles(self, s3):
        assert np.linalg.norm(grad_f(s3.metric, s3.killing, C1)) <= 1e-8
        assert np.linalg.norm(grad_f(s3.metric, s3.killing, C2)) <= 1e-8

    def test_identity_with_covariant_derivative(self, all_entries, rng):
        # grad f = -2 ∇_K K, the pointwise form of the proof identity
        for entry in all_entries:
            K = entry.killing
            for _ in range(20):
                p = entry.manifold.sample_point(rng)
                lhs = grad_f(entry.metric, K, p)
                rhs = -2.0 * covariant_derivative(entry.metric, K.evaluator, K(p), p)
                assert np.linalg.norm(lhs - rhs) <= 1e-6

    def test_finite_difference_oracle(self, s3, rng):
        # independent FD route: Richardson-extrapolated directional
        # derivatives in a fresh tangent basis, then g-duality
        M, g, K = s3.manifold, s3.metric, s3.killing

        def f(p):
            v = K(p)
            return float(v @ (g.matrix(p) @ v))

        for _ in range(5):
            p = M.sample_point(rng)
            basis = M.tangent_basis(p)
            df = np.empty(len(basis))
            for i, b in enumerate(basis):
                h = 1e-4
                d1 = (f(p + h * b) - f(p - h * b)) / (2 * h)
                d2 = (f(p + h / 2 * b) - f(p - h / 2 * b)) / h
                df[i] = (4 * d2 - d1) / 3.0
            gram = np.array([[kg.metric_eval(g, p, bi, bj) for bj in basis] for bi in basis])
            oracle = np.linalg.solve(gram, df) @ basis
            assert np.linalg.norm(grad_f(g, K, p) - oracle) <= 1e-5


def _warped_torus():
    """The stationary T³ = R³/Z³ with dx² + dy² - φ dz², where
    φ = 3 + cos 2πx + cos 2πy, and K = ∂z, every line closing at period
    1.  On the orbit space T² the energy f = -φ has its minimum -5 at
    (0, 0), its maximum -1 at (½, ½) and two saddles, f = -3, at (0, ½)
    and (½, 0).  Metric and field are bare callables."""

    def metric(p):
        G = np.zeros(np.shape(p)[:-1] + (3, 3))
        G[..., 0, 0] = G[..., 1, 1] = 1.0
        G[..., 2, 2] = -(3.0 + np.cos(2 * math.pi * p[..., 0]) + np.cos(2 * math.pi * p[..., 1]))
        return G

    M = kg.ManifoldModel(
        ambient_dim=3,
        deck_generators=tuple(kg.make_deck_generator(i, np.eye(3), np.eye(3)[i]) for i in range(3)),
        fundamental_box=np.array([[0.0, 1.0]] * 3),
        quotient_distance_fn=lambda pts, q: np.linalg.norm((pts - q) - np.round(pts - q), axis=1),
    )
    g = kg.MetricField(M, metric, (2, 1))
    K = kg.certify_killing_field(g, lambda p: np.array([0.0, 0.0, 1.0]))
    assert K.max_residual == 0.0
    return g, K


class TestClassification:
    def test_warped_torus_saddles(self):
        g, K = _warped_torus()
        expected = {(0, 0.5): "saddle", (0.5, 0): "saddle", (0, 0): "min", (0.5, 0.5): "max"}
        assert {xy: classify_critical(g, K, np.array([*xy, 0.3]))[0] for xy in expected} == expected

    def test_sphere_extrema(self, s3):
        label1, eig1 = classify_critical(s3.metric, s3.killing, C1)
        label2, eig2 = classify_critical(s3.metric, s3.killing, C2)
        assert label1 == "max" and np.all(eig1 < 0)
        assert label2 == "min" and np.all(eig2 > 0)

    def test_constant_energy_degenerate(self, klein):
        with pytest.raises(DegenerateCriticalPointError):
            classify_critical(klein.metric, klein.killing, np.array([0.3, 0.4]))

    def test_noncritical_point_rejected(self, s3):
        with pytest.raises(ValueError):
            classify_critical(s3.metric, s3.killing, s3.probe_point)


class TestSearch:
    def test_sphere_two_orbits(self, s3):
        orbits = kg.find_critical_orbits(s3.metric, s3.killing, budget=32, seed=42)
        assert len(orbits) == 2
        lo, hi = orbits
        assert lo.f_value == pytest.approx(-2.0, abs=1e-6)
        assert hi.f_value == pytest.approx(-1.0, abs=1e-6)
        assert lo.classification == "min" and hi.classification == "max"
        assert lo.grad_norm <= 1e-7 and hi.grad_norm <= 1e-7
        assert lo.geodesic_residual <= 1e-5 and hi.geodesic_residual <= 1e-5
        assert lo.period == pytest.approx(math.pi * SQRT2, abs=1e-6)
        assert hi.period == pytest.approx(2 * math.pi, abs=1e-6)

    def test_descent_finds_only_the_extrema(self):
        # the warped torus's saddles, f = -3, are critical orbits too, but
        # descent on ±f ends at minima and maxima only
        g, K = _warped_torus()
        out = kg.find_critical_orbits(g, K, budget=64, seed=42)
        assert [o.f_value for o in out] == pytest.approx([-5.0, -1.0], abs=1e-9)
        assert [o.classification for o in out] == ["min", "max"]
        assert [o.period for o in out] == pytest.approx([1.0, 1.0], abs=1e-6)

    def test_orbits_geometrically_distinct(self, s3):
        orbits = kg.find_critical_orbits(s3.metric, s3.killing, budget=16, seed=3)
        a = kg.flow(s3.manifold, s3.killing, orbits[0].representative, orbits[0].period)
        b = kg.flow(s3.manifold, s3.killing, orbits[1].representative, orbits[1].period)
        assert kg.hausdorff_distance(s3.manifold, a, b) > 1e-3

    def test_klein_degenerate_constant(self, klein):
        orbits = kg.find_critical_orbits(klein.metric, klein.killing, seed=42)
        assert len(orbits) == 1
        assert orbits[0].classification == "degenerate_constant"
        assert orbits[0].f_value == pytest.approx(-1.0, abs=1e-12)
        assert orbits[0].geodesic_residual <= 1e-5

    def test_flat_torus_degenerate_constant(self, flat_torus):
        orbits = kg.find_critical_orbits(flat_torus.metric, flat_torus.killing, seed=42)
        assert len(orbits) == 1
        assert orbits[0].classification == "degenerate_constant"
        assert orbits[0].period == pytest.approx(1.0, abs=1e-6)

    def test_f_value_matches_representative(self, all_entries, timelike_somewhere):
        # the record stage takes f of all candidates in one stacked call,
        # which rounds every row as the one point: f is energy() bit for bit
        cases = [(e.metric, e.killing) for e in all_entries] + [timelike_somewhere]
        for g, K in cases:
            for o in kg.find_critical_orbits(g, K, budget=8, seed=0):
                assert o.f_value == kg.energy(g, K, o.representative)

    def test_record_stage_evaluates_the_metric_once(self, s3, monkeypatch):
        # between the certificate and the first period detection the search
        # evaluates g once, on the stack of every certified row
        g = s3.metric
        stage, shapes, certified = [False], [], []
        matrix, certificate, detect = kg.MetricField.matrix, critical.grad_f, critical.detect_period

        def counted_matrix(self, p):
            if self is g and stage[0]:
                shapes.append(np.shape(p))
            return matrix(self, p)

        def counted_certificate(*args):
            grad = certificate(*args)
            certified.append(int(np.sum(np.linalg.norm(grad, axis=1) <= critical.GRAD_TOL)))
            stage[0] = True
            return grad

        def first_detect(*args):
            stage[0] = False
            return detect(*args)

        monkeypatch.setattr(kg.MetricField, "matrix", counted_matrix)
        monkeypatch.setattr(critical, "grad_f", counted_certificate)
        monkeypatch.setattr(critical, "detect_period", first_detect)
        orbits = kg.find_critical_orbits(g, s3.killing, budget=32, seed=42)
        assert len(orbits) == 2 and certified[0] > len(orbits)
        assert shapes == [(certified[0], 4)]

    def test_orbit_without_period(self, timelike_somewhere, monkeypatch):
        # the paper's weaker hypothesis: K = rot-z - √2 rot-w is timelike
        # only near the two circles for the metric built from rot-z + rot-w.
        # In s = |z|², f = 2 - s - 2((1 + √2) s - √2)², whose maximum is a
        # torus of lines of irrational slope: no line closes, so that
        # record has no period and its curve is flowed instead
        g, K = timelike_somewhere
        assert K.certified and g.role == "lorentzian"
        flows, energies = [], []
        monkeypatch.setattr(critical, "flow", lambda *args: flows.append(args) or kg.flow(*args))
        direction = critical._descent_direction

        def recording(*args):
            f, d = direction(*args)
            energies.append(f)
            return f, d

        monkeypatch.setattr(critical, "_descent_direction", recording)
        out = kg.find_critical_orbits(g, K, budget=64, seed=42)
        # the first descent round runs both branches of the direction:
        # the g_R solve where K is timelike, the Euclidean one elsewhere
        assert np.any(energies[0] < -1e-10) and np.any(energies[0] >= -1e-10)
        s_max = (SQRT2 - 0.25 / (1.0 + SQRT2)) / (1.0 + SQRT2)
        f_max = 2.0 - s_max - 0.125 / (1.0 + SQRT2) ** 2
        assert [o.f_value for o in out] == pytest.approx([-2.0, -1.0, f_max], abs=1e-9)
        assert [o.classification for o in out] == ["min", "min", "degenerate"]
        assert out[0].period == pytest.approx(2 * math.pi / SQRT2, abs=1e-6)
        assert out[1].period == pytest.approx(2 * math.pi, abs=1e-6)
        assert out[2].period is None
        assert len(flows) == 1
        assert max(o.geodesic_residual for o in out) <= 1e-9

    def test_scale_sweep(self, timelike_somewhere):
        # K -> cK multiplies f by c², divides periods by c and changes
        # nothing else: the search runs on K/σ, σ a power of two near √max|f|,
        # so for c = 2^j the records are the c = 1 records, scaled exactly
        g, K = timelike_somewhere

        def search(c):
            cK = kg.certify_killing_field(g, linear_field(c * K.linear, basis=K.basis))
            return kg.find_critical_orbits(g, cK, horizon=50.0 / c)

        unit = search(1.0)
        s_max = (SQRT2 - 0.25 / (1.0 + SQRT2)) / (1.0 + SQRT2)
        f_max = 2.0 - s_max - 0.125 / (1.0 + SQRT2) ** 2
        for c in (1e-3, 0.01, 0.1, 3.0, 7.3, 10.0, 100.0, 1000.0):
            out = search(c)
            assert [o.classification for o in out] == ["min", "min", "degenerate"], c
            assert [o.f_value / c**2 for o in out] == pytest.approx([-2.0, -1.0, f_max], abs=1e-9)
            assert out[0].period * c == pytest.approx(2 * math.pi / SQRT2, abs=1e-6)
            assert out[1].period * c == pytest.approx(2 * math.pi, abs=1e-6)
            assert out[2].period is None
        for j in (-10, -6, 3, 20):
            out = search(2.0**j)
            assert len(out) == len(unit)
            for o, u in zip(out, unit):
                assert o.classification == u.classification
                assert o.f_value == u.f_value * 4.0**j
                assert o.period == (None if u.period is None else u.period / 2.0**j)
                assert np.array_equal(o.representative, u.representative)

    def test_failure_states_the_smallest_norm(self, s3, monkeypatch):
        # with a tolerance no norm can meet, no row passes; the error says
        # how near the rows of the one start (descent on f and on -f) came
        monkeypatch.setattr(critical, "GRAD_TOL", -1.0)
        core = critical._Energy(s3.metric, s3.killing)
        samples = s3.manifold.sample_points(np.random.default_rng(42), critical.PROBE_SAMPLES)
        rows = critical._search_rows(core, s3.manifold, samples[[np.argmin(core.values(samples))]])
        smallest = np.linalg.norm(grad_f(s3.metric, s3.killing, rows), axis=1).min()
        with pytest.raises(SearchFailureError) as info:
            kg.find_critical_orbits(s3.metric, s3.killing, budget=1, seed=42)
        assert str(info.value) == (
            f"no start converged to a critical point of {s3.killing.label!r}: 0 of 2 rows certified, "
            f"smallest gradient norm {smallest:.3e} against GRAD_TOL = -1.0e+00"
        )

    def test_negative_seed(self, s3):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            kg.find_critical_orbits(s3.metric, s3.killing, budget=1, seed=-1)

    def test_determinism(self, s3):
        a = kg.find_critical_orbits(s3.metric, s3.killing, budget=12, seed=9)
        b = kg.find_critical_orbits(s3.metric, s3.killing, budget=12, seed=9)
        assert len(a) == len(b)
        for oa, ob in zip(a, b):
            assert oa.f_value == ob.f_value
            assert np.array_equal(oa.representative, ob.representative)
            assert oa.period == ob.period


def _assert_same_records(got, want):
    # every field of every record, exactly
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(critical.CriticalOrbit):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, field.name


def _counting_stacks(monkeypatch):
    stacks = []
    search_rows = critical._search_rows

    def counted(core, M, starts):
        stacks.append(len(starts))
        return search_rows(core, M, starts)

    monkeypatch.setattr(critical, "_search_rows", counted)
    return stacks


class TestManyFields:
    """``find_critical_orbits_many`` searches every field in one lockstep
    stack, and each field's records are those of its own search."""

    @pytest.mark.parametrize("seed", [42, 9101])
    def test_approximants_are_their_own_searches(self, s3, seed, monkeypatch):
        approximants = approximate_closed(s3.killing, 5, metric=s3.metric)
        fields = [field for field, _ in approximants]
        horizons = [s3.angle_period * (frac.denominator + 1) for _, frac in approximants]
        stacks = _counting_stacks(monkeypatch)
        many = kg.find_critical_orbits_many(s3.metric, fields, 24, seed, horizons)
        assert stacks == [5 * 24]
        assert len(many) == 5
        for field, horizon, records in zip(fields, horizons, many):
            one = kg.find_critical_orbits(s3.metric, field, budget=24, seed=seed, horizon=horizon)
            _assert_same_records(records, one)

    def test_mixed_fields_are_their_own_searches(self, s3, timelike_somewhere, monkeypatch):
        # a closed approximant, the reflecting field (f constant, so no
        # rows) and the weaker hypothesis's K at three scales, whose σ differ
        g, K = timelike_somewhere
        scaled = [kg.certify_killing_field(g, linear_field(c * K.linear, basis=K.basis)) for c in (1.0, 3.0, 32.0)]
        fields = [approximate_closed(s3.killing, 2, metric=s3.metric)[1][0], kg.combine_family(s3.family, (1.0, 1.0))]
        fields += scaled
        horizons = [3.0 * s3.angle_period, 2.0 * s3.angle_period, 50.0, 50.0 / 3.0, 50.0 / 32.0]
        samples = g.manifold.sample_points(np.random.default_rng(42), critical.PROBE_SAMPLES)
        sigmas = [critical._scale(float(np.max(np.abs(critical._Energy(g, F).values(samples))))) for F in scaled]
        assert len(set(sigmas)) == 3
        stacks = _counting_stacks(monkeypatch)
        many = kg.find_critical_orbits_many(g, fields, 16, 42, horizons)
        assert stacks == [4 * 16]
        assert [o.classification for o in many[1]] == ["degenerate_constant"]
        assert [o.classification for o in many[2]] == ["min", "min", "degenerate"]
        for field, horizon, records in zip(fields, horizons, many):
            _assert_same_records(records, kg.find_critical_orbits(g, field, budget=16, seed=42, horizon=horizon))

    def test_failure_names_the_first_failing_field(self, s3, monkeypatch):
        # the second and third fields certify no row: the error is the second's
        fields = [field for field, _ in approximate_closed(s3.killing, 3, metric=s3.metric)]
        failing = {fields[1].label, fields[2].label}
        certificate = critical.grad_f

        def spoiled(g, K, p):
            grad = certificate(g, K, p)
            return grad + 1.0 if K.label in failing else grad

        monkeypatch.setattr(critical, "grad_f", spoiled)
        with pytest.raises(SearchFailureError) as info:
            kg.find_critical_orbits_many(s3.metric, fields, 4, 42, [10.0] * 3)
        assert str(info.value).startswith(f"no start converged to a critical point of {fields[1].label!r}: 0 of 8 rows")

    def test_refuses_what_one_field_refuses(self, s3):
        fields = [s3.killing, s3.killing]
        with pytest.raises(ValueError, match="budget must be at least 1, got 0"):
            kg.find_critical_orbits_many(s3.metric, fields, 0, 42, [10.0, 10.0])
        with pytest.raises(ValueError, match="horizon must be finite and positive, got inf"):
            kg.find_critical_orbits_many(s3.metric, fields, 4, 42, [10.0, math.inf])
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            kg.find_critical_orbits_many(s3.metric, fields, 4, -1, [10.0, 10.0])
        with pytest.raises(ValueError, match="2 fields need as many horizons, got 1"):
            kg.find_critical_orbits_many(s3.metric, fields, 4, 42, [10.0])
        assert kg.find_critical_orbits_many(s3.metric, [], 4, 42, []) == []


def test_bordered_solve_singular_row():
    # a zero border makes its row's system singular: that row alone falls
    # back to least squares, and the others keep the batch solve
    A = np.broadcast_to(np.diag([2.0, 3.0, 4.0]), (3, 3, 3))
    border = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    rhs = np.tile([1.0, 2.0, 3.0], (3, 1))
    x = _bordered_solve(A, [border], rhs)
    regular = [0, 2]
    np.testing.assert_array_equal(x[regular], _bordered_solve(A[regular], [border[regular]], rhs[regular]))
    np.testing.assert_allclose(x[1], [0.5, 2.0 / 3.0, 0.75], rtol=1e-12)
