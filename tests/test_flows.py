import cmath
import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics import flows
from killing_geodesics.errors import SingularMetricError, StiffnessError
from killing_geodesics.geometry import apply_christoffel, christoffel, metric_orthogonal_project
from killing_geodesics.integrate import solve_dop853, solve_rk45
from killing_geodesics.killing import linear_field

SQRT2 = math.sqrt(2.0)
STEPPERS = (solve_rk45, solve_dop853)
STEPPER_IDS = [solve.__name__ for solve in STEPPERS]
ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def _benchmark_oracle():
    """The benchmark's oracle module, which parses step collapses."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = oracle  # its dataclasses look their module up
    spec.loader.exec_module(oracle)
    return oracle


def s3_closed_form_flow(p0, s, alpha):
    """Oracle: the torus action moves (z, w) to (e^{is} z, e^{i alpha s} w)."""
    z = complex(p0[0], p0[1]) * cmath.exp(1j * s)
    w = complex(p0[2], p0[3]) * cmath.exp(1j * alpha * s)
    return np.array([z.real, z.imag, w.real, w.imag])


def spy_refinements(monkeypatch):
    """Record, per ``_refine_return``, the times of its scalar evaluations
    of the curve, in order; its stacked evaluation of the bracket grid is
    not one of them."""
    refinements = []
    refine = flows._ReturnScan._refine_return

    def spy(self, window, s_best, end):
        times = []
        refinements.append(times)

        def counted(a, b):
            curve = window(a, b)

            def call(s):
                if np.ndim(s) == 0:
                    times.append(float(s))
                return curve(s)

            return call

        return refine(self, counted, s_best, end)

    monkeypatch.setattr(flows._ReturnScan, "_refine_return", spy)
    return refinements


class TestFlow:
    def test_klein_unit_time(self, klein):
        M = klein.manifold
        p0 = np.array([0.3, 0.0])
        curve = kg.flow(M, klein.killing, p0, 1.0)
        end = curve.points[-1]
        assert np.allclose(end, [0.3, 1.0], atol=1e-9)
        # after deck reduction the endpoint is the glide image (0.7, 0)
        assert M.quotient_distance(end, np.array([0.7, 0.0])) <= 1e-9
        assert kg.reduce_point(M, end, np.array([0.7, 0.0])) is not None

    def test_sphere_flow_matches_closed_form(self, s3):
        p0 = np.array([0.6, 0.0, 0.8, 0.0])
        curve = kg.flow(s3.manifold, s3.killing, p0, 2 * math.pi)
        # dense output is Hermite-interpolated between accepted steps, so
        # mid-step queries carry a few 1e-8 of interpolation error
        for s in (0.5, 1.7, 4.4, 2 * math.pi):
            expected = s3_closed_form_flow(p0, s, SQRT2)
            assert np.linalg.norm(curve.position_at(s) - expected) <= 1e-6
        end = s3_closed_form_flow(p0, curve.t_end, SQRT2)
        assert np.linalg.norm(curve.points[-1] - end) <= 1e-8

    def test_c1_closes(self, s3):
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        curve = kg.flow(s3.manifold, s3.killing, p0, 2 * math.pi)
        assert np.linalg.norm(curve.points[-1] - p0) <= 1e-6

    def test_zero_field_fixed_point(self, flat_torus):
        zero = lambda p: np.zeros(2)
        curve = kg.flow(flat_torus.manifold, zero, np.array([0.2, 0.2]), 3.0)
        assert np.abs(curve.points - np.array([0.2, 0.2])).max() == 0.0

    def test_energy_drift_recorded(self, s3):
        # a flow records no drift; g(K, K) at its knots stays constant
        curve = kg.flow(s3.manifold, s3.killing, s3.probe_point, 5.0)
        assert math.isnan(curve.energy_drift)
        f = np.array([kg.energy(s3.metric, s3.killing, p) for p in curve.points])
        assert np.abs(f - f[0]).max() <= 1e-7 * (1 + 5.0)

    def test_constraint_drift(self, s3):
        curve = kg.flow(s3.manifold, s3.killing, s3.probe_point, 20.0)
        assert curve.constraint_drift <= 1e-8

    @pytest.mark.parametrize("solve", STEPPERS, ids=STEPPER_IDS)
    def test_step_collapse_raises(self, solve):
        # y' = (1 + y²)² blows up at t = π/4; the benchmark's oracle reads
        # the step and the time off the message, and must not take this
        # collapse for rounding residue at the horizon
        blowup = lambda t, y: np.array([(1.0 + y[0] ** 2) ** 2, 0.0])
        with pytest.raises(StiffnessError) as info:
            solve(blowup, np.zeros(2), 2.0, tol=1e-10)
        oracle = _benchmark_oracle()
        match = oracle._COLLAPSE.search(str(info.value))
        assert match is not None
        assert float(match[2]) == pytest.approx(math.pi / 4, abs=1e-3)
        assert not oracle.raised(info.value).known_defect

    def test_negative_horizon_raises_on_both_kinds_of_run(self, s3, flat_torus):
        # stationary-s3's skew field runs in closed form, the flat torus's
        # is integrated; a closed-form run gave one point at s = -1
        for entry, p0 in ((s3, np.array([1.0, 0.0, 0.0, 0.0])), (flat_torus, np.array([0.1, 0.2]))):
            for run in (kg.flow, kg.detect_period):
                with pytest.raises(ValueError, match="integration horizon must be nonnegative, got -1.0"):
                    run(entry.manifold, entry.killing, p0, -1.0)

    def test_flow_passes_step_collapse_up(self, flat_torus):
        blowup = lambda p: np.array([(1.0 + p[0] ** 2) ** 2, 0.0])
        with pytest.raises(StiffnessError):
            kg.flow(flat_torus.manifold, blowup, np.zeros(2), 2.0)

    @pytest.mark.parametrize("solve", STEPPERS, ids=STEPPER_IDS)
    def test_rounding_residue_at_horizon_is_arrival(self, solve):
        # the last step leaves 4.4e-16 before t_end = 8/3, far below
        # MIN_STEP: that is rounding, not a collapsing step
        y0 = np.array([0.14792203578495655, 0.819626719119277])
        curve = solve(lambda t, y: np.array([0.0, 3.0]), y0, 8 / 3, tol=1e-10)
        assert curve.t_end == pytest.approx(8 / 3, abs=1e-12)
        assert curve.ys[-1] == pytest.approx([y0[0], y0[1] + 8.0], abs=1e-9)

    @pytest.mark.parametrize("solve", STEPPERS, ids=STEPPER_IDS)
    def test_zero_and_negative_horizons(self, solve):
        y0 = np.array([0.5, -1.0])
        curve = solve(lambda t, y: -y, y0, 0.0, tol=1e-10)
        assert curve.ts.tolist() == [0.0] and curve.t_end == 0.0
        assert np.array_equal(curve(0.0), y0) and np.array_equal(curve.fs[0], -y0)
        with pytest.raises(ValueError):
            solve(lambda t, y: -y, y0, -1.0, tol=1e-10)


class TestShootGeodesic:
    def test_flat_null_line_stays_straight(self, flat_torus_null):
        g = flat_torus_null.metric
        v0 = np.array([1.0, 1.0])
        curve = kg.shoot_geodesic(g, np.zeros(2), v0, 3.0)
        for s in (0.5, 1.5, 3.0):
            assert np.linalg.norm(curve.position_at(s) - s * v0) <= 1e-9
        assert curve.energy_drift <= 1e-12

    def test_round_sphere_great_circle(self):
        # oracle: c(s) = cos(s) p + sin(s) v for unit tangent v
        M = kg.ManifoldModel(
            ambient_dim=4,
            constraint=lambda p: float(p @ p) - 1.0,
            constraint_grad=lambda p: 2.0 * p,
            constraint_hess=lambda p: 2.0 * np.eye(4),
            sampler=lambda rng, n: (lambda v: v / np.sqrt(np.vecdot(v, v))[:, None])(rng.normal(size=(n, 4))),
        )
        zero_jac = np.zeros((4, 4, 4))
        g = kg.MetricField(M, lambda p: np.eye(4), (3, 0), jacobian=lambda p: zero_jac)
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        v0 = np.array([0.0, 1.0, 0.0, 0.0])
        curve = kg.shoot_geodesic(g, p0, v0, 2 * math.pi)
        for s in (1.0, math.pi, 5.0, 2 * math.pi):
            expected = math.cos(s) * p0 + math.sin(s) * v0
            assert np.linalg.norm(curve.position_at(s) - expected) <= 1e-6
        assert np.linalg.norm(curve.points[-1] - p0) <= 1e-6

    def test_zero_velocity_constant(self, s3):
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        curve = kg.shoot_geodesic(s3.metric, p0, np.zeros(4), 1.0)
        assert np.abs(curve.points - p0).max() <= 1e-12

    def test_energy_conservation_per_unit_time(self, s3):
        p0 = np.array([0.0, 0.0, 1.0, 0.0])
        T = math.pi * SQRT2
        curve = kg.shoot_geodesic(s3.metric, p0, s3.killing(p0), T)
        assert curve.energy_drift <= 1e-9 * (1 + T)

    def test_flow_geodesic_consistency(self, s3):
        # both realizations of the critical integral line must coincide
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        fl = kg.flow(s3.manifold, s3.killing, p0, 2 * math.pi)
        ge = kg.shoot_geodesic(s3.metric, p0, s3.killing(p0), 2 * math.pi)
        # the geodesic's continuous extension holds 4e-11 between its
        # sparse knots; cubic Hermite on them would miss by 1.6e-5
        for s in np.linspace(0.0, 2 * math.pi, 25):
            assert np.linalg.norm(fl.position_at(s) - ge.position_at(s)) <= 1e-8

    @pytest.mark.parametrize("c", [1.0, 30.0])
    @pytest.mark.parametrize("start", [0, 1])
    def test_scaled_field_over_its_period(self, s3, c, start):
        # the energy scales with c², and so does the bound on its drift
        K = kg.make_killing_field(s3.metric, lambda p: c * np.asarray(s3.killing.evaluator(p)))
        p0 = s3.exceptional_starts[start]
        cert = kg.detect_period(s3.manifold, K, p0, 8 * math.pi / c)
        curve = kg.shoot_geodesic(s3.metric, p0, K(p0), cert.period)
        assert curve.energy_drift <= 1e-9 * c * c
        assert curve.constraint_drift <= 1e-12
        assert kg.geodesic_residual(s3.metric, curve) <= flows.GEODESIC_TOL


def _rhs_case(request, name):
    """The metric of a right-hand-side case: stationary-s3 with its analytic
    jacobian and with finite differences, mapping-torus (a constant
    metric and a constraint) and flat-torus (a constant metric)."""
    if name == "s3-fd":
        return dataclasses.replace(request.getfixturevalue("s3").metric, jacobian=None)
    return request.getfixturevalue(name.replace("-", "_")).metric


class TestGeodesicRhs:
    """``geodesic_rhs`` solves the Euler-Lagrange form G a = ½ (vᵀ ∂_l G v)_l
    − (∂_v G) v + λ ∇c; the reference writes the same acceleration from
    the Christoffel symbols, −Γ(v, v) + λ G⁻¹∇c."""

    @staticmethod
    def reference(g, x, v):
        a = -apply_christoffel(christoffel(g, x), v, v)
        M = g.manifold
        if M.constraint is not None:
            grad = M.constraint_grad(x)
            ginv_grad = np.linalg.solve(g.matrix(x), grad)
            lam = -(grad @ a + v @ (M.constraint_hess(x) @ v)) / (grad @ ginv_grad)
            a = a + lam * ginv_grad
        return a

    @pytest.mark.parametrize("case", ["s3", "s3-fd", "mapping-torus", "flat-torus"])
    def test_matches_the_christoffel_form(self, request, case, rng):
        g = _rhs_case(request, case)
        M = g.manifold
        rhs = flows.geodesic_rhs(g)
        for _ in range(20):
            x = M.sample_point(rng)
            v = M.tangent_project(x, rng.normal(size=M.ambient_dim))
            v *= rng.uniform(0.0, 30.0) / np.linalg.norm(v)
            out = rhs(0.0, np.concatenate([x, v]))
            ref = self.reference(g, x, v)
            assert np.array_equal(out[: M.ambient_dim], v)
            assert np.linalg.norm(out[M.ambient_dim:] - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_one_metric_evaluation_per_call(self, s3, rng):
        calls = {"metric": 0, "jacobian": 0}

        def counting(name, fn):
            def evaluate(p):
                calls[name] += 1
                return fn(p)
            return evaluate

        g = dataclasses.replace(
            s3.metric,
            evaluator=counting("metric", s3.metric.evaluator),
            jacobian=counting("jacobian", s3.metric.jacobian),
        )
        rhs = flows.geodesic_rhs(g)
        x = s3.manifold.sample_point(rng)
        for n in range(1, 4):
            rhs(0.0, np.concatenate([x, s3.killing(x)]))
            assert calls == {"metric": n, "jacobian": n}

    def test_one_reflection_evaluation_per_call(self, s3, rng):
        # a reflected metric's G and ∂G come from one evaluation of its
        # base, the base's jacobian, the field and the field's jacobian
        calls = []

        def counting(name, fn):
            def evaluate(p):
                calls.append(name)
                return fn(p)
            return evaluate

        eye, zero = np.eye(4), np.zeros((4, 4, 4))
        base = kg.MetricField(s3.manifold, counting("B", lambda p: eye), (3, 0), jacobian=counting("dB", lambda p: zero))
        K = kg.KillingField(counting("K", s3.killing.evaluator), jacobian=counting("dK", s3.killing.jacobian))
        rhs = flows.geodesic_rhs(kg.riemann_to_lorentz(base, K))
        x = s3.manifold.sample_point(rng)
        for n in range(1, 4):
            rhs(0.0, np.concatenate([x, s3.killing(x)]))
            assert sorted(calls) == sorted(n * ["B", "dB", "K", "dK"])

    def test_degenerate_metric_raises(self):
        M = kg.ManifoldModel(ambient_dim=2)
        g = kg.MetricField(M, lambda p: np.diag([1.0, 0.0]), (1, 0))
        with pytest.raises(SingularMetricError):
            kg.shoot_geodesic(g, np.zeros(2), np.array([1.0, 0.0]), 1.0)


class TestGeodesicResidual:
    def test_critical_line_certifies(self, s3):
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        curve = kg.flow(s3.manifold, s3.killing, p0, 2 * math.pi)
        assert kg.geodesic_residual(s3.metric, curve) <= 1e-6

    def test_non_critical_line_fails(self, s3):
        # oracle: the covariant acceleration of a flow line is half the
        # energy gradient, whose Euclidean norm is flow-invariant
        p = s3.probe_point
        curve = kg.flow(s3.manifold, s3.killing, p, 2.0)
        resid = kg.geodesic_residual(s3.metric, curve)
        assert resid >= 0.1
        grad = kg.grad_f(s3.metric, s3.killing, p)
        assert resid == pytest.approx(0.5 * np.linalg.norm(grad), rel=1e-4)

    def test_straight_line_flat(self, flat_torus):
        curve = kg.flow(flat_torus.manifold, flat_torus.killing, np.array([0.3, 0.1]), 2.0)
        assert kg.geodesic_residual(flat_torus.metric, curve) <= 1e-12

    def test_stack_matches_the_knot_loop(self, s3, mapping_torus):
        # the residual evaluates the connection and the projection on the
        # stack of knots; the reference takes one knot at a time.  The
        # terms are O(1), so the two agree to a few ulps of 1.
        def loop(g, c):
            worst = 0.0
            for p, v, a in zip(c.points[1:-1], c.velocities[1:-1], c.accelerations[1:-1]):
                resid = a + apply_christoffel(christoffel(g, p), v, v)
                worst = max(worst, float(np.linalg.norm(metric_orthogonal_project(g, p, resid))))
            return worst

        pole = np.array([0.0, 0.0, 1.0, 0.0])
        cases = [
            (s3.metric, kg.flow(s3.manifold, s3.killing, np.array([1.0, 0.0, 0.0, 0.0]), 2 * math.pi)),
            (s3.metric, kg.flow(s3.manifold, s3.killing.evaluator, s3.probe_point, 2.0)),
            (s3.metric, kg.shoot_geodesic(s3.metric, s3.probe_point, s3.killing(s3.probe_point), 1.0)),
            (mapping_torus.metric, kg.flow(mapping_torus.manifold, mapping_torus.killing, pole, 1.0)),
        ]
        for g, curve in cases:
            assert abs(kg.geodesic_residual(g, curve) - loop(g, curve)) <= 1e-14


class TestDetectPeriod:
    def test_klein_exceptional_fibers(self, klein):
        # oracle (deck arithmetic): at x0 in {0, 1/2} the glide composed
        # with translations returns at t = 1; elsewhere only t = 2 works
        for x0 in (0.0, 0.5):
            cert = kg.detect_period(klein.manifold, klein.killing, np.array([x0, 0.0]), 10.0)
            assert cert is not None
            assert cert.period == pytest.approx(1.0, abs=1e-6)
            assert cert.position_gap <= 1e-6 and cert.velocity_gap <= 1e-6

    def test_klein_generic_fiber(self, klein):
        cert = kg.detect_period(klein.manifold, klein.killing, np.array([0.3, 0.0]), 10.0)
        assert cert is not None
        assert cert.period == pytest.approx(2.0, abs=1e-6)

    def test_minimal_period_consistency(self, klein):
        # no return strictly inside (0, s), and 2s is again a return
        M = klein.manifold
        p0 = np.array([0.3, 0.0])
        cert = kg.detect_period(M, klein.killing, p0, 10.0)
        s = cert.period
        curve = kg.flow(M, klein.killing, p0, 2.2 * s)
        inner = np.linspace(0.05, s - 0.05, 200)
        d_inner = M.quotient_distance(curve.position_at(inner), p0)
        assert d_inner.min() > 1e-3
        assert M.quotient_distance(curve.position_at(2 * s), p0) <= 1e-6

    def test_irrational_slope_never_returns(self, flat_torus_irrational):
        # Weyl oracle: |q*sqrt2 - round(q*sqrt2)| stays well above the
        # match tolerance for every q up to the horizon
        worst = min(
            abs(q * SQRT2 - round(q * SQRT2)) for q in range(1, 101)
        )
        assert worst > 2e-3
        M = flat_torus_irrational.manifold
        cert = kg.detect_period(M, flat_torus_irrational.killing, np.zeros(2), 100.0)
        assert cert is None

    def test_sphere_periods(self, s3):
        c1 = kg.detect_period(s3.manifold, s3.killing, np.array([1.0, 0.0, 0.0, 0.0]), 50.0)
        c2 = kg.detect_period(s3.manifold, s3.killing, np.array([0.0, 0.0, 1.0, 0.0]), 50.0)
        assert c1.period == pytest.approx(2 * math.pi, abs=1e-6)
        assert c2.period == pytest.approx(math.pi * SQRT2, abs=1e-6)

    def test_generic_sphere_orbit_open(self, s3):
        assert kg.detect_period(s3.manifold, s3.killing, s3.probe_point, 50.0) is None

    def test_fixed_point_returns_none(self, flat_torus):
        zero = lambda p: np.zeros(2)
        assert kg.detect_period(flat_torus.manifold, zero, np.array([0.1, 0.1]), 5.0) is None

    def test_start_never_left_returns_none(self, flat_torus, monkeypatch):
        # K / 1e4 moves 1e-4 over the horizon, inside the DIP_THRESHOLD
        # ball around the start: no dip is a candidate, none is refined
        monkeypatch.setattr(flows, "reduce_point", lambda *args, **kwargs: pytest.fail("a dip was refined"))
        slow = lambda p: 1e-4 * flat_torus.killing(p)
        assert kg.detect_period(flat_torus.manifold, slow, np.array([0.2, 0.35]), 1.0) is None

    def test_dip_without_deck_word_returns_none(self, klein, monkeypatch):
        # the torus distance on the Klein bottle reports a dip at s = 1,
        # where (0.3, 1) is no image of (0.3, 0): the deck group has no
        # word there, so that dip gives no period; the glide twice does
        lattice = lambda pts, q: np.linalg.norm((pts - q) - np.round(pts - q), axis=1)
        M = dataclasses.replace(klein.manifold, quotient_distance_fn=lattice)
        words = []

        def reduce_point(M, p, q, **kwargs):
            words.append(kg.reduce_point(M, p, q, **kwargs))
            return words[-1]

        monkeypatch.setattr(flows, "reduce_point", reduce_point)
        p0 = np.array([0.3, 0.0])
        assert kg.detect_period(M, klein.killing, p0, 1.5) is None
        assert words == [None]
        cert = kg.detect_period(M, klein.killing, p0, 2.5)
        assert cert is not None and cert.period == pytest.approx(2.0, abs=1e-6)
        assert words[1] is None and words[2] is cert.deck_word

    @pytest.mark.parametrize("x0", [0.0, 0.3, 0.75])
    def test_speed_varies_along_the_line(self, flat_torus, x0, monkeypatch):
        # oracle: K = (2 + sin 2πx)∂x closes after ∫₀¹ dx / (2 + sin 2πx) = 1/√3;
        # the speed grows past the first knots, so the scan step shrinks
        # and the scan starts again, and the crossing is not linear in s
        restarts = [0]
        restart = flows._ReturnScan._restart

        def counted(self):
            restarts[0] += 1
            restart(self)

        monkeypatch.setattr(flows._ReturnScan, "_restart", counted)

        def K(p):
            p = np.asarray(p, dtype=float)
            return np.stack([2.0 + np.sin(2 * np.pi * p[..., 0]), np.zeros_like(p[..., 0])], axis=-1)

        cert = kg.detect_period(flat_torus.manifold, K, np.array([x0, 0.35]), 3.0)
        assert cert is not None and cert.period == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-7)
        assert restarts[0] >= 3  # the first scan and at least two restarts

    def test_open_dip_at_horizon_has_no_bracket(self, flat_torus, monkeypatch):
        # K = ∂t closes at s = 1, and its dip opens at s = 0.99: a run to
        # 0.995 ends inside the dip.  At the step DIP_THRESHOLD / 4 =
        # 2.5e-3 the dip's last grid time is 0.9925, and the crossing s - 1
        # keeps its sign on the refinement window [0.98, 0.995], so no
        # grid value brackets a return; the same start certifies past s = 1
        refinements = spy_refinements(monkeypatch)
        words = []

        def reduce_point(M, p, q, **kwargs):
            words.append(kg.reduce_point(M, p, q, **kwargs))
            return words[-1]

        monkeypatch.setattr(flows, "reduce_point", reduce_point)
        p0 = np.array([0.2, 0.35])
        assert kg.detect_period(flat_torus.manifold, flat_torus.killing, p0, 0.995) is None
        # the dip has a deck word, and no Newton step follows its lookup
        assert len(words) == 1 and words[0] is not None
        assert refinements == [[pytest.approx(0.9925)]]
        cert = kg.detect_period(flat_torus.manifold, flat_torus.killing, p0, 1.005)
        assert cert is not None and cert.period == pytest.approx(1.0, abs=1e-6)

    def test_mapping_torus_pole(self, mapping_torus):
        pole = np.array([0.0, 0.0, 1.0, 0.0])
        cert = kg.detect_period(mapping_torus.manifold, mapping_torus.killing, pole, 10.0)
        assert cert is not None and cert.period == pytest.approx(1.0, abs=1e-6)

    def test_mapping_torus_equator_open(self, mapping_torus):
        # s = 22 brings the antipode to chordal 8.85e-3 < DIP_THRESHOLD: dip -> refine -> reject
        eq = np.array([1.0, 0.0, 0.0, 0.0])
        assert kg.detect_period(mapping_torus.manifold, mapping_torus.killing, eq, 50.0) is None


class TestStreamedScan:
    """detect_period scans while it integrates and stops at the first
    certified return; its answer must be that of a whole-horizon scan."""

    def test_period_independent_of_horizon(self, s3, klein, mapping_torus):
        cases = [
            (s3, np.array([1.0, 0.0, 0.0, 0.0])),
            (s3, np.array([0.0, 0.0, 1.0, 0.0])),
            (klein, np.array([0.3, 0.0])),
            (mapping_torus, np.array([0.0, 0.0, 1.0, 0.0])),
        ]
        for entry, p0 in cases:
            short = kg.detect_period(entry.manifold, entry.killing, p0, 50.0)
            long = kg.detect_period(entry.manifold, entry.killing, p0, 100.0)
            assert short is not None and long is not None
            assert (short.period, short.position_gap, short.velocity_gap) == (
                long.period, long.position_gap, long.velocity_gap
            )

    def test_window_matches_whole_curve(self, s3):
        # the scan and the refinement interpolate on knot windows of an
        # RK45 run (the S³ field as a bare callable has no closed form);
        # on its interval a window must give the whole curve's values bit
        # for bit
        dense = kg.flow(s3.manifold, s3.killing.evaluator, s3.probe_point, 10.0).dense
        ts, ys, fs = list(dense.ts), list(dense.ys), list(dense.fs)
        k = len(ts) // 2
        rng = np.random.default_rng(0)
        for a, b in [(ts[k], ts[k + 3]), (0.0, ts[2]), (ts[k] + 1e-3, ts[-1]), (2.0, 2.001), (9.9, 10.0)]:
            ss = np.concatenate([[a, b], rng.uniform(a, b, 50)])
            assert np.array_equal(flows._window(ts, ys, fs, a, b)(ss), dense(ss))

    def test_rejected_dip_then_certified_return(self, monkeypatch):
        # oracle: (z, w) -> (e^{is} z, e^{1.5is} w) sends w to -w at s = 2 pi,
        # a dip to 2w = 2e-3 < DIP_THRESHOLD that is no return; w comes
        # back at s = 4 pi.  The field as a bare callable is integrated and
        # scanned; the closed form's rates give 4 pi with no refinement
        entry = kg.build_entry("stationary-s3", alpha=1.5)
        w = 1e-3
        p0 = np.array([math.sqrt(1.0 - w * w), 0.0, w, 0.0])
        dip = s3_closed_form_flow(p0, 2 * math.pi, 1.5)
        assert np.linalg.norm(dip - p0) == pytest.approx(2 * w, rel=1e-9)
        assert 2 * w < flows.DIP_THRESHOLD
        refined = []

        def reduce_point(M, p, q, **kwargs):
            refined.append(np.array(p))
            return kg.reduce_point(M, p, q, **kwargs)

        monkeypatch.setattr(flows, "reduce_point", reduce_point)
        K = entry.killing
        cert = kg.detect_period(entry.manifold, lambda p: K(p), p0, 50.0)
        assert cert is not None and cert.period == pytest.approx(4 * math.pi, abs=1e-6)
        assert len(refined) == 2 and np.linalg.norm(refined[0] - dip) <= 1e-3
        exact = kg.detect_period(entry.manifold, K, p0, 50.0)
        assert exact.period == 4 * math.pi and len(refined) == 2

    def test_dip_waits_for_its_window(self, flat_torus, monkeypatch):
        # K = (1, 0.0098) passes about 0.0098 from p0 at s ≈ 1: a dip
        # below DIP_THRESHOLD on s within 2e-3 of 1 only.  The step
        # DIP_THRESHOLD / (4|v|) = 1 / (400|v|) puts one grid time in it,
        # index 400 at s = 1/|v|, and the dip closes at index 401, s ≈
        # 1.0025.  Knots up to 1.01 scan past the close but do not cover
        # the refinement window up to 1/|v| + 5 steps ≈ 1.0125, so the dip
        # waits; the next knots cover it and it is refined (and rejected) once
        M = flat_torus.manifold
        v = np.array([1.0, 0.0098])
        p0 = np.array([0.2, 0.35])
        speed = float(np.linalg.norm(v))
        ts = list(np.linspace(0.0, 1.01, 9))
        refined = []

        def reduce_point(M, p, q, **kwargs):
            refined.append(float(p[0]))
            return kg.reduce_point(M, p, q, **kwargs)

        monkeypatch.setattr(flows, "reduce_point", reduce_point)
        scan = flows._ReturnScan(M, lambda p: v, p0, v)

        def advance():
            return scan.advance(ts, [p0 + t * v for t in ts], [v for _ in ts])

        assert not advance()
        assert scan.step == flows.DIP_THRESHOLD / (4.0 * speed) and scan.pending == [400] and refined == []
        ts += list(np.linspace(1.1, 2.0, 8))
        assert not advance()
        assert scan.pending == [] and refined == [pytest.approx(p0[0] + 1.0 / speed)]

    def test_stops_at_first_return(self, s3):
        calls = [0]

        def counted(p):
            calls[0] += 1
            return s3.killing(p)

        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        kg.flow(s3.manifold, counted, p0, 50.0)
        whole = calls[0]
        calls[0] = 0
        cert = kg.detect_period(s3.manifold, counted, p0, 50.0)
        assert cert is not None and cert.period == pytest.approx(2 * math.pi, abs=1e-6)
        assert calls[0] < whole / 4


def _full_distances(scan, curve, ss):
    """The one-level scan: the quotient distance at every grid time."""
    return scan.M.quotient_distance(curve(ss), scan.p0)


def _scan_cases(entry):
    """(field, start, horizon) of one gallery entry: exceptional, probe and
    sampled starts; the field at scales 1 and 30, as a bare callable
    (integrated) and, when it is linear, in closed form."""
    starts = [*entry.exceptional_starts, entry.probe_point, *entry.manifold.sample_points(np.random.default_rng(9), 2)]
    for c in (1.0, 30.0):
        fields = [lambda p, c=c: c * entry.killing(p)]
        if entry.killing.linear is not None:
            fields.append(linear_field(c * entry.killing.linear))
        for K in fields:
            for p0 in starts:
                yield K, p0, 8.0 / c


def _scan_rows(monkeypatch):
    """A one-item list counting the rows the return scan passes to
    ``quotient_distance``: every point it evaluates, the knots of the
    knot level, the cell ends and the times inside cells."""
    rows, scanning = [0], [False]
    distance = kg.ManifoldModel.quotient_distance
    scan = flows._ReturnScan._scan

    def counted(self, points, q):
        if scanning[0]:
            rows[0] += len(np.atleast_2d(points))
        return distance(self, points, q)

    def flagged(self, window, count):
        scanning[0] = True
        try:
            scan(self, window, count)
        finally:
            scanning[0] = False

    monkeypatch.setattr(kg.ManifoldModel, "quotient_distance", counted)
    monkeypatch.setattr(flows._ReturnScan, "_scan", flagged)
    return rows


def _compare_with_the_full_scan(M, cases, monkeypatch):
    """Run ``detect_period`` on each (field, start, horizon) with the
    multi-level scan and with ``_full_distances``, and require the same
    answer bit for bit.  Each multi-level distance array must hold the
    one-level values where it is finite, and one-level values above
    DIP_THRESHOLD where it is +inf.  Counts (skipped times, grid times
    in a dip, certified returns, windows settled at the knot level: all
    +inf, since the cell level evaluates its cell ends)."""
    two_level = flows._ReturnScan._distances
    counts = [0, 0, 0, 0]

    def checked(scan, curve, ss):
        d = two_level(scan, curve, ss)
        ref = _full_distances(scan, curve, ss)
        kept = np.isfinite(d)
        assert np.array_equal(d[kept], ref[kept])
        assert np.all(ref[~kept] > flows.DIP_THRESHOLD)
        counts[0] += int(np.count_nonzero(~kept))
        counts[1] += int(np.count_nonzero(ref < flows.DIP_THRESHOLD))
        counts[3] += not kept.any()
        return d

    def answer(K, p0, horizon):
        cert = kg.detect_period(M, K, p0, horizon)
        if cert is None:
            return None
        word = cert.deck_word
        return (cert.period, cert.position_gap, cert.velocity_gap, word.word,
                word.matrix.tobytes(), word.offset.tobytes(), cert.curve.t_end)

    for K, p0, horizon in cases:
        monkeypatch.setattr(flows._ReturnScan, "_distances", checked)
        got = answer(K, p0, horizon)
        monkeypatch.setattr(flows._ReturnScan, "_distances", _full_distances)
        assert got == answer(K, p0, horizon)
        counts[2] += got is not None
    return counts


class TestTwoLevelScan:
    """The scan settles an integrated run's window at its knots first,
    then evaluates the quotient distance at the ends of coarse cells, and
    inside a cell only where the curve's travel bound lets it reach
    DIP_THRESHOLD; a skipped time reads as +inf.  Its answer is that of
    the one-level scan, ``_full_distances``, bit for bit."""

    @pytest.mark.parametrize("name", kg.ENTRY_NAMES)
    def test_detect_period_matches_the_full_scan(self, name, monkeypatch):
        entry = kg.build_entry(name)
        skipped, _, certified, settled = _compare_with_the_full_scan(entry.manifold, _scan_cases(entry), monkeypatch)
        assert skipped > 0 and certified > 0
        # the sphere's lines are integrated in short steps, and most of
        # their windows stay far from p0; a constant field's few long
        # steps never settle one
        if name == "stationary-s3":
            assert settled > 0

    def test_grazing_lines_match_the_full_scan(self, flat_torus_irrational, monkeypatch):
        # a line of irrational slope passes p0 at every distance: dips
        # narrower than a cell, whose cell ends both lie outside the ball,
        # are the ones a travel bound too small would skip
        K = flat_torus_irrational.killing
        starts = [np.zeros(2), *flat_torus_irrational.manifold.sample_points(np.random.default_rng(3), 2)]
        cases = [(lambda p, c=c: c * K(p), p0, 50.0 / c) for c in (1.0, 30.0) for p0 in starts]
        skipped, dipped, certified, _ = _compare_with_the_full_scan(flat_torus_irrational.manifold, cases, monkeypatch)
        assert skipped > 0 and dipped > 0 and certified == 0

    def test_grazing_sphere_lines_match_the_full_scan(self, s3, monkeypatch):
        # a line at distance e from a critical circle comes back within
        # about 1.9 e of its start after each turn, at the irrational ratio
        # sqrt 2, and is integrated in short steps: dips narrower than a
        # knot step, whose knots both lie outside the ball, are the ones a
        # knot-level bound too small would skip
        e = 0.004
        r = math.sqrt(1.0 - e * e)
        starts = [np.array([e, 0.0, r, 0.0]), np.array([r, 0.0, 0.0, e])]
        cases = [(lambda p, c=c: c * s3.killing(p), p0, 60.0 / c) for c in (1.0, 30.0) for p0 in starts]
        skipped, dipped, certified, settled = _compare_with_the_full_scan(s3.manifold, cases, monkeypatch)
        assert skipped > 0 and dipped > 0 and settled > 0 and certified == 0

    def test_subsets_evaluate_bit_for_bit(self, s3, all_entries):
        # a value the two-level scan computes equals the one-level value
        # only because each time and each point is evaluated on its own
        rng = np.random.default_rng(5)
        n = 1001

        def masks():
            return [rng.random(n) < 0.5, rng.random(n) < 0.05, np.arange(n) % 16 == 0, np.arange(n) == 7]

        ss = np.arange(n) * 9.7e-3
        integrated = kg.flow(s3.manifold, s3.killing.evaluator, s3.probe_point, 10.0).dense
        exact = kg.flow(s3.manifold, s3.killing, s3.probe_point, 10.0).dense
        assert isinstance(exact, flows.ExactCurve) and not isinstance(integrated, flows.ExactCurve)
        for curve in (integrated, exact):
            whole = curve(ss)
            for m in masks():
                assert np.array_equal(curve(ss[m]), whole[m])
        for entry in all_entries:
            M = entry.manifold
            pts = M.sample_points(rng, n) + 1e-3 * rng.normal(size=(n, M.ambient_dim))
            whole = M.quotient_distance(pts, entry.probe_point)
            for m in masks():
                assert np.array_equal(M.quotient_distance(pts[m], entry.probe_point), whole[m])

    # rows of the one-level scan at step min(1e-3, DIP_THRESHOLD/(4|v|)):
    # 25,133; 50,000; 262,263.  Of the scan with cells and no knot level
    # at that step: 1,738; 3,323; 17,963.  Of the knot-level scan at that
    # step: 954; 3,334; 18,070 (the knot rows of the constant fields' few
    # long steps settle nothing).  Of this scan, at DIP_THRESHOLD/(4|v|)
    # and on the chord bound: 920; 1,369; 7,245
    def test_open_sphere_line_scans_few_points(self, s3, monkeypatch):
        rows = _scan_rows(monkeypatch)
        assert kg.detect_period(s3.manifold, lambda p: s3.killing(p), s3.probe_point, 8.0 * math.pi) is None
        assert 0 < rows[0] <= 1_000

    def test_open_equator_scans_few_points(self, mapping_torus, monkeypatch):
        rows = _scan_rows(monkeypatch)
        eq = np.array([1.0, 0.0, 0.0, 0.0])
        assert kg.detect_period(mapping_torus.manifold, mapping_torus.killing, eq, 50.0) is None
        assert 0 < rows[0] <= 2_000

    def test_analyze_scans_few_points(self, mapping_torus, monkeypatch):
        rows = _scan_rows(monkeypatch)
        kg.analyze_entry(mapping_torus, seed=0)
        assert 0 < rows[0] <= 10_000


class TestRefineReturn:
    """Each return is refined by safeguarded Newton on the section
    crossing: a handful of scalar evaluations of the curve, ending on the
    adjacent floats where the crossing changes sign."""

    CASES = {
        "klein-generic": ("klein", np.array([0.3, 0.0]), 1.0, 2.0, False),
        "klein-generic-1e3": ("klein", np.array([0.3, 0.0]), 1e3, 2.0, False),
        "s3-circle": ("s3", np.array([1.0, 0.0, 0.0, 0.0]), 1.0, 2 * math.pi, False),
        "s3-circle-1e3": ("s3", np.array([1.0, 0.0, 0.0, 0.0]), 1e3, 2 * math.pi, False),
        # a closed-form run is scanned on a quotient only: on RP³
        "s3-circle-closed-form": ("s3", np.array([1.0, 0.0, 0.0, 0.0]), 1.0, math.pi, True),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_few_evaluations_and_no_cap(self, request, case, monkeypatch):
        name, p0, C, period, closed_form = self.CASES[case]
        entry = request.getfixturevalue(name)
        K = entry.killing if closed_form else (lambda p: C * entry.killing(p))
        M = request.getfixturevalue("rp3") if closed_form else entry.manifold
        refinements = spy_refinements(monkeypatch)
        cert = kg.detect_period(M, K, p0, 4.0 * period / C)
        assert cert is not None and cert.period == pytest.approx(period / C, abs=1e-6 / C)
        assert refinements
        for times in refinements:
            # the deck-word lookup, the Newton steps, the certificate point
            assert len(times) <= 12
            # the loop ended on a closed bracket, not at BISECTION_STEPS
            assert abs(times[-1] - times[-2]) <= math.ulp(times[-1])
        assert refinements[-1][-1] == cert.period


@pytest.mark.parametrize("C", [30.0, 1e3, 2e6, 1e7], ids=["30", "1e3", "2e6", "1e7"])
class TestRescaledPeriods:
    """K -> C K divides every period by C (time-rescaling invariance).
    The scan must not step over the first return, whose dip is only
    DIP_THRESHOLD / C wide in time; the velocity gap grows with C and the
    period shrinks below any fixed time, so neither may be judged on an
    absolute scale.  The tolerance is 1e-6 at C = 30 and scales with the
    period."""

    @staticmethod
    def _fast(K, C):
        return lambda p: C * K(p)

    def test_klein_generic_fiber(self, klein, C):
        cert = kg.detect_period(klein.manifold, self._fast(klein.killing, C), np.array([0.3, 0.0]), 8.0 / C)
        assert cert is not None and cert.period == pytest.approx(2.0 / C, abs=3e-5 / C)

    def test_flat_torus(self, flat_torus, C):
        cert = kg.detect_period(flat_torus.manifold, self._fast(flat_torus.killing, C), np.array([0.2, 0.35]), 4.0 / C)
        assert cert is not None and cert.period == pytest.approx(1.0 / C, abs=3e-5 / C)

    def test_sphere_circle_w0(self, s3, C):
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        cert = kg.detect_period(s3.manifold, self._fast(s3.killing, C), p0, 8.0 * math.pi / C)
        assert cert is not None and cert.period == pytest.approx(2.0 * math.pi / C, abs=3e-5 / C)


class TestTranslateGeodesic:
    def test_identity_at_zero(self, t4):
        line = kg.flow(t4.manifold, t4.killing, np.zeros(4), 1.0)
        moved = kg.translate_geodesic(t4.family, 1, line, 0.0)
        assert np.abs(moved.points - line.points).max() == 0.0

    def test_flat_translation(self, t4):
        # oracle: translating the closed t1-line by t = ±0.25 in t2 shifts
        # the image by exactly t, a parallel closed geodesic
        line = kg.flow(t4.manifold, t4.killing, np.zeros(4), 1.0)
        for t in (0.25, -0.25):
            moved = kg.translate_geodesic(t4.family, 1, line, t)
            expected = line.points + np.array([0.0, 0.0, 0.0, t])
            assert np.abs(moved.points - expected).max() <= 1e-9
            assert kg.geodesic_residual(t4.metric, moved) <= 1e-12
            assert kg.hausdorff_distance(t4.manifold, line, moved) == pytest.approx(0.25, abs=1e-6)

    def test_sphere_isometry_image(self, s3):
        p0 = np.array([1.0, 0.0, 0.0, 0.0])
        circle = kg.flow(s3.manifold, s3.killing, p0, 2 * math.pi)
        moved = kg.translate_geodesic(s3.family, 1, circle, 0.1)
        assert kg.geodesic_residual(s3.metric, moved) <= 1e-5

    def test_preserves_period_structure(self, t4):
        M = t4.manifold
        line = kg.flow(M, t4.killing, np.zeros(4), 1.0)
        moved = kg.translate_geodesic(t4.family, 1, line, 0.3)
        cert = kg.detect_period(M, t4.killing, moved.points[0], 5.0)
        assert cert is not None and cert.period == pytest.approx(1.0, abs=1e-6)


class TestCsv:
    def test_header_and_constant_energy(self, klein):
        curve = kg.flow(klein.manifold, klein.killing, np.array([0.0, 0.0]), 2.0)
        text = kg.curve_to_csv(klein.metric, curve)
        lines = text.strip().split("\n")
        assert lines[0] == "s,x1,x2,v1,v2,f"
        for row in lines[1:]:
            assert row.split(",")[-1] == "-1"

    def test_zero_horizon_single_row(self, klein):
        curve = kg.flow(klein.manifold, klein.killing, np.array([0.0, 0.0]), 0.0)
        text = kg.curve_to_csv(klein.metric, curve)
        assert len(text.strip().split("\n")) == 2  # header + one sample

    def test_sphere_trace_closes(self, s3):
        curve = kg.flow(s3.manifold, s3.killing, np.array([1.0, 0.0, 0.0, 0.0]), 2 * math.pi)
        text = kg.curve_to_csv(s3.metric, curve)
        last = np.array([float(x) for x in text.strip().split("\n")[-1].split(",")])
        assert abs(last[0] - 2 * math.pi) <= 1e-12
        assert np.linalg.norm(last[1:5] - np.array([1.0, 0.0, 0.0, 0.0])) <= 1e-6
