"""Closed-form flows of skew linear fields, cross-checked against RK45.

A field whose ``linear`` matrix A is skew flows by plane rotations,
exp(tA)·p, and its runs are that closed form.  The same field as a bare
callable has no ``linear`` matrix and is integrated by RK45 and scanned
for returns.  A closed-form run is scanned on a quotient; without deck
generators its rates decide its minimal period.  On stationary-s3 and its
first five approximants, sampled lines must certify on both paths with
periods that agree to ``PERIOD_TOL``, and the closed form must give the
closure period 2π·q to 1e-12 relative.  Near-rational rates get no period,
however near the line comes back.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import killing_geodesics as kg
from killing_geodesics import flows
from killing_geodesics.flows import PERIOD_TOL, ExactCurve
from killing_geodesics.integrate import DenseCurve
from killing_geodesics.killing import linear_field

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi


def _closed_form(p0, t, beta):
    """Oracle: the field with generator (1, beta) moves (z, w) to
    (e^{it} z, e^{i beta t} w)."""
    z = complex(p0[0], p0[1]) * complex(math.cos(t), math.sin(t))
    w = complex(p0[2], p0[3]) * complex(math.cos(beta * t), math.sin(beta * t))
    return np.array([z.real, z.imag, w.real, w.imag])


def _approximants(s3):
    return kg.approximate_closed(s3.killing, 5, s3.metric)


def _generic(p0) -> bool:
    return min(math.hypot(p0[0], p0[1]), math.hypot(p0[2], p0[3])) > 0.05


@pytest.mark.parametrize("k", range(5))
def test_sampled_lines_certify_on_both_paths(s3, k):
    field, frac = _approximants(s3)[k]
    M = s3.manifold
    q = frac.denominator
    horizon = s3.angle_period * (q + 1)
    starts = [p for p in M.sample_points(np.random.default_rng(100 + k), 2) if _generic(p)]
    assert starts
    for p0 in list(s3.exceptional_starts) + starts:
        exact = kg.detect_period(M, field, p0, horizon)
        rk45 = kg.detect_period(M, field.evaluator, p0, horizon)
        assert isinstance(exact.curve, ExactCurve) and not isinstance(rk45.curve, ExactCurve)
        assert abs(exact.period - rk45.period) <= PERIOD_TOL
        assert exact.position_gap <= PERIOD_TOL and exact.velocity_gap <= PERIOD_TOL
    for p0 in starts:
        # a line off both circles closes after q turns of the z-circle
        assert exact.period == pytest.approx(TWO_PI * q, rel=1e-12)


def test_circles_certify_on_both_paths_and_generic_lines_stay_open(s3):
    M = s3.manifold
    for p0, period in zip(s3.exceptional_starts, s3.expected["periods"]):
        exact = kg.detect_period(M, s3.killing, p0, 50.0)
        rk45 = kg.detect_period(M, s3.killing.evaluator, p0, 50.0)
        assert abs(exact.period - rk45.period) <= PERIOD_TOL
        assert exact.period == pytest.approx(period, rel=1e-12)
    p0 = M.sample_points(np.random.default_rng(7), 1)[0]
    assert kg.detect_period(M, s3.killing, p0, 50.0) is None
    assert kg.detect_period(M, s3.killing.evaluator, p0, 50.0) is None


def test_closure_period_is_exact(s3):
    for field, frac in _approximants(s3):
        q = frac.denominator
        cert = kg.detect_period(s3.manifold, field, s3.probe_point, s3.angle_period * (q + 1))
        assert abs(cert.period / (TWO_PI * q) - 1.0) <= 1e-12


@pytest.mark.parametrize("k", [0, 4])
def test_curve_matches_the_rotation(s3, k):
    # k = 0 is the q = 1 field: the rates are 1 twice, one 4-dim group
    field, frac = _approximants(s3)[k]
    beta = frac.numerator / frac.denominator
    p0 = s3.probe_point
    curve = kg.flow(s3.manifold, field, p0, 40.0).dense
    assert isinstance(curve, ExactCurve)
    assert len(curve.rates) == (1 if k == 0 else 2)
    ss = np.linspace(0.0, 40.0, 97)
    expected = np.array([_closed_form(p0, s, beta) for s in ss])
    assert np.max(np.abs(curve(ss) - expected)) <= 1e-13
    assert np.array_equal(curve(ss[5]), curve(ss)[5])
    # knots: every 2π / (128 · fastest rate), then t_end; on the sphere, with the field there
    h = TWO_PI / (128 * max(1.0, abs(beta)))
    assert curve.ts[1] == pytest.approx(h, rel=1e-15) and curve.ts[-1] == 40.0
    assert np.all(np.diff(curve.ts) <= curve.ts[1] * (1.0 + 1e-12))
    assert np.max(np.abs(np.einsum("ni,ni->n", curve.ys, curve.ys) - 1.0)) <= 1e-13
    assert np.array_equal(curve.fs, np.array([field(y) for y in curve.ys]))


def test_only_skew_linear_fields_take_the_closed_form(s3, flat_torus, klein):
    M = s3.manifold
    p0 = s3.probe_point
    assert isinstance(kg.flow(M, s3.killing, p0, 1.0).dense, ExactCurve)
    # a bare callable, a non-skew linear field and constant fields are integrated
    stretch = linear_field(np.diag([1.0, 0.0, 0.0, 0.0]) + s3.killing.linear)
    for entry, K, start in [
        (s3, s3.killing.evaluator, p0),
        (s3, stretch, p0),
        (flat_torus, flat_torus.killing, flat_torus.probe_point),
        (klein, klein.killing, klein.probe_point),
    ]:
        assert not isinstance(kg.flow(entry.manifold, K, start, 1.0).dense, ExactCurve)


def test_zero_horizon_and_stationary_start(s3):
    M = s3.manifold
    curve = kg.flow(M, s3.killing, s3.probe_point, 0.0)
    assert list(curve.times) == [0.0] and np.array_equal(curve.points[0], s3.probe_point)
    # a field that turns only the z-plane leaves the w-circle fixed
    rot_z = s3.family.members[0]
    assert kg.detect_period(M, rot_z, np.array([0.0, 0.0, 1.0, 0.0]), 10.0) is None


def test_zero_field_has_no_closed_form(s3):
    # the zero matrix is skew but turns no plane: its flow is integrated,
    # and stands still
    M = s3.manifold
    zero = linear_field(np.zeros((4, 4)))
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert ExactCurve.of(zero, p0, 1.0, M.project_point, zero.evaluator) is None
    curve = kg.flow(M, zero, p0, 1.0)
    assert isinstance(curve.dense, DenseCurve) and curve.t_end == 1.0
    assert np.array_equal(curve.points, np.tile(p0, (len(curve.times), 1)))
    assert kg.detect_period(M, zero, p0, 10.0) is None


def test_skewness_is_judged_in_the_units_of_the_matrix(s3):
    # a tolerance that grows as the square of the scale would take a large
    # field 1e-7 off skew for its skew part, and miss the rotation of a
    # slow skew field, whose -A² falls below a fixed eigen-gap
    M, R, p0 = s3.manifold, s3.killing.linear, np.array([1.0, 0.0, 0.0, 0.0])
    off = linear_field(1e4 * (R + 1e-7 * np.diag([1.0, -1.0, 0.5, -0.5])))
    assert ExactCurve.of(off, p0, 1.0, M.project_point, off.evaluator) is None
    for c in [2.0**-30, 1e-6, 1.0, 1e4, 2.0**30]:
        K = linear_field(c * R)
        assert ExactCurve.of(K, p0, 1.0, M.project_point, K.evaluator) is not None
    cert = kg.detect_period(M, linear_field(1e-6 * R), p0, 5e7)
    assert abs(cert.period * 1e-6 - TWO_PI) <= 1e-12 * TWO_PI


def test_scan_memory_is_bounded(s3, rp3, monkeypatch):
    # the scan of a closed-form run evaluates at most one chunk at a time;
    # a closed-form run is scanned on a quotient, here RP³, where the S³
    # field's line through the probe does not close and is scanned to the
    # horizon
    sizes = []
    call = ExactCurve.__call__

    def recorded(self, s):
        sizes.append(np.size(s))
        return call(self, s)

    monkeypatch.setattr(ExactCurve, "__call__", recorded)
    assert kg.detect_period(rp3, s3.killing, s3.probe_point, 30 * s3.angle_period) is None
    assert max(sizes) <= flows._SCAN_CHUNK < sum(sizes)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.floats(-3.0, 3.0), min_size=36, max_size=36),
    st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    st.floats(1e-3, 30.0),
)
def test_closed_form_speed_bound_holds(n, entries, start, scale):
    # the return scan skips grid times by this bound; the closed form's
    # velocity is A·c(t), for any skew A and start
    B = scale * np.reshape(entries, (6, 6))[:n, :n]
    A = B - B.T
    K = linear_field(A)
    curve = ExactCurve.of(K, np.array(start[:n]), 10.0, None, K.evaluator)
    assume(curve is not None)
    ss = np.linspace(0.0, 10.0, 2001)
    assert np.max(np.linalg.norm(curve(ss) @ A.T, axis=1)) <= curve.speed_bound()


def _block_rotation(rates):
    """The skew linear field turning the planes (x_2j, x_2j+1) at rates[j]."""
    A = np.zeros((2 * len(rates), 2 * len(rates)))
    for j, w in enumerate(rates):
        A[2 * j + 1, 2 * j], A[2 * j, 2 * j + 1] = w, -w
    return linear_field(A)


class TestExactVerdict:
    """Without deck generators a closed-form line closes at the minimal T
    with ω_j·T ∈ 2πℤ on every plane it moves in, or not at all."""

    M = kg.ManifoldModel(ambient_dim=6)
    P0 = np.array([1.0, 0.0, 0.5, 0.2, 0.3, -0.4])

    @pytest.mark.parametrize("omega", [1e-3, 1.0, 30.0])
    def test_rational_rates_close_at_the_lcm(self, omega):
        # ω·(1, 2/3, 3/5): the denominators' lcm is 15, so 15 turns of the first plane
        K = _block_rotation(omega * np.array([1.0, 2 / 3, 3 / 5]))
        period = TWO_PI * 15 / omega
        cert = kg.detect_period(self.M, K, self.P0, 1.1 * period)
        assert cert.period == pytest.approx(period, rel=1e-12) and cert.curve.t_end == cert.period
        assert cert.deck_word.word == () and cert.position_gap <= PERIOD_TOL and cert.velocity_gap <= PERIOD_TOL * omega
        # the minimal period past the horizon: no period
        assert kg.detect_period(self.M, K, self.P0, 0.9 * period) is None

    @pytest.mark.parametrize("omega", [1e-3, 1.0, 30.0])
    def test_rotated_frame_closes_at_the_lcm(self, omega):
        # Q·A·Qᵀ reads its rates to a few ulps more than a stored fraction
        # (at seeds 8 for ω = 1e-3, 11 and 39 for ω = 30 a ratio is off by
        # more than detect_rational's 4 ulps); the line still closes
        A = _block_rotation(omega * np.array([1.0, 2 / 3, 3 / 5])).linear
        period = TWO_PI * 15 / omega
        for seed in range(40):
            Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))
            cert = kg.detect_period(self.M, linear_field(Q @ A @ Q.T), Q @ self.P0, 1.1 * period)
            assert cert is not None and cert.period == pytest.approx(period, rel=1e-12), seed

    def test_irrational_ratio_has_no_period(self):
        assert kg.detect_period(self.M, _block_rotation([1.0, SQRT2, 0.5]), self.P0, 1e4) is None

    def test_plane_below_the_gap_is_dropped(self):
        # the third plane turns at an irrational rate, but with amplitude
        # PERIOD_TOL / 8 it moves the line by at most PERIOD_TOL / 4
        K = _block_rotation([1.0, 0.5, SQRT2])
        p0 = np.array([1.0, 0.0, 0.5, 0.2, PERIOD_TOL / 8, 0.0])
        cert = kg.detect_period(self.M, K, p0, 50.0)
        assert cert.period == pytest.approx(2 * TWO_PI, rel=1e-12)
        assert cert.position_gap <= PERIOD_TOL / 4
        p0[4] = PERIOD_TOL
        assert kg.detect_period(self.M, K, p0, 50.0) is None


@pytest.mark.parametrize("alpha", [1.5000001, 1.0000001, 1.000001, SQRT2, 1.5])
def test_near_rational_lines_get_no_period(alpha):
    # Dirichlet: the near-rational lines come within PERIOD_TOL of their
    # start near T = 4π and 2π, but α·T is no multiple of 2π there
    entry = kg.build_entry("stationary-s3", alpha=alpha)
    M = entry.manifold
    periods = [kg.detect_period(M, entry.killing, p0, 50.0) for p0 in M.sample_points(np.random.default_rng(1), 6)]
    if alpha == 1.5:
        assert all(cert.period == 4 * math.pi for cert in periods)
    else:
        assert periods == [None] * 6


@pytest.mark.parametrize("k", range(3, 10))
@pytest.mark.parametrize("r", [1.0, 1.5, SQRT2], ids=["1", "3/2", "sqrt2"])
def test_near_rational_sweep_keeps_both_circles(r, k):
    # theorem (ii): K never vanishes, so two periodic geodesics, the
    # circles w = 0 (period 2π) and z = 0 (period 2π/α).  Only at α within
    # 1e-8 of 1 is f constant to GRAD_TOL; there the fiber scan finds the
    # two circles and no generic line closes
    alpha = r * (1.0 + 10.0**-k)
    report = kg.analyze_entry(kg.build_entry("stationary-s3", alpha=alpha))
    circles = sorted([TWO_PI / alpha, TWO_PI])
    if r == 1.0 and k >= 8:
        assert report.degenerate_constant
        periods = [row["period"] for row in report.fiber_scan]
        assert periods[:2] == pytest.approx([TWO_PI, TWO_PI / alpha], rel=1e-12) and periods[2:] == [None] * 8
    else:
        assert not report.degenerate_constant
        assert sorted(o["period"] for o in report.critical_orbits) == pytest.approx(circles, rel=1e-12)
