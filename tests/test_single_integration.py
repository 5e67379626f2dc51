"""One integration per critical orbit.

The run that certifies a period also gives the orbit's curve: its knots
below T are those of ``flow`` bit for bit, so deduplication and the
geodesic residual need no second integration.  That holds for both kinds
of run: the RK45 run of a field without a skew ``linear`` matrix (here
the S³ field as a bare callable) and the closed-form run of the S³ field
itself, which integrates nothing.  Deduplication measures the curve at
its knots and splits only the stretches whose travel bound can reach
the radius; it returns at the first point within reach, and its
decision is that of a sampled scan refined around every near minimum.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import killing_geodesics as kg
from killing_geodesics import critical, flows
from killing_geodesics.critical import DEDUP_DISTANCE
from killing_geodesics.flows import CurveSample, min_distance_to_point
from killing_geodesics.integrate import DenseCurve

SQRT2 = math.sqrt(2.0)
SAMPLE_STEP = 5e-3  # sample step of the reference scan, _exact_min_distance


def _starts(s3, klein, flat_torus, mapping_torus):
    """(entry, field, start, horizon) of RK45 runs: both S³ circles of the
    S³ field as a bare callable, which has no ``linear`` matrix, the
    generic Klein fibre, a flat-torus line and the mapping-torus pole."""
    bare = s3.killing.evaluator
    return [
        (s3, bare, np.array([1.0, 0.0, 0.0, 0.0]), 50.0),
        (s3, bare, np.array([0.0, 0.0, 1.0, 0.0]), 50.0),
        (klein, klein.killing, np.array([0.3, 0.0]), 10.0),
        (flat_torus, flat_torus.killing, np.array([0.2, 0.35]), 4.0),
        (mapping_torus, mapping_torus.killing, np.array([0.0, 0.0, 1.0, 0.0]), 10.0),
    ]


def _exact_starts(s3):
    """(field, start) of closed-form runs on S³: both circles of the S³
    field, and a q = 1 torus line and a generic line of its first and
    last approximants."""
    closed = [field for field, _ in kg.approximate_closed(s3.killing, 5, s3.metric)]
    return [
        (s3.killing, np.array([1.0, 0.0, 0.0, 0.0])),
        (s3.killing, np.array([0.0, 0.0, 1.0, 0.0])),
        (closed[0], np.array([math.sqrt(2.0 - SQRT2), 0.0, math.sqrt(SQRT2 - 1.0), 0.0])),
        (closed[-1], s3.probe_point),
    ]


def _counting(monkeypatch):
    """Count ``solve_rk45`` runs and calls of ``flow`` from ``critical``."""
    runs, flows_called = [0], [0]
    solve = flows.solve_rk45

    def counted(*args, **kwargs):
        runs[0] += 1
        return solve(*args, **kwargs)

    def no_flow(*args, **kwargs):
        flows_called[0] += 1
        return kg.flow(*args, **kwargs)

    monkeypatch.setattr(flows, "solve_rk45", counted)
    monkeypatch.setattr(critical, "flow", no_flow)
    return runs, flows_called


class TestCertifiedFlow:
    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    def test_same_knots_and_residual_as_flow(self, s3, klein, flat_torus, mapping_torus, fraction):
        for entry, K, p0, horizon in _starts(s3, klein, flat_torus, mapping_torus):
            M = entry.manifold
            cert = kg.detect_period(M, K, p0, horizon)
            assert cert is not None and cert.curve.t_end > cert.period, entry.name
            T = fraction * cert.period
            curve = kg.certified_flow(M, K, cert, T)
            ref = kg.flow(M, K, p0, T)
            assert len(curve.times) == len(ref.times) > 3, entry.name
            for name in ("times", "points", "velocities", "accelerations"):
                assert np.array_equal(getattr(curve, name)[:-1], getattr(ref, name)[:-1]), (entry.name, name)
            assert curve.t_end == T and ref.t_end == pytest.approx(T, abs=1e-12)
            assert np.linalg.norm(curve.points[-1] - ref.points[-1]) <= 1e-9
            assert kg.geodesic_residual(entry.metric, curve) == kg.geodesic_residual(entry.metric, ref), entry.name

    @pytest.mark.parametrize("fraction", [1.0, 0.6])
    def test_exact_run_gives_the_knots_of_flow(self, s3, fraction, monkeypatch):
        # without deck generators the rates give the period, and the run
        # that certifies it is cut there
        runs, _ = _counting(monkeypatch)
        M = s3.manifold
        for K, p0 in _exact_starts(s3):
            cert = kg.detect_period(M, K, p0, 200.0)
            assert isinstance(cert.curve, flows.ExactCurve) and cert.curve.t_end == cert.period
            T = fraction * cert.period
            curve = kg.certified_flow(M, K, cert, T)
            ref = kg.flow(M, K, p0, T)
            assert len(curve.times) > 50
            # every knot, the last one included
            for name in ("times", "points", "velocities", "accelerations"):
                assert np.array_equal(getattr(curve, name), getattr(ref, name)), name
            assert curve.t_end == ref.t_end == T
            # and between the knots: both are the closed form
            grid = np.linspace(0.0, T, 1001)
            assert np.array_equal(curve.position_at(grid), ref.position_at(grid))
            assert kg.geodesic_residual(s3.metric, curve) == kg.geodesic_residual(s3.metric, ref)
        assert runs[0] == 0

    def test_rejects_time_past_the_run(self, s3):
        for K in (s3.killing, s3.killing.evaluator):
            cert = kg.detect_period(s3.manifold, K, np.array([1.0, 0.0, 0.0, 0.0]), 50.0)
            with pytest.raises(ValueError):
                kg.certified_flow(s3.manifold, K, cert, cert.curve.t_end + 1.0)


def test_search_integrates_each_orbit_once(s3, monkeypatch):
    # the S³ field as a bare callable takes RK45: one run per orbit
    runs, flows_called = _counting(monkeypatch)
    orbits = kg.find_critical_orbits(s3.metric, s3.killing.evaluator, budget=64, seed=42)
    assert len(orbits) == 2
    assert all(o.period is not None for o in orbits)
    assert runs[0] == len(orbits)
    assert flows_called[0] == 0


def test_exact_search_integrates_nothing(s3, monkeypatch):
    runs, flows_called = _counting(monkeypatch)
    orbits = kg.find_critical_orbits(s3.metric, s3.killing, budget=64, seed=42)
    assert len(orbits) == 2
    assert all(o.period is not None for o in orbits)
    assert runs[0] == 0
    assert flows_called[0] == 0


# -- the early exit of deduplication ---------------------------------------


@functools.lru_cache(maxsize=None)
def _orbit_curves():
    """Critical orbit curves as the search builds them: the q = 1 torus
    lines of the first approximant of stationary-s3 and its two circles."""
    s3 = kg.build_entry("stationary-s3")
    M = s3.manifold
    closed, fraction = kg.approximate_closed(s3.killing, 1, s3.metric)[0]
    assert (fraction.numerator, fraction.denominator) == (1, 1)
    r = math.sqrt(2.0 - SQRT2)
    s = math.sqrt(SQRT2 - 1.0)
    torus = [
        np.array([r * math.cos(a), r * math.sin(a), s * math.cos(b), s * math.sin(b)])
        for a, b in [(0.0, 0.0), (0.4, 2.1), (1.3, -0.7)]
    ]
    circles = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])]
    curves = []
    for K, p0 in [(closed, p) for p in torus] + [(s3.killing, p) for p in circles]:
        cert = kg.detect_period(M, K, p0, 50.0)
        span = 4.0 * math.pi / max(float(np.linalg.norm(K(p0))), 0.1) + 1.0
        curves.append(kg.certified_flow(M, K, cert, min(cert.period, span)))
    return M, curves


def _knot_speed(c):
    """The largest Euclidean speed at a knot."""
    return float(np.max(np.linalg.norm(c.velocities, axis=1)))


def _exact_min_distance(M, c, q):
    """The reference scan: samples every ``SAMPLE_STEP``, then every local
    minimum within the fastest knot's travel of the smallest sample
    refined on 60-point grids, each bracketing the last grid's minimum,
    until the bracket stops shrinking: until it is below the rounding of
    the time, so the reference reaches the minimum itself."""
    ss = np.arange(0.0, c.t_end, SAMPLE_STEP)
    d = M.quotient_distance(c.position_at(ss), q)
    best = float(np.min(d))
    margin = best + _knot_speed(c) * SAMPLE_STEP
    interior = (d[1:-1] <= d[:-2]) & (d[1:-1] <= d[2:])
    candidates = [j + 1 for j in np.nonzero(interior & (d[1:-1] <= margin))[0]]
    candidates += [0, len(ss) - 1]
    edges = np.append(ss, c.t_end)
    for j in candidates:
        if d[j] > margin:
            continue
        lo = float(ss[max(0, j - 1)])
        hi = float(edges[j + 1])
        bracket = None
        while bracket != (lo, hi):
            bracket = (lo, hi)
            grid = np.linspace(lo, hi, 60)
            dd = M.quotient_distance(c.position_at(grid), q)
            k = int(np.argmin(dd))
            best = min(best, float(dd[k]))
            width = (hi - lo) / 59.0
            lo = max(lo, float(grid[k]) - width)
            hi = min(hi, float(grid[k]) + width)
    return best


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4),
    st.floats(0.0, 1.0),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(lambda v: np.linalg.norm(v) > 0.1),
    st.floats(0.0, 2e-2),
    st.just(DEDUP_DISTANCE) | st.floats(1e-6, 2e-2),
)
# a point at the radius: the library's 9.9999999625e-05 is a curve point
# the reference must reach too
@example(4, 0.5, [0.0, 1.0, 0.0, 0.0], 1e-4, 1e-4)
def test_skip_never_drops_a_duplicate(index, where, direction, distance, radius):
    M, curves = _orbit_curves()
    curve = curves[index]
    u = np.asarray(direction) / np.linalg.norm(direction)
    q = M.project_point(curve.position_at(where * curve.t_end) + distance * u)
    value = min_distance_to_point(M, curve, q, radius)
    exact = _exact_min_distance(M, curve, q)
    assert (value <= radius) == (exact <= radius)
    # the library measures curve points: no value lies below the true
    # minimum, which is at least a dense minimum less its travel bound
    ss, step = np.linspace(0.0, curve.t_end, math.ceil(curve.t_end / 1e-4) + 1, retstep=True)
    dense = M.quotient_distance(curve.position_at(ss), q)
    assert value >= float(np.min(dense)) - 0.5 * step * curve.dense.speed_bound() - 1e-12


# -- the travel bound of min_distance_to_point -----------------------------


def _spiral(t_end=2.0, knot_step=1e-3, pitch=1e-2):
    """A planar spiral r = 1 + pitch * θ / 2π whose angle θ = t + t³
    speeds up from 1 to about 13: its second turn runs 1e-2 outside the
    first.  The knots carry the exact derivatives."""
    M = kg.ManifoldModel(ambient_dim=2)
    t = np.arange(0.0, t_end + knot_step / 2, knot_step)
    theta, dtheta = t + t**3, 1.0 + 3.0 * t**2
    r, dr = 1.0 + pitch * theta / (2 * math.pi), pitch / (2 * math.pi)
    radial = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    normal = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    ys = r[:, None] * radial
    fs = dtheta[:, None] * (dr * radial + r[:, None] * normal)
    curve = CurveSample(M, math.nan, DenseCurve(t, ys, fs))
    return M, curve


def test_refinement_reaches_past_the_last_sample(s3):
    # a curve of one period ends less than a sample step after its last
    # sample; a point of that stretch lies on the curve
    M, K = s3.manifold, s3.killing
    cert = kg.detect_period(M, K, np.array([1.0, 0.0, 0.0, 0.0]), 50.0)
    curve = kg.certified_flow(M, K, cert, cert.period)
    ss = np.arange(0.0, curve.t_end, SAMPLE_STEP)
    q = curve.position_at(0.5 * (ss[-1] + curve.t_end))
    assert 0.5 * (curve.t_end - ss[-1]) > 1e-3
    assert min_distance_to_point(M, curve, q, 1e-7) <= 1e-7


def test_margin_uses_the_fastest_knot():
    M, curve = _spiral()
    # a time on the fast second turn, midway between two coarse samples
    t_star = (round(1.7 / SAMPLE_STEP) + 0.5) * SAMPLE_STEP
    p_star = curve.position_at(t_star)
    q = p_star * (1.0 + 2e-3 / np.linalg.norm(p_star))
    fine = np.linspace(t_star - 1e-3, t_star + 1e-3, 100_001)
    truth = float(np.min(M.quotient_distance(curve.position_at(fine), q)))
    assert truth == pytest.approx(2e-3, rel=1e-2)
    # the slow first turn holds the coarse minimum, 1e-2 away
    positions = curve.position_at(np.arange(0.0, curve.t_end, SAMPLE_STEP))
    assert float(np.min(M.quotient_distance(positions, q))) > 1e-2
    assert float(np.linalg.norm(curve.velocities[0])) < 1.01 < 12.0 < _knot_speed(curve)
    assert min_distance_to_point(M, curve, q, truth + 1e-9) <= truth + 1e-9
    assert min_distance_to_point(M, curve, q, truth - 1e-9) > truth - 1e-9
