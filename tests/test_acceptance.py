"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Entry construction is
shared through session fixtures; the per-criterion runtime budgets cover
the analysis work itself.
"""

import math
import re
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics.critical import grad_f
from killing_geodesics.flows import PERIOD_TOL
from killing_geodesics.geometry import covariant_derivative
from killing_geodesics.rational import continued_fraction_convergents

from conftest import random_tangent

SQRT2 = math.sqrt(2.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_conversion_involution(lorentzian_entries):
    with criterion(1, "conversion involution reproduces g to 1e-12"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for entry in lorentzian_entries:
            M, g, K = entry.manifold, entry.metric, entry.killing
            g_back = kg.riemann_to_lorentz(kg.lorentz_to_riemann(g, K), K)
            for _ in range(100):
                p = M.sample_point(rng)
                v = random_tangent(M, p, rng)
                w = random_tangent(M, p, rng)
                assert abs(kg.metric_eval(g_back, p, v, w) - kg.metric_eval(g, p, v, w)) <= 1e-12
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_gradient_identity(all_entries):
    with criterion(2, "grad f = -2 nabla_K K and FD validation at 200 points/entry"):
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        h = 1e-5
        for entry in all_entries:
            M, g, K = entry.manifold, entry.metric, entry.killing

            def f(p):
                v = K(p)
                return float(v @ (g.matrix(p) @ v))

            for _ in range(200):
                p = M.sample_point(rng)
                grad = grad_f(g, K, p)
                nkk = covariant_derivative(g, K.evaluator, K(p), p)
                assert np.linalg.norm(grad + 2.0 * nkk) <= 1e-6
                # independent validation: g(grad f, e) equals the central
                # difference of f along every tangent basis direction
                for e in M.tangent_basis(p):
                    df = (f(p + h * e) - f(p - h * e)) / (2 * h)
                    assert abs(kg.metric_eval(g, p, grad, e) - df) <= 1e-5
        assert time.perf_counter() - t0 < 5.0


def test_criterion_3_stationary_sphere_two_orbits(s3):
    with criterion(3, "stationary S3: exactly the two expected critical orbits"):
        t0 = time.perf_counter()
        orbits = kg.find_critical_orbits(s3.metric, s3.killing, budget=64, seed=42)
        assert len(orbits) == 2
        lo, hi = orbits
        assert abs(lo.f_value - (-2.0)) <= 1e-6
        assert abs(hi.f_value - (-1.0)) <= 1e-6
        assert lo.classification == "min"
        assert hi.classification == "max"
        assert lo.geodesic_residual <= 1e-5
        assert hi.geodesic_residual <= 1e-5
        assert abs(lo.period - math.pi * SQRT2) <= 1e-6
        assert abs(hi.period - 2 * math.pi) <= 1e-6
        assert time.perf_counter() - t0 < 30.0


def test_criterion_4_klein_bottle_fibers(klein):
    with criterion(4, "Klein bottle: two exceptional fibers, interval orbit space"):
        t0 = time.perf_counter()
        M, g, K = klein.manifold, klein.metric, klein.killing
        orbits = kg.find_critical_orbits(g, K, seed=42)
        assert orbits[0].classification == "degenerate_constant"
        assert abs(orbits[0].f_value - (-1.0)) <= 1e-12
        # deck-arithmetic oracle: a fiber over x0 is exceptional exactly
        # when 2*x0 is an integer; exceptional period 1, generic period 2
        for x0 in (0.0, 0.5):
            cert = kg.detect_period(M, K, np.array([x0, 0.0]), 10.0)
            assert cert is not None and abs(cert.period - 1.0) <= 1e-6
        rng = np.random.default_rng(404)
        count = 0
        while count < 20:
            x0 = float(rng.uniform(0.0, 1.0))
            if min(abs(2 * x0 - k) for k in range(3)) < 1e-3:
                continue
            cert = kg.detect_period(M, K, np.array([x0, 0.0]), 10.0)
            assert cert is not None and abs(cert.period - 2.0) <= 1e-6
            coord = klein.orbit_coordinate(np.array([x0, 0.0]))
            assert 0.0 <= coord <= 0.5
            count += 1
        assert time.perf_counter() - t0 < 10.0


def _closest_sphere_return(p0, theta, horizon):
    """Least chordal distance from ±R_{s theta} x to x over integers 1 <= s <= horizon.

    x = p0[:3] is the sphere part and R rotates about the z-axis; with
    rho = |(x0, x1)|, |R_a x - x| = 2 rho |sin(a/2)| and
    |R_a x + x| = 2 sqrt(rho² cos²(a/2) + z²).
    """
    half = 0.5 * theta * np.arange(1, horizon + 1)
    rho = math.hypot(p0[0], p0[1])
    same = 2.0 * rho * np.abs(np.sin(half))
    antipodal = 2.0 * np.hypot(rho * np.cos(half), p0[2])
    return float(min(same.min(), antipodal.min()))


def test_criterion_5_mapping_torus_single_closed_orbit(mapping_torus):
    with criterion(5, "mapping torus: exactly one periodic orbit among 21 starts"):
        t0 = time.perf_counter()
        M, K = mapping_torus.manifold, mapping_torus.killing
        theta = 1.0
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rotation = np.array([[cos_t, -sin_t, 0.0], [sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(M.deck_generators[1].matrix[:3, :3], rotation, rtol=0.0, atol=1e-15)
        pole = np.array([0.0, 0.0, 1.0, 0.0])
        certs = []
        cert = kg.detect_period(M, K, pole, 50.0)
        assert cert is not None and abs(cert.period - 1.0) <= 1e-6
        certs.append(cert)
        rng = np.random.default_rng(505)
        for _ in range(20):
            p0 = M.sample_point(rng)
            # rotation fixed-point oracle: ∂t leaves the sphere part x fixed,
            # so a return through the deck word (±R_theta^s, t + s) has a
            # position gap of at least |R_{s theta} x ∓ x|.  For x off the
            # equator that vanishes only if s*theta is in 2πZ; the antipodal
            # one only for x on the equator with s*theta in π + 2πZ; for
            # theta = 1 neither ever holds exactly.  A certificate needs a
            # position gap <= PERIOD_TOL (the velocity gap of ∂t is always
            # 0), so every start must stay a wide margin above it.
            assert _closest_sphere_return(p0, theta, 50) >= 1e3 * PERIOD_TOL
            certs.append(kg.detect_period(M, K, p0, 50.0))
        assert sum(c is not None for c in certs) == 1
        assert time.perf_counter() - t0 < 30.0


def test_criterion_6_closed_approximation(s3):
    with criterion(6, "closed approximants: convergents, bounds, orbits, closure"):
        t0 = time.perf_counter()
        convs = continued_fraction_convergents(SQRT2, 5)
        assert [(f.numerator, f.denominator) for f in convs] == [
            (1, 1), (3, 2), (7, 5), (17, 12), (41, 29),
        ]
        approximants = kg.approximate_closed(s3.killing, 5, metric=s3.metric)
        cert = kg.certify_uniform_convergence(s3.metric, s3.killing, approximants, samples=500, seed=7)
        rng = np.random.default_rng(7)
        pts = s3.manifold.sample_points(rng, 500)
        sup_w = max(math.hypot(p[2], p[3]) for p in pts)
        for frac, gap, field_gap in zip(cert.convergents, cert.gaps, cert.sup_field_gaps):
            assert gap < 1.0 / frac.denominator**2
            assert abs(field_gap - gap * sup_w) <= 0.1 * gap * sup_w
        assert all(b < a for a, b in zip(cert.gaps, cert.gaps[1:]))
        assert all(b <= a for a, b in zip(cert.sup_field_gaps, cert.sup_field_gaps[1:]))
        line_rng = np.random.default_rng(606)
        for field, frac in approximants:
            horizon = 2 * math.pi * (frac.denominator + 1)
            orbits = kg.find_critical_orbits(s3.metric, field, budget=16, seed=42, horizon=horizon)
            certified = [
                o for o in orbits if o.period is not None and o.geodesic_residual <= 1e-5
            ]
            assert len(certified) >= 2, f"approximant {frac}"
            for _ in range(3):
                p0 = s3.manifold.sample_point(line_rng)
                closure = kg.detect_period(s3.manifold, field, p0, horizon)
                assert closure is not None, f"approximant {frac} line did not close"
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_energy_conservation(all_entries):
    with criterion(7, "geodesic energy drift over one period stays below 1e-9"):
        cases = []
        for entry in all_entries:
            if entry.name == "stationary-s3":
                cases.append((entry, np.array([1.0, 0.0, 0.0, 0.0])))
                cases.append((entry, np.array([0.0, 0.0, 1.0, 0.0])))
            elif entry.name == "mapping-torus":
                cases.append((entry, np.array([0.0, 0.0, 1.0, 0.0])))
            else:
                cases.append((entry, entry.probe_point))
        for entry, p0 in cases:
            cert = kg.detect_period(entry.manifold, entry.killing, p0, 50.0)
            assert cert is not None, entry.name
            curve = kg.shoot_geodesic(entry.metric, p0, entry.killing(p0), cert.period)
            assert curve.energy_drift <= 1e-9, (entry.name, curve.energy_drift)


def test_criterion_8_commuting_family(t4):
    with criterion(8, "commuting T4 family: Gram and translated geodesic family"):
        rng = np.random.default_rng(808)
        for _ in range(25):
            q = t4.manifold.sample_point(rng)
            A = kg.gram_matrix(t4.metric, t4.family, q)
            assert np.abs(A - np.diag([-1.0, -1.0])).max() <= 1e-12
        base = kg.flow(t4.manifold, t4.killing, np.zeros(4), 1.0)
        curves = [kg.translate_geodesic(t4.family, 1, base, t) for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
        for c in curves:
            assert kg.geodesic_residual(t4.metric, c) <= 1e-5
            cert = kg.detect_period(t4.manifold, t4.killing, c.points[0], 5.0)
            assert cert is not None and abs(cert.period - 1.0) <= 1e-6
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                assert kg.hausdorff_distance(t4.manifold, curves[i], curves[j]) > 1e-3


def test_criterion_9_negative_control(flat_torus):
    with criterion(9, "perturbed non-Killing field is detected and uncertified"):
        bad = lambda p: np.array([0.0, 1.0 + 0.3 * math.sin(2.0 * math.pi * p[0])])
        K = kg.make_killing_field(flat_torus.metric, bad, label="perturbed")
        assert not K.certified
        assert K.max_residual >= 0.1
        rng = np.random.default_rng(909)
        worst = max(
            kg.killing_residual(flat_torus.metric, bad, flat_torus.manifold.sample_point(rng))
            for _ in range(50)
        )
        assert worst >= 0.1


def test_criterion_10_determinism():
    with criterion(10, "analyze stationary-s3 twice: byte-identical modulo runtime_ms"):
        cmd = [
            sys.executable, "-m", "killing_geodesics",
            "analyze", "stationary-s3", "--alpha", "sqrt2", "--seed", "42",
        ]
        first = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        second = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        assert first.returncode == 0 and second.returncode == 0
        strip = lambda s: re.sub(r'^\s*"runtime_ms":.*$', "", s, flags=re.M)
        assert strip(first.stdout) == strip(second.stdout)
        assert first.stdout != ""
