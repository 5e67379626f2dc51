import json
import math
from fractions import Fraction

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics.errors import UnsupportedCapabilityError
from killing_geodesics.rational import detect_rational

SQRT2 = math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestConvergents:
    def test_sqrt2(self):
        # integer oracle: sqrt2 = [1; 2, 2, 2, ...]
        out = kg.continued_fraction_convergents(SQRT2, 5)
        assert out == [Fraction(1, 1), Fraction(3, 2), Fraction(7, 5), Fraction(17, 12), Fraction(41, 29)]

    def test_golden_fibonacci(self):
        # integer oracle: golden = [1; 1, 1, ...] gives Fibonacci ratios
        out = kg.continued_fraction_convergents(GOLDEN, 5)
        assert out == [Fraction(1, 1), Fraction(2, 1), Fraction(3, 2), Fraction(5, 3), Fraction(8, 5)]

    def test_rational_terminates(self):
        out = kg.continued_fraction_convergents(1.0 / 3.0, 5)
        assert out == [Fraction(0, 1), Fraction(1, 3)]

    def test_best_approximation_bound(self):
        for alpha in (SQRT2, GOLDEN, math.pi, math.e, math.sqrt(3.0)):
            for frac in kg.continued_fraction_convergents(alpha, 8):
                assert abs(alpha - frac.numerator / frac.denominator) < 1.0 / frac.denominator**2

    def test_gaps_strictly_decrease(self):
        convs = kg.continued_fraction_convergents(math.pi, 8)
        gaps = [abs(math.pi - f.numerator / f.denominator) for f in convs]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_detect_rational(self):
        assert detect_rational(1.5) == Fraction(3, 2)
        assert detect_rational(1.0 / 3.0) == Fraction(1, 3)
        assert detect_rational(SQRT2) is None
        assert detect_rational(1.0 / math.pi) is None


class TestApproximateClosed:
    def test_sphere_generators(self, s3):
        out = kg.approximate_closed(s3.killing, 3, metric=s3.metric)
        fracs = [f for _, f in out]
        assert fracs == [Fraction(1, 1), Fraction(3, 2), Fraction(7, 5)]
        for field, frac in out:
            assert field.certified
            assert field.generator == (1.0, frac.numerator / frac.denominator)
            assert field.generator != s3.killing.generator

    def test_flat_torus_closure(self, flat_torus_irrational):
        # oracle: a slope (1, p/q) translation line through the origin
        # first meets the lattice at s = q
        e = flat_torus_irrational
        out = kg.approximate_closed(e.killing, 3, metric=e.metric)
        for field, frac in out:
            cert = kg.detect_period(e.manifold, field, np.zeros(2), frac.denominator + 1.0)
            assert cert is not None
            assert cert.period == pytest.approx(frac.denominator, abs=1e-6)

    def test_rational_input_short_circuits(self, flat_torus):
        e = kg.make_flat_lorentzian_torus((1.0, 1.5))
        out = kg.approximate_closed(e.killing, 5, metric=e.metric)
        assert len(out) == 1
        assert out[0][1] == Fraction(3, 2)

    def test_evaluator_only_field_rejected(self, klein):
        with pytest.raises(UnsupportedCapabilityError):
            kg.approximate_closed(klein.killing, 3, klein.metric)


def _three_member_field(s3):
    """sqrt 2 on the first two members, and a third: no slope b/a."""
    rot_z, rot_w = s3.family.members
    family = kg.make_killing_family(s3.metric, (rot_z, rot_w, rot_z))
    return kg.combine_family(family, (1.0, SQRT2, 1.0))


class TestSlopeIsReadOnce:
    """Both the approximants and their certificate read the slope b/a of
    a generator (a, b) with a != 0, and refuse any other generator."""

    def test_zero_first_coordinate(self, flat_torus):
        assert flat_torus.killing.generator == (0.0, 1.0)
        with pytest.raises(UnsupportedCapabilityError, match="a != 0"):
            kg.approximate_closed(flat_torus.killing, 3, flat_torus.metric)
        with pytest.raises(UnsupportedCapabilityError, match="a != 0"):
            kg.certify_uniform_convergence(flat_torus.metric, flat_torus.killing, [], samples=5, seed=7)

    def test_three_members(self, s3):
        K = _three_member_field(s3)
        with pytest.raises(UnsupportedCapabilityError, match="a != 0"):
            kg.approximate_closed(K, 3, s3.metric)
        with pytest.raises(UnsupportedCapabilityError, match="a != 0"):
            kg.certify_uniform_convergence(s3.metric, K, [], samples=5, seed=7)


class TestCertificate:
    def test_sphere_certificate(self, s3):
        out = kg.approximate_closed(s3.killing, 4, metric=s3.metric)
        cert = kg.certify_uniform_convergence(s3.metric, s3.killing, out, samples=300, seed=7)
        # linearity oracle: K^n - K = (p/q - alpha) (0, i w), whose sup
        # norm over samples is the gap times the largest sampled |w|
        rng = np.random.default_rng(7)
        pts = s3.manifold.sample_points(rng, 300)
        sup_w = max(math.hypot(p[2], p[3]) for p in pts)
        for gap, field_gap in zip(cert.gaps, cert.sup_field_gaps):
            assert field_gap <= gap * 1.0 + 1e-12
            assert abs(field_gap - gap * sup_w) <= 0.1 * gap * sup_w
        assert all(cert.min_f_signs)
        assert all(b < a for a, b in zip(cert.gaps, cert.gaps[1:]))
        assert all(b <= a for a, b in zip(cert.sup_field_gaps, cert.sup_field_gaps[1:]))

    def test_timelike_persistence_threshold(self, s3):
        # oracle: f <= -1 + O(gap), so any convergent with gap < 1/2
        # keeps the field timelike somewhere
        out = kg.approximate_closed(s3.killing, 4, metric=s3.metric)
        cert = kg.certify_uniform_convergence(s3.metric, s3.killing, out, samples=200, seed=7)
        for gap, ok in zip(cert.gaps, cert.min_f_signs):
            if gap < 0.5:
                assert ok

    def test_json_roundtrip_exact_fractions(self, s3):
        out = kg.approximate_closed(s3.killing, 5, metric=s3.metric)
        cert = kg.certify_uniform_convergence(s3.metric, s3.killing, out, samples=100, seed=7)
        data = json.loads(json.dumps(cert.as_dict()))
        assert data["convergents"] == [
            {"p": 1, "q": 1},
            {"p": 3, "q": 2},
            {"p": 7, "q": 5},
            {"p": 17, "q": 12},
            {"p": 41, "q": 29},
        ]


class TestCertificateInvariants:
    """A hand-built approximant list that breaks one invariant raises a
    ValueError naming it, which the CLI turns into exit code 2."""

    @staticmethod
    def _approximants(s3, pairs):
        # (slope of the field, fraction it is labelled with)
        return [(kg.combine_family(s3.family, (1.0, a.numerator / a.denominator)), b) for a, b in pairs]

    def _certify(self, s3, pairs):
        out = self._approximants(s3, pairs)
        return kg.certify_uniform_convergence(s3.metric, s3.killing, out, samples=50, seed=7)

    def test_gaps_that_do_not_decrease(self, s3):
        with pytest.raises(ValueError, match="convergent gaps must strictly decrease"):
            self._certify(s3, [(Fraction(3, 2),) * 2, (Fraction(1, 1),) * 2])
        with pytest.raises(ValueError, match="convergent gaps must strictly decrease"):
            self._certify(s3, [(Fraction(7, 5),) * 2, (Fraction(7, 5),) * 2])

    def test_field_gaps_that_increase(self, s3):
        # the labels' gaps decrease, but the fields move away from K
        with pytest.raises(ValueError, match="sup field gaps must not increase"):
            self._certify(s3, [(Fraction(7, 5), Fraction(3, 2)), (Fraction(1, 1), Fraction(7, 5))])

    def test_gap_beyond_the_best_approximation_bound(self, s3):
        # 13/9 is closer to sqrt 2 than 3/2, but not within 1/81 of it
        with pytest.raises(ValueError, match="best-approximation bound"):
            self._certify(s3, [(Fraction(3, 2),) * 2, (Fraction(13, 9),) * 2])

    def test_convergents_pass(self, s3):
        cert = self._certify(s3, [(Fraction(1, 1),) * 2, (Fraction(3, 2),) * 2, (Fraction(7, 5),) * 2])
        assert cert.convergents == (Fraction(1, 1), Fraction(3, 2), Fraction(7, 5))
