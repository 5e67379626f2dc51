import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics.errors import VanishingFieldError

SQRT2 = math.sqrt(2.0)


class TestEntryInvariants:
    def test_validate_all_entries(self, all_entries):
        for entry in all_entries:
            report = kg.validate_entry(entry, n_samples=40)
            assert report["metric_symmetry"] <= 1e-12, entry.name
            assert report["signature_ok"], entry.name
            assert report["deck_isometry"] <= 1e-9, entry.name
            assert report["deck_constraint"] <= 1e-9, entry.name
            assert report["killing_residual_max"] <= 1e-8, entry.name

    def test_validation_needs_a_point(self, flat_torus):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n}"):
                kg.validate_entry(flat_torus, n_samples=n)

    def test_all_killing_fields_certified(self, all_entries):
        for entry in all_entries:
            assert entry.killing.certified, entry.name


class TestFlatTorus:
    def test_energy_constant(self, rng):
        for slope, expected in [((0.0, 1.0), -1.0), ((1.0, 1.0), 0.0), ((1.0, SQRT2), -1.0)]:
            e = kg.make_flat_lorentzian_torus(slope)
            for _ in range(5):
                p = e.manifold.sample_point(rng)
                assert kg.energy(e.metric, e.killing, p) == pytest.approx(expected, abs=1e-12)

    def test_vertical_lines_close_at_one(self, flat_torus):
        cert = kg.detect_period(flat_torus.manifold, flat_torus.killing, np.array([0.4, 0.0]), 5.0)
        assert cert is not None and cert.period == pytest.approx(1.0, abs=1e-6)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            kg.make_flat_lorentzian_torus((0.0, 0.0))

    def test_rationality_flag(self, flat_torus_irrational):
        assert flat_torus_irrational.expected["periodic"] is False
        assert kg.make_flat_lorentzian_torus((1.0, 1.0)).expected["periodic"] is True


class TestKleinBottle:
    def test_orbit_space_coordinate(self, klein, rng):
        # oracle: x -> min(x mod 1, 1 - x mod 1) lands in [0, 1/2]
        for _ in range(50):
            p = klein.manifold.sample_point(rng) + np.array([rng.integers(-3, 3), 0.0])
            c = klein.orbit_coordinate(p)
            assert 0.0 <= c <= 0.5

    def test_exceptional_starts_recorded(self, klein):
        xs = sorted(float(p[0]) for p in klein.exceptional_starts)
        assert xs == [0.0, 0.5]


class TestStationarySphere:
    def test_energy_formula(self, s3, rng):
        for _ in range(30):
            p = s3.manifold.sample_point(rng)
            expected = -((p[0] ** 2 + p[1] ** 2) + 2.0 * (p[2] ** 2 + p[3] ** 2))
            assert kg.energy(s3.metric, s3.killing, p) == pytest.approx(expected, abs=1e-12)

    def test_timelike_everywhere(self, s3, rng):
        for _ in range(30):
            p = s3.manifold.sample_point(rng)
            assert kg.energy(s3.metric, s3.killing, p) < 0

    def test_expected_record(self, s3):
        assert s3.expected["orbit_count"] == 2
        assert s3.expected["f_values"][0] == pytest.approx(-1.0)
        assert s3.expected["f_values"][1] == pytest.approx(-2.0)
        assert s3.expected["periods"][0] == pytest.approx(2 * math.pi)
        assert s3.expected["periods"][1] == pytest.approx(2 * math.pi / SQRT2)

    def test_alpha_zero_rejected(self):
        with pytest.raises(VanishingFieldError):
            kg.make_stationary_sphere(0.0)

    def test_rational_alpha_all_lines_close(self):
        e = kg.make_stationary_sphere(2.0)
        assert e.expected["all_lines_periodic"]
        cert = kg.detect_period(e.manifold, e.killing, e.probe_point, 2 * math.pi + 1.0)
        assert cert is not None
        assert cert.period <= 2 * math.pi + 1e-6


class TestMappingTorus:
    def test_rational_angle_rejected(self):
        with pytest.raises(ValueError):
            kg.make_mapping_torus(math.pi / 2)

    def test_energy_constant(self, mapping_torus, rng):
        for _ in range(10):
            p = mapping_torus.manifold.sample_point(rng)
            assert kg.energy(mapping_torus.metric, mapping_torus.killing, p) == pytest.approx(-1.0, abs=1e-12)

    def test_pole_class_is_exceptional(self, mapping_torus):
        # the antipodal map identifies the two poles into one class
        M = mapping_torus.manifold
        north = np.array([0.0, 0.0, 1.0, 0.3])
        south = np.array([0.0, 0.0, -1.0, 0.3])
        assert M.quotient_distance(north, south) <= 1e-12


class TestCommutingFamily:
    def test_gram_diagonal(self, t4, rng):
        for _ in range(5):
            q = t4.manifold.sample_point(rng)
            A = kg.gram_matrix(t4.metric, t4.family, q)
            assert np.allclose(A, np.diag([-1.0, -1.0]), atol=1e-14)

    def test_combined_lines_close(self, t4):
        K = kg.combine_family(t4.family, (1.0, 0.0))
        cert = kg.detect_period(t4.manifold, K, np.zeros(4), 3.0)
        assert cert is not None and cert.period == pytest.approx(1.0, abs=1e-6)

    def test_index_two_signature(self, t4):
        assert tuple(t4.metric.signature) == (2, 2)
        assert t4.metric.role == "semi_riemannian"


class TestRegistry:
    def test_build_by_name(self):
        for name in kg.ENTRY_NAMES:
            entry = kg.build_entry(name)
            assert entry.name in (name, "commuting-t4")

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            kg.build_entry("no-such-entry")
