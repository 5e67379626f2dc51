"""One record per Morse-Bott critical set.

f = g(K, K) is invariant under every isometry that commutes with K, so
a critical set of a closed field is a whole orbit of the torus its
commuting family generates.  ``find_critical_orbits`` merges candidates
modulo that torus where the family gives its orbits in closed form and
its members are certified Killing; every other field keeps flow-line
deduplication.  At q = 1 of the sqrt 2 approximants on stationary-s3 the
field is the Hopf field (iz, iw), and f depends on u = |z|² alone: two
minimum circles at f = -1 and a Morse-Bott maximum of nullity 1 on the
torus u = 2 - sqrt 2, f = 33 - 24 sqrt 2.
"""

import dataclasses
import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics import critical
from killing_geodesics.killing import linear_field, torus_orbit_distance
from killing_geodesics.rational import approximate_closed

SQRT2 = math.sqrt(2.0)
TORUS_F = 33.0 - 24.0 * SQRT2


def _rotation(d: int, i: int, j: int, rate: float = 1.0):
    A = np.zeros((d, d))
    A[j, i], A[i, j] = rate, -rate
    return A


def _expm_skew(S):
    """exp(S) for a real skew matrix, from the eigenvectors of iS."""
    w, V = np.linalg.eigh(1j * S)
    return (V @ np.diag(np.exp(-1j * w)) @ V.conj().T).real


def _brute_distance(A1, A2, p, r, n=48, rounds=6):
    """min over θ of |p - exp(θ₁A₁ + θ₂A₂) r|, by a grid refined around its minimum."""

    def dist(t1, t2):
        return float(np.linalg.norm(p - _expm_skew(t1 * A1 + t2 * A2) @ r))

    lo1, lo2, width = 0.0, 0.0, 2.0 * math.pi
    best = (math.inf, 0.0, 0.0)
    for _ in range(rounds):
        grid = np.linspace(0.0, width, n, endpoint=False)
        best = min((dist(lo1 + a, lo2 + b), lo1 + a, lo2 + b) for a in grid for b in grid)
        width = 4.0 * width / n
        lo1, lo2 = best[1] - width / 2, best[2] - width / 2
        n = 24
    return best[0]


@pytest.fixture(scope="module")
def hopf(s3):
    """The q = 1 approximant of stationary-s3: the Hopf field with basis (rot-z, rot-w)."""
    field, frac = approximate_closed(s3.killing, 1, metric=s3.metric)[0]
    assert (frac.numerator, frac.denominator) == (1, 1)
    return field


def _search(s3, K, budget, seed=42):
    return kg.find_critical_orbits(s3.metric, K, budget=budget, seed=seed, horizon=4.0 * math.pi)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(critical, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(critical, name, wrapped)
    return calls


class TestOneRecordPerSet:
    @pytest.mark.parametrize("budget", [24, 64])
    @pytest.mark.parametrize("seed", [42, 2040, 5151])
    def test_q1_gives_the_three_sets(self, s3, hopf, seed, budget):
        orbits = _search(s3, hopf, budget, seed)
        assert len(orbits) == 3
        circles, torus = orbits[:2], orbits[2]
        for o in circles:
            assert o.f_value == pytest.approx(-1.0, abs=1e-6)
            assert o.period == pytest.approx(2.0 * math.pi, abs=1e-6)
            assert o.classification == "min"
        # one circle is w = 0, the other z = 0
        assert sorted(round(float(np.hypot(*o.representative[:2])), 6) for o in circles) == [0.0, 1.0]
        assert torus.f_value == pytest.approx(TORUS_F, abs=1e-6)
        assert torus.classification == "degenerate" and torus.degenerate
        assert float(np.hypot(*torus.representative[:2])) ** 2 == pytest.approx(2.0 - SQRT2, abs=1e-6)

    def test_q1_flows_once_per_set(self, s3, hopf, monkeypatch):
        detects = _counting(monkeypatch, "detect_period")
        certifies = _counting(monkeypatch, "certify_killing_field")
        assert len(_search(s3, hopf, 24)) == 3
        assert len(detects) <= 3
        # both members certified once, on the first merge the family rule makes
        assert [args[1].label for args in certifies] == ["rot-z", "rot-w"]

    def test_approximants_certify_the_members_once(self, s3, monkeypatch):
        # the five approximants share one torus family: one search of all
        # of them certifies its members once
        certifies = _counting(monkeypatch, "certify_killing_field")
        report = kg.approximate_entry(s3, 5, seed=42)
        assert [row["orbit_count"] for row in report.approximation["per_approximant"]] == [3, 2, 2, 2, 2]
        assert [args[1].label for args in certifies] == ["rot-z", "rot-w"]

    def test_torus_distance_once_per_record(self, s3, hopf, monkeypatch):
        # each kept record measures every candidate at once, and no
        # candidate is measured on its own
        calls = []
        closed_form = critical.torus_orbit_distance

        def counted(K):
            distance = closed_form(K)

            def measured(p, r):
                calls.append(np.shape(p))
                return distance(p, r)

            return measured

        monkeypatch.setattr(critical, "torus_orbit_distance", counted)
        orbits = _search(s3, hopf, 24)
        assert len(orbits) == 3 and len(calls) == 3
        # one stack of every candidate per record, and more candidates than records
        assert calls[0][0] > 3 and calls == [calls[0]] * 3 and calls[0][1:] == (4,)

    def test_analyze_s3_merges_in_closed_form(self, s3, monkeypatch):
        # the torus rule comes first: every merge on stationary-s3 is made
        # in closed form, after one certification of each member
        dedups = _counting(monkeypatch, "min_distance_to_point")
        certifies = _counting(monkeypatch, "certify_killing_field")
        report = kg.analyze_entry(s3, seed=42)
        assert len(report.critical_orbits) == 2
        assert dedups == []
        assert [args[1].label for args in certifies] == ["rot-z", "rot-w"]

    def test_bare_field_merges_by_flow_line(self, s3, monkeypatch):
        # a bare callable carries no torus basis: its candidates merge by
        # flow line alone, into the records the torus rule gives
        ref = kg.find_critical_orbits(s3.metric, s3.killing, budget=64, seed=42)
        dedups = _counting(monkeypatch, "min_distance_to_point")
        certifies = _counting(monkeypatch, "certify_killing_field")
        bare = kg.find_critical_orbits(s3.metric, lambda p: s3.killing(p), budget=64, seed=42)
        assert len(dedups) > 0 and certifies == []
        assert len(bare) == len(ref) == 2
        for o, r in zip(bare, ref):
            assert o.f_value == pytest.approx(r.f_value, abs=1e-9)
            assert o.classification == r.classification
            assert o.period == pytest.approx(r.period, abs=1e-6)


class TestTorusDistance:
    def test_matches_brute_force_on_the_gallery_family(self, s3, hopf):
        distance = torus_orbit_distance(hopf)
        A1, A2 = (m.linear for m in hopf.basis.members)
        rng = np.random.default_rng(7)
        for _ in range(3):
            p, r = s3.manifold.sample_points(rng, 2)
            assert distance(p, r) == pytest.approx(_brute_distance(A1, A2, p, r), abs=1e-6)

    def test_matches_brute_force_with_a_fixed_direction(self):
        # rates (1, 2) and (3, -1) on two planes of R^5, turned by a random
        # rotation, and one direction every member fixes
        Q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(5, 5)))
        A1 = Q @ (_rotation(5, 0, 1) + _rotation(5, 2, 3, 2.0)) @ Q.T
        A2 = Q @ (_rotation(5, 0, 1, 3.0) + _rotation(5, 2, 3, -1.0)) @ Q.T
        members = (linear_field(A1), linear_field(A2))
        distance = torus_orbit_distance(linear_field(A1 + 0.5 * A2, basis=kg.KillingFamily(members)))
        rng = np.random.default_rng(8)
        for _ in range(3):
            p, r = rng.normal(size=(2, 5))
            assert distance(p, r) == pytest.approx(_brute_distance(A1, A2, p, r), abs=1e-6)
        assert distance(r, r) == 0.0

    def test_stack_is_its_points(self, s3, hopf):
        # a stack of points rounds each row as the one point
        distance = torus_orbit_distance(hopf)
        P = s3.manifold.sample_points(np.random.default_rng(9), 200)
        r = P[0]
        rows = np.array([distance(p, r) for p in P])
        assert np.array_equal(distance(P, r), rows)
        assert np.array_equal(distance(P[:1], r), rows[:1])
        assert rows[0] == 0.0

    def test_scale_free_in_the_field(self, timelike_somewhere):
        # K -> cK changes no distance: the members' tolerances are relative
        # to the members, and the bracket with K to |A_i|·|K|
        g, K = timelike_somewhere
        P = g.manifold.sample_points(np.random.default_rng(10), 50)
        unit = [torus_orbit_distance(K)(P, r) for r in P[:3]]
        for c in (2.0**-20, 1.0, 3.0, 2.0**20):
            distance = torus_orbit_distance(linear_field(c * K.linear, basis=K.basis))
            assert distance is not None, c
            assert all(np.array_equal(distance(P, r), u) for r, u in zip(P[:3], unit)), c

    def test_no_closed_form_without_a_product_of_circles(self, flat_torus, t4):
        hopf_matrix = _rotation(4, 0, 1) + _rotation(4, 2, 3)
        cases = {
            # one 4-dim eigen-group: the orbit is a circle, not a torus
            "hopf alone": (hopf_matrix, [hopf_matrix]),
            # two planes at rates (1, 2) turned by one angle: rank 1 < 2
            "rank-deficient": (hopf_matrix, [_rotation(4, 0, 1) + _rotation(4, 2, 3, 2.0)]),
            "non-commuting": (hopf_matrix, [_rotation(4, 0, 1), _rotation(4, 1, 2)]),
            "not skew": (hopf_matrix, [_rotation(4, 0, 1) + np.eye(4)]),
            "K not commuting": (_rotation(4, 1, 2), [_rotation(4, 0, 1), _rotation(4, 2, 3)]),
        }
        for name, (K, members) in cases.items():
            field = linear_field(K, basis=kg.KillingFamily(tuple(linear_field(A) for A in members)))
            assert torus_orbit_distance(field) is None, name
        # constant members have no matrix
        for entry in (flat_torus, t4):
            assert entry.killing.basis and torus_orbit_distance(entry.killing) is None, entry.name
        assert torus_orbit_distance(linear_field(hopf_matrix)) is None


def _records(orbits):
    return [(o.f_value, o.period, o.classification, o.geodesic_residual, tuple(o.representative)) for o in orbits]


class TestFallbacks:
    """Fields whose family does not give merges keep the flow-line list:
    the same records as the same field with no family at all."""

    BUDGET = 8

    def _flow_line_records(self, s3, K):
        return _records(_search(s3, dataclasses.replace(K, basis=None), self.BUDGET))

    def test_hopf_alone(self, s3, hopf):
        K = dataclasses.replace(hopf, basis=kg.KillingFamily((hopf,)))
        orbits = _search(s3, K, self.BUDGET)
        assert len(orbits) > 3
        assert _records(orbits) == self._flow_line_records(s3, hopf)

    def test_non_commuting_member(self, s3, hopf):
        twist = linear_field(_rotation(4, 1, 2), label="twist")
        K = dataclasses.replace(hopf, basis=kg.KillingFamily((hopf.basis.members[0], twist)))
        assert _records(_search(s3, K, self.BUDGET)) == self._flow_line_records(s3, hopf)

    def test_non_killing_members(self, s3, hopf, monkeypatch):
        # U(1)² diagonal in the basis (z ± w)/sqrt 2: skew, commuting, and
        # commuting with the Hopf field, but not isometries of g, whose
        # reflection field (iz, i sqrt 2 w) they do not preserve
        Q = np.kron([[1.0, 1.0], [1.0, -1.0]], np.eye(2)) / SQRT2
        D1 = Q.T @ _rotation(4, 0, 1) @ Q
        D2 = Q.T @ _rotation(4, 2, 3) @ Q
        assert np.allclose(D1 + D2, hopf.linear, atol=1e-15)
        members = (linear_field(D1, label="d1"), linear_field(D2, label="d2"))
        K = dataclasses.replace(hopf, basis=kg.KillingFamily(members))
        assert torus_orbit_distance(K) is not None
        assert not kg.certify_killing_field(s3.metric, K.basis.members[0]).certified
        certifies = _counting(monkeypatch, "certify_killing_field")
        orbits = _search(s3, K, self.BUDGET)
        assert certifies  # the family rule was reached, and its certificate refused it
        assert len(orbits) > 3
        assert _records(orbits) == self._flow_line_records(s3, hopf)
