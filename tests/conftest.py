import dataclasses
import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics.geometry import make_deck_generator
from killing_geodesics.killing import linear_field

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="session")
def flat_torus():
    """Timelike unit field on the flat Lorentzian 2-torus."""
    return kg.make_flat_lorentzian_torus((0.0, 1.0))


@pytest.fixture(scope="session")
def flat_torus_null():
    return kg.make_flat_lorentzian_torus((1.0, 1.0))


@pytest.fixture(scope="session")
def flat_torus_irrational():
    return kg.make_flat_lorentzian_torus((1.0, SQRT2))


@pytest.fixture(scope="session")
def klein():
    return kg.make_klein_bottle()


@pytest.fixture(scope="session")
def s3():
    return kg.make_stationary_sphere(SQRT2)


@pytest.fixture(scope="session")
def rp3(s3):
    """The manifold of the S³ entry modulo p -> -p, RP³.  A closed-form run
    is scanned only where there are deck generators, so this is where the
    scan of a skew linear field is tested: the circle (1, 0, 0, 0) closes
    at π, half its period on S³."""
    return dataclasses.replace(s3.manifold, deck_generators=(make_deck_generator(0, -np.eye(4), np.zeros(4)),))


@pytest.fixture(scope="session")
def timelike_somewhere(s3):
    """The paper's weaker hypothesis: (g, K) with K = rot-z - √2 rot-w
    timelike only near two circles of g = riemann_to_lorentz(round S³,
    rot-z + rot-w)."""
    rot_z, rot_w = s3.family.members
    round_g = kg.MetricField(s3.manifold, lambda p: np.eye(4), (3, 0), jacobian=lambda p: np.zeros((4, 4, 4)))
    g = kg.riemann_to_lorentz(round_g, kg.combine_family(s3.family, (1.0, 1.0)))
    K = kg.certify_killing_field(g, linear_field(rot_z.linear - SQRT2 * rot_w.linear, basis=s3.family))
    return g, K


@pytest.fixture(scope="session")
def mapping_torus():
    return kg.make_mapping_torus(1.0)


@pytest.fixture(scope="session")
def t4():
    return kg.make_commuting_family_example()


@pytest.fixture(scope="session")
def lorentzian_entries(flat_torus, klein, s3, mapping_torus):
    return [flat_torus, klein, s3, mapping_torus]


@pytest.fixture(scope="session")
def all_entries(lorentzian_entries, t4):
    return lorentzian_entries + [t4]


def assert_draws_of_one(M, n=17, seed=3):
    """``sample_points(rng, n)`` is n ``sample_point`` draws bit for bit,
    and leaves its generator where they leave theirs."""
    stack_rng, point_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = M.sample_points(stack_rng, n)
    points = np.array([M.sample_point(point_rng) for _ in range(n)])
    assert stack.shape == points.shape == (n, M.ambient_dim)
    assert stack.tobytes() == points.tobytes()
    assert stack_rng.uniform() == point_rng.uniform()


def random_tangent(M, p, rng):
    return M.tangent_project(p, rng.normal(size=M.ambient_dim))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
