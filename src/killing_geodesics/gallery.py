"""Ready-to-analyze example manifolds with known ground truth.

Every constructor assembles a manifold, a metric, a certified Killing
field (whose ``basis`` is its certified family, where it has one) and
an ``expected`` record the tests and the batch front door check
against.  ``ENTRIES`` maps each name to its constructor, the one
``build_entry`` parameter it takes (or None) and that parameter's
default.  The five entries:

* ``flat-torus``      flat Lorentzian 2-torus with a constant field
* ``klein-bottle``    Lorentzian Klein bottle, timelike unit field
* ``stationary-s3``   the 3-sphere with the stationary metric built from
                      a (generically dense) torus direction
* ``mapping-torus``   projective-plane mapping torus of an irrational
                      rotation, one closed flow line
* ``commuting-t4``    flat 4-torus of index 2 with a commuting pair
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    Array,
    ManifoldModel,
    MetricField,
    constant,
    inner,
    make_deck_generator,
    matvec,
    signature_of_gram,
    stackwise,
    tangent_gram,
)
from .killing import (
    KillingFamily,
    KillingField,
    combine_family,
    certify_killing_field,
    killing_residual,
    linear_field,
    make_killing_family,
)
from .killing import riemann_to_lorentz
from .rational import detect_rational

TWO_PI = 2.0 * math.pi
VALIDATE_SEED = 11  # sample points of validate_entry


@dataclass(frozen=True, eq=False)
class GalleryEntry:
    name: str
    manifold: ManifoldModel
    metric: MetricField
    killing: KillingField
    expected: dict
    angle_period: float
    probe_point: Array
    exceptional_starts: tuple = ()
    orbit_coordinate: Optional[Callable[[Array], float]] = None

    @property
    def family(self) -> Optional[KillingFamily]:
        """The certified torus family K lies in: ``killing.basis``."""
        return self.killing.basis


def _constant_metric(M: ManifoldModel, diag, signature=None) -> MetricField:
    """Constant ambient diagonal metric; ``signature`` is the intrinsic
    one on the tangent space (inferred from the diagonal only when the
    manifold fills its chart)."""
    G = np.diag(np.asarray(diag, dtype=float))
    n = M.ambient_dim
    zero = np.zeros((n, n, n))
    if signature is None:
        if M.intrinsic_dim != M.ambient_dim:
            raise ValueError("constrained manifolds need an explicit signature")
        signature = (
            int(np.sum(np.asarray(diag) > 0)),
            int(np.sum(np.asarray(diag) < 0)),
        )
    return MetricField(M, constant(G), tuple(signature), jacobian=constant(zero))


def _constant_field(g: MetricField, components, label) -> KillingField:
    v = np.asarray(components, dtype=float)
    n = len(v)
    zero = np.zeros((n, n))
    return certify_killing_field(
        g,
        KillingField(
            stackwise(lambda p, _v=constant(v): _v(p).copy()),
            label=label,
            jacobian=constant(zero),
        ),
    )


def _lattice_distance(pts: Array, q: Array) -> Array:
    d = pts - q
    d = d - np.round(d)
    return np.linalg.norm(d, axis=1)


# ---------------------------------------------------------------------------
# flat tori: the Lorentzian 2-torus


def _flat_torus(name: str, diag, fields: dict, coeffs, expected: dict, probe) -> GalleryEntry:
    """R^n/Z^n, n = len(diag), with the constant metric diag(``diag``).

    The deck group is generated by the unit translations e_i.  The family
    holds the constant coordinate fields ``fields`` (label -> axis), and K
    is their combination ``coeffs``.
    """
    n = len(diag)
    M = ManifoldModel(
        ambient_dim=n,
        deck_generators=tuple(make_deck_generator(i, np.eye(n), np.eye(n)[i]) for i in range(n)),
        fundamental_box=np.array([[0.0, 1.0]] * n),
        quotient_distance_fn=_lattice_distance,
    )
    g = _constant_metric(M, diag)
    family = make_killing_family(g, [_constant_field(g, np.eye(n)[axis], label) for label, axis in fields.items()])
    K = certify_killing_field(g, combine_family(family, coeffs))
    return GalleryEntry(
        name=name,
        manifold=M,
        metric=g,
        killing=K,
        expected=expected,
        angle_period=1.0,
        probe_point=np.array(probe),
    )


def make_flat_lorentzian_torus(slope) -> GalleryEntry:
    """T^2 = R^2/Z^2 with dx^2 - dt^2 and the constant field a ∂x + b ∂t.

    The energy is the constant a^2 - b^2, so every point is critical and
    every integral line is a geodesic; lines close exactly when the slope
    is rational (including the axis cases).
    """
    if len(slope) != 2:
        raise ValueError(f"slope needs 2 components, got {len(slope)}")
    a, b = (float(slope[0]), float(slope[1]))
    if a == 0.0 and b == 0.0:
        raise ValueError("slope must be nonzero")
    expected = {
        "f_constant": a * a - b * b,
        "degenerate_constant": True,
        "periodic": (a == 0.0) or (b == 0.0) or (detect_rational(b / a) is not None),
    }
    return _flat_torus("flat-torus", [1.0, -1.0], {"dx": 0, "dt": 1}, (a, b), expected, [0.2, 0.35])


# ---------------------------------------------------------------------------
# Lorentzian Klein bottle


def _klein_distance(pts: Array, q: Array) -> Array:
    dx = pts[:, 0] - q[0]
    dt = pts[:, 1] - q[1]
    dx1 = dx - np.round(dx)
    dt1 = dt - 2.0 * np.round(dt / 2.0)
    d1 = np.hypot(dx1, dt1)
    sx = -pts[:, 0] - q[0]
    st = pts[:, 1] + 1.0 - q[1]
    dx2 = sx - np.round(sx)
    dt2 = st - 2.0 * np.round(st / 2.0)
    d2 = np.hypot(dx2, dt2)
    return np.minimum(d1, d2)


def make_klein_bottle() -> GalleryEntry:
    """Quotient of the Minkowski plane by (x,t)->(x+1,t), (x,t)->(1-x,t+1).

    The unit timelike field ∂t has constant energy -1; the circle action
    it induces has exactly two exceptional fibers, over x = 0 and x = 1/2,
    of period 1, while every other fiber has period 2.  The orbit space
    is the interval [0, 1/2].
    """
    M = ManifoldModel(
        ambient_dim=2,
        deck_generators=(
            make_deck_generator(0, np.eye(2), [1.0, 0.0]),
            make_deck_generator(1, np.array([[-1.0, 0.0], [0.0, 1.0]]), [1.0, 1.0]),
        ),
        fundamental_box=np.array([[0.0, 1.0], [0.0, 1.0]]),
        quotient_distance_fn=_klein_distance,
    )
    g = _constant_metric(M, [1.0, -1.0])
    K = _constant_field(g, [0.0, 1.0], "dt")

    def orbit_coordinate(p) -> float:
        x = float(p[0]) % 1.0
        return min(x, 1.0 - x)

    expected = {
        "f_constant": -1.0,
        "degenerate_constant": True,
        "exceptional_x": (0.0, 0.5),
        "exceptional_period": 1.0,
        "generic_period": 2.0,
        "orbit_space": (0.0, 0.5),
    }
    return GalleryEntry(
        name="klein-bottle",
        manifold=M,
        metric=g,
        killing=K,
        expected=expected,
        angle_period=1.0,
        probe_point=np.array([0.3, 0.0]),
        exceptional_starts=(np.array([0.0, 0.0]), np.array([0.5, 0.0])),
        orbit_coordinate=orbit_coordinate,
    )


# ---------------------------------------------------------------------------
# stationary 3-sphere


def _sphere_sampler(dim: int):
    def sampler(rng, n):
        v = rng.normal(size=(n, dim))
        return v / np.sqrt(inner(v, v))[:, None]

    return sampler


def make_stationary_sphere(alpha: float) -> GalleryEntry:
    """S^3 in C^2 with the Lorentzian metric built from K = (iz, i alpha w).

    The round metric is converted through the reflection formula, making
    K timelike everywhere with energy -(|z|^2 + alpha^2 |w|^2).  For
    irrational alpha exactly two integral lines are periodic: the circles
    w = 0 (energy -1, period 2 pi) and z = 0 (energy -alpha^2, period
    2 pi / alpha).
    """
    alpha = float(alpha)
    M = ManifoldModel(
        ambient_dim=4,
        constraint=stackwise(lambda p: inner(p, p) - 1.0),
        constraint_grad=stackwise(lambda p: 2.0 * p),
        constraint_hess=constant(2.0 * np.eye(4)),
        sampler=_sphere_sampler(4),
    )
    round_metric = _constant_metric(M, [1.0, 1.0, 1.0, 1.0], signature=(3, 0))
    A1 = np.zeros((4, 4))
    A1[0, 1] = -1.0
    A1[1, 0] = 1.0
    A2 = np.zeros((4, 4))
    A2[2, 3] = -1.0
    A2[3, 2] = 1.0
    K1 = certify_killing_field(round_metric, linear_field(A1, label="rot-z"))
    K2 = certify_killing_field(round_metric, linear_field(A2, label="rot-w"))
    family = make_killing_family(round_metric, (K1, K2))
    K = combine_family(family, (1.0, alpha))
    g = riemann_to_lorentz(round_metric, K)
    # alpha = 0 makes K vanish on the w-circle; surface the conversion error
    g.matrix(np.array([0.0, 0.0, 1.0, 0.0]))
    K = certify_killing_field(g, K)
    expected = {
        "degenerate_constant": False,
        "critical_f_values": (-max(1.0, alpha * alpha), -min(1.0, alpha * alpha)),
        "f_values": (-1.0, -alpha * alpha),
        "periods": (TWO_PI, TWO_PI / abs(alpha)) if alpha != 0 else (TWO_PI,),
        "orbit_count": 2,
        "all_lines_periodic": detect_rational(alpha) is not None,
    }
    u = 0.37
    probe = np.array([math.sqrt(1.0 - u), 0.0, math.sqrt(u), 0.0])
    return GalleryEntry(
        name="stationary-s3",
        manifold=M,
        metric=g,
        killing=K,
        expected=expected,
        angle_period=TWO_PI,
        probe_point=probe,
        exceptional_starts=(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])),
    )


# ---------------------------------------------------------------------------
# mapping torus of an irrational rotation on the projective plane


def _mapping_torus_distance(theta: float):
    def qdist(pts: Array, q: Array) -> Array:
        dt = q[3] - pts[:, 3]
        best = None
        for shift in (-1, 0, 1):
            n = np.round(dt) + shift
            ang = n * theta
            c = np.cos(ang)
            s = np.sin(ang)
            rx = c * pts[:, 0] - s * pts[:, 1]
            ry = s * pts[:, 0] + c * pts[:, 1]
            rz = pts[:, 2]
            tt = pts[:, 3] + n
            for sign in (1.0, -1.0):
                d = np.sqrt(
                    (sign * rx - q[0]) ** 2
                    + (sign * ry - q[1]) ** 2
                    + (sign * rz - q[2]) ** 2
                    + (tt - q[3]) ** 2
                )
                best = d if best is None else np.minimum(best, d)
        return best

    return qdist


def make_mapping_torus(theta: float) -> GalleryEntry:
    """(S^2 x R) / <antipodal, (p,t)->(R_theta p, t+1)> with h ⊕ (-dt^2).

    The rotation angle must not be a rational multiple of pi (checked up
    to denominator 1e6), so the induced projective-plane isometry has the
    pole class as its only periodic point and the timelike unit field ∂t
    has exactly one closed integral line, of period 1.
    """
    theta = float(theta)
    if detect_rational(theta / math.pi) is not None:
        raise ValueError("theta is a rational multiple of pi: periodic points exist")
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = math.cos(theta)
    rot[0, 1] = -math.sin(theta)
    rot[1, 0] = math.sin(theta)

    hess = np.diag([2.0, 2.0, 2.0, 0.0])
    scale = np.diag(hess).copy()

    def sphere_constraint(p):
        x = np.asarray(p)[..., :3]
        return inner(x, x) - 1.0

    def sphere_grad(p, _s=scale):
        return _s * p

    def sampler(rng, n):
        # row by row: the stream holds each point's normal triple, then its uniform t
        return [[*_sphere_sampler(3)(rng, 1)[0], rng.uniform(0.0, 1.0)] for _ in range(n)]

    M = ManifoldModel(
        ambient_dim=4,
        constraint=stackwise(sphere_constraint),
        constraint_grad=stackwise(sphere_grad),
        constraint_hess=constant(hess),
        deck_generators=(
            make_deck_generator(0, np.diag([-1.0, -1.0, -1.0, 1.0]), np.zeros(4)),
            make_deck_generator(1, rot, [0.0, 0.0, 0.0, 1.0]),
        ),
        fundamental_box=np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [0.0, 1.0]]),
        sampler=sampler,
        quotient_distance_fn=_mapping_torus_distance(theta),
    )
    g = _constant_metric(M, [1.0, 1.0, 1.0, -1.0], signature=(2, 1))
    K = _constant_field(g, [0.0, 0.0, 0.0, 1.0], "dt")
    expected = {
        "f_constant": -1.0,
        "degenerate_constant": True,
        "periodic_orbit_count": 1,
        "pole_period": 1.0,
    }
    return GalleryEntry(
        name="mapping-torus",
        manifold=M,
        metric=g,
        killing=K,
        expected=expected,
        angle_period=1.0,
        probe_point=np.array([1.0, 0.0, 0.0, 0.0]),
        exceptional_starts=(np.array([0.0, 0.0, 1.0, 0.0]),),
    )


# ---------------------------------------------------------------------------
# commuting families on flat tori


def make_commuting_family_example() -> GalleryEntry:
    """Flat torus T^4 with two commuting unit timelike translation fields.

    The metric is dx^2 + dy^2 - dt1^2 - dt2^2 and the family {∂t1, ∂t2},
    whose Gram matrix is constantly diag(-1, -1).  Flow-translating a
    closed geodesic by the second field produces pairwise distinct closed
    geodesics, the sample-scale form of the infinite-family argument.
    """
    expected = {
        "f_constant": -1.0,
        "degenerate_constant": True,
        "gram_diagonal": (-1.0, -1.0),
        "periodic": True,
    }
    return _flat_torus(
        "commuting-t4", [1.0, 1.0, -1.0, -1.0], {"dt1": 2, "dt2": 3}, (1.0, 0.0), expected, [0.1, 0.2, 0.3, 0.4]
    )


# ---------------------------------------------------------------------------
# registry and validation

# name -> (constructor, the one build_entry parameter it takes or None,
# that parameter's default)
ENTRIES = {
    "flat-torus": (make_flat_lorentzian_torus, "slope", (0.0, 1.0)),
    "klein-bottle": (make_klein_bottle, None, None),
    "stationary-s3": (make_stationary_sphere, "alpha", math.sqrt(2.0)),
    "mapping-torus": (make_mapping_torus, "theta", 1.0),
    "commuting-t4": (make_commuting_family_example, None, None),
}
ENTRY_NAMES = tuple(ENTRIES)


def build_entry(
    name: str,
    alpha: Optional[float] = None,
    slope=None,
    theta: Optional[float] = None,
) -> GalleryEntry:
    """The entry ``name`` of ``ENTRIES``, built with its parameter if given,
    else with its default.  A parameter the entry does not take, or one
    with a component that is not finite, raises ``ValueError``."""
    if name not in ENTRIES:
        raise KeyError(f"unknown gallery entry {name!r}")
    make, param, default = ENTRIES[name]
    given = {"alpha": alpha, "slope": slope, "theta": theta}
    for k, v in given.items():
        if v is not None and k != param:
            raise ValueError(f"{name} takes no {k}")
    if param is None:
        return make()
    value = default if given[param] is None else given[param]
    if not np.all(np.isfinite(np.asarray(value, dtype=float))):
        raise ValueError(f"{param} must be finite")
    return make(value)


def validate_entry(entry: GalleryEntry, n_samples: int = 100) -> dict:
    """Check the structural invariants of a gallery entry on ``n_samples``
    points seeded by ``VALIDATE_SEED``.

    Returns the worst residuals found: metric symmetry, signature match,
    deck isometry defect (the tangent Gram matrix pushed through each
    generator's linear part against the one at the start, on the first
    50 points), deck constraint defect and Killing residual.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    M = entry.manifold
    g = entry.metric
    pts = M.sample_points(np.random.default_rng(VALIDATE_SEED), n_samples)
    G = g.matrix(pts)
    sym = float(np.abs(G - np.swapaxes(G, -1, -2)).max())
    grams = tangent_gram(g, pts)
    signature_ok = all(signature_of_gram(gram) == tuple(g.signature) for gram in grams)
    first = pts[:50]
    basis = M.tangent_basis(first)
    deck_isometry = 0.0
    deck_constraint = 0.0
    for gen in M.deck_generators:
        Q = matvec(gen.matrix, first) + gen.offset
        if M.constraint is not None:
            deck_constraint = max(deck_constraint, M.constraint_residual(Q))
        pushed = basis @ gen.matrix.T
        moved = pushed @ g.matrix(M.project_point(Q)) @ np.swapaxes(pushed, -1, -2)
        deck_isometry = max(deck_isometry, float(np.abs(moved - grams[:50]).max()))
    return {
        "metric_symmetry": sym,
        "signature_ok": signature_ok,
        "deck_isometry": deck_isometry,
        "deck_constraint": deck_constraint,
        "killing_residual_max": killing_residual(g, entry.killing, first),
    }
