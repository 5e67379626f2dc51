"""Closed-field approximation by rational torus directions.

A Killing field with torus-generator coordinates (1, alpha) and alpha
irrational generates a dense (non-closed) one-parameter subgroup.
Substituting the continued-fraction convergents p/q of alpha yields
closed Killing fields whose integral lines all close, converging to the
original field uniformly — the computational content of the density
argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import UnsupportedCapabilityError
from .geometry import MetricField
from .killing import as_field, combine_family, certify_killing_field, energy_terms

# Convergent denominators beyond this exceed what a double can resolve.
MAX_DENOMINATOR = 10_000_000
RATIONAL_DETECT_DENOMINATOR = 1_000_000
CERTIFY_SAMPLES = 30  # sampled points of each approximant's Killing certificate


def continued_fraction_convergents(alpha: float, n: int, max_q: int = MAX_DENOMINATOR) -> list:
    """First n continued-fraction convergents of alpha, in lowest terms.

    Each convergent satisfies |alpha - p/q| < 1/q^2.  The expansion runs
    on the stored double and stops early when the remainder vanishes or
    the denominator exceeds ``max_q``, so rational inputs yield a
    terminating (possibly shorter) list.
    """
    if n < 1:
        return []
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    x = float(alpha)
    p_prev, q_prev = 1, 0
    p_cur, q_cur = int(math.floor(x)), 1
    out = [Fraction(p_cur, q_cur)]
    frac = x - math.floor(x)
    for _ in range(n - 1):
        if frac < 1e-12:
            break
        x = 1.0 / frac
        a = int(math.floor(x))
        frac = x - a
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        if q_next > max_q:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
        out.append(Fraction(p_cur, q_cur))
    return out


def detect_rational(alpha: float) -> Optional[Fraction]:
    """Return an exact fraction equal to alpha within double resolution.

    Rationality is certified only up to denominator
    ``RATIONAL_DETECT_DENOMINATOR``, and only when the stored double
    coincides with p/q to a few ulps: a looser threshold would fire on
    genuine irrationals, whose convergents with q <= 1e6 already come
    within ~1/q^2 = 1e-12.
    """
    return fraction_within(alpha, 4.0 * np.finfo(float).eps * max(1.0, abs(alpha)))


def fraction_within(alpha: float, tol: float) -> Optional[Fraction]:
    """The first convergent p/q of alpha with q <= ``RATIONAL_DETECT_DENOMINATOR``
    that lies within tol of alpha, or None."""
    convergents = continued_fraction_convergents(alpha, 64, max_q=RATIONAL_DETECT_DENOMINATOR)
    return next((f for f in convergents if abs(alpha - f.numerator / f.denominator) <= tol), None)


def _slope(K):
    """K's generator (a, b) in its torus and the slope b/a; raises
    UnsupportedCapabilityError for any other generator, or none."""
    if K.generator is None or K.basis is None:
        raise UnsupportedCapabilityError(f"field {K.label!r} carries no torus-generator coordinates")
    gen = np.asarray(K.generator, dtype=float)
    if len(gen) != 2 or gen[0] == 0.0:
        raise UnsupportedCapabilityError("generator must be of the form (a, b) with a != 0")
    return gen, float(gen[1] / gen[0])


def approximate_closed(K, n: int, metric: MetricField) -> list:
    """Closed Killing fields from the convergents of the generator slope.

    Returns a list of ``(field, fraction)`` pairs where the k-th field has
    generator (1, p_k/q_k) in K's torus ``K.basis``.  On an
    angle-normalized torus action every integral line of such a field is
    periodic with period dividing ``angle_period * q_k``.  A rational
    input slope yields the single exact field, already closed.  Each
    field is certified Killing for ``metric`` on ``CERTIFY_SAMPLES``
    points.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    K = as_field(K)
    gen, alpha = _slope(K)
    exact = detect_rational(alpha)
    fractions = [exact] if exact is not None else continued_fraction_convergents(alpha, n)
    out = []
    for frac in fractions:
        field = combine_family(K.basis, (gen[0], gen[0] * frac.numerator / frac.denominator))
        out.append((certify_killing_field(metric, field, n_samples=CERTIFY_SAMPLES), frac))
    return out


@dataclass(frozen=True, eq=False)
class ApproximationCertificate:
    """Uniform-convergence evidence for a sequence of closed approximants."""

    convergents: tuple            # of Fraction
    gaps: tuple                   # |alpha - p/q|
    sup_field_gaps: tuple         # sampled sup_p |K^n_p - K_p|
    min_f_signs: tuple            # whether min sampled g(K^n, K^n) < 0 persists

    def as_dict(self) -> dict:
        return {
            "convergents": [{"p": f.numerator, "q": f.denominator} for f in self.convergents],
            "gaps": list(self.gaps),
            "sup_field_gaps": list(self.sup_field_gaps),
            "min_f_signs": list(self.min_f_signs),
        }


def certify_uniform_convergence(
    g: MetricField, K, approximants: list, samples: int, seed: int
) -> ApproximationCertificate:
    """Sample sup-norm gaps and timelike persistence for the approximants
    on ``samples`` points of ``g.manifold`` seeded by ``seed``.

    Enforces the certificate invariants: strictly decreasing gaps, the
    best-approximation bound gap < 1/q^2, and non-increasing field gaps.
    Raises ValueError naming the first invariant the approximants fail,
    and for a sample count below 1 or a negative seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    K = as_field(K)
    _, alpha = _slope(K)
    rng = np.random.default_rng(seed)
    pts = g.manifold.sample_points(rng, samples)
    base_vals = K(pts)
    metric = g.matrix(pts)
    gaps = []
    sup_gaps = []
    signs = []
    fractions = []
    for field, frac in approximants:
        fractions.append(frac)
        gaps.append(abs(alpha - frac.numerator / frac.denominator))
        vals = as_field(field)(pts)
        sup_gaps.append(float(np.max(np.linalg.norm(vals - base_vals, axis=1))))
        signs.append(bool(np.min(energy_terms(metric, vals)[1]) < 0.0))
    for i in range(1, len(gaps)):
        if not gaps[i] < gaps[i - 1]:
            raise ValueError(f"convergent gaps must strictly decrease: {gaps[i - 1]:.3e} at {fractions[i - 1]}, "
                             f"{gaps[i]:.3e} at {fractions[i]}")
        if sup_gaps[i] > sup_gaps[i - 1] + 1e-12:
            raise ValueError(f"sup field gaps must not increase: {sup_gaps[i - 1]:.3e} at {fractions[i - 1]}, "
                             f"{sup_gaps[i]:.3e} at {fractions[i]}")
    for gap, frac in zip(gaps, fractions):
        if gap >= 1.0 / frac.denominator**2:
            raise ValueError(f"best-approximation bound gap < 1/q^2 violated: gap {gap:.3e} at {frac}")
    return ApproximationCertificate(tuple(fractions), tuple(gaps), tuple(sup_gaps), tuple(signs))
