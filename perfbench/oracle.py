"""Known answers for the benchmark workloads.

Every expected value comes from a closed form or from the gallery
entry's ``expected`` record, never from an earlier run of the program.

A failed check carries ``known_defect=True`` for two defects only:
``detect_period`` reporting an integer multiple of the minimal period
(ROADMAP item 5), and ``solve_rk45`` raising StiffnessError when the
step left before the horizon is rounding residue far below MIN_STEP.
Such failures are counted; any other failure also marks the run
incorrect.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from killing_geodesics.errors import StiffnessError
from killing_geodesics.integrate import MIN_STEP

PERIOD_TOL = 1e-6          # flows.PERIOD_TOL; acceptance criteria 3-5
GEODESIC_TOL = 1e-5        # flows.GEODESIC_TOL; acceptance criterion 3
KILLING_TOL = 1e-8         # report.KILLING_TOL
ENERGY_DRIFT_TOL = 1e-9    # acceptance criterion 7, for a unit-scale field
F_TOL = 1e-6               # acceptance criterion 3
F_CONSTANT_TOL = 1e-12     # acceptance criterion 4
ON_AXIS = 1e-12            # a start this close to a circle lies on it


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    known_defect: bool = False


OK = Verdict(True)


def merge(verdicts) -> Verdict:
    """One verdict for an operation made of several checks."""
    bad = [v for v in verdicts if not v.ok]
    if not bad:
        return OK
    return Verdict(False, "; ".join(v.detail for v in bad), all(v.known_defect for v in bad))


_COLLAPSE = re.compile(r"step collapsed to (\S+) at t = (\S+)")


def raised(exc: Exception) -> Verdict:
    """An operation that raised.

    solve_rk45 raises once a step falls below MIN_STEP * max(1, t).  A
    genuine collapse trips that limit within the controller's 5x step
    change; a step ten times smaller can only be the remainder t_end - t
    left by rounding, one step short of the horizon.
    """
    detail = f"raised {type(exc).__name__}: {exc}"
    m = _COLLAPSE.search(str(exc)) if isinstance(exc, StiffnessError) else None
    if m and float(m[1]) < 0.1 * MIN_STEP * max(1.0, float(m[2])):
        return Verdict(False, detail + " (the final step is rounding residue)", True)
    return Verdict(False, detail)


def check(condition: bool, detail: str) -> Verdict:
    return OK if condition else Verdict(False, detail)


def check_period(reported: Optional[float], expected: Optional[float], tol: float = PERIOD_TOL) -> Verdict:
    """Compare a reported period (None: no certificate) with the minimal one."""
    if expected is None:
        return check(reported is None, f"period {reported!r} where no orbit closes")
    if reported is None:
        return Verdict(False, f"no period where the minimal one is {expected:.12g}")
    if abs(reported - expected) <= tol:
        return OK
    k = round(reported / expected)
    if k >= 2 and abs(reported - k * expected) <= k * tol:
        detail = f"period {reported:.12g} is {k} x the minimal {expected:.12g} (ROADMAP item 5)"
        return Verdict(False, detail, True)
    return Verdict(False, f"period {reported:.12g} where the minimal one is {expected:.12g}")


# ---------------------------------------------------------------------------
# minimal periods by deck arithmetic, for the unit-scale field of each entry


def minimal_period(key: str, entry, p0) -> Optional[float]:
    """Minimal period of the integral curve of the entry's field through p0.

    ``key`` names the entry as the period scan does; ``flat-irrational``
    is the flat torus with slope (1, sqrt 2).
    """
    p0 = np.asarray(p0, dtype=float)
    if key in ("flat-torus", "commuting-t4"):
        # unit speed along one lattice generator: back after time 1
        return 1.0
    if key == "flat-irrational":
        return None
    if key == "klein-bottle":
        exceptional = abs(2.0 * p0[0] - round(2.0 * p0[0])) <= ON_AXIS
        return entry.expected["exceptional_period" if exceptional else "generic_period"]
    if key == "mapping-torus":
        # the rotation angle is not a rational multiple of pi: only the
        # pole class (on the rotation axis) returns
        pole = math.hypot(p0[0], p0[1]) <= ON_AXIS
        return entry.expected["pole_period"] if pole else None
    if key == "stationary-s3":
        # periods[0] on the circle w = 0, periods[1] on z = 0; every other
        # line winds densely when alpha is irrational
        z, w = math.hypot(p0[0], p0[1]), math.hypot(p0[2], p0[3])
        if w <= ON_AXIS:
            return entry.expected["periods"][0]
        if z <= ON_AXIS:
            return entry.expected["periods"][1]
        return None
    raise KeyError(key)


def check_drift(drift: float, scale: float) -> Verdict:
    """Geodesic energy drift over one period, for the field scaled by ``scale``.

    The energy is quadratic in the velocity, so rescaling K by c rescales
    it, and its drift, by c**2; the unit-scale bound is applied to
    drift / c**2.
    """
    bound = ENERGY_DRIFT_TOL * scale * scale
    return check(drift <= bound, f"energy drift {drift:.3e} above {bound:.1e}")


# ---------------------------------------------------------------------------
# reports


def check_stationary_report(entry, report) -> Verdict:
    """analyze_entry on stationary-s3: exactly the two circles (criterion 3)."""
    exp = entry.expected
    # f_values[i] and periods[i] belong to the same circle; the lower f is
    # the minimum of f, the higher one the maximum
    want = sorted(zip(exp["f_values"], exp["periods"]))
    got = report.critical_orbits
    out = [
        check(report.killing_residual_max <= KILLING_TOL, f"Killing residual {report.killing_residual_max:.3e}"),
        check(len(got) == exp["orbit_count"], f"{len(got)} orbits, expected {exp['orbit_count']}"),
    ]
    if len(got) == len(want):
        for orbit, (f, period), label in zip(got, want, ("min", "max")):
            out += [
                check(abs(orbit["f_value"] - f) <= F_TOL, f"f {orbit['f_value']!r} where {f!r}"),
                check(orbit["classification"] == label, f"{orbit['classification']} where {label}"),
                check(orbit["geodesic_residual"] <= GEODESIC_TOL, f"residual {orbit['geodesic_residual']:.3e}"),
                check_period(orbit["period"], period),
            ]
    return merge(out)


def check_quotient_report(key: str, entry, report) -> Verdict:
    """analyze_entry on a deck-group quotient with constant f: the
    degenerate-constant marker plus the fibre scan."""
    got = report.critical_orbits
    out = [
        check(report.killing_residual_max <= KILLING_TOL, f"Killing residual {report.killing_residual_max:.3e}"),
        check(report.degenerate_constant, "not flagged degenerate-constant"),
        check(len(got) == 1, f"{len(got)} critical orbits, expected the one marker"),
    ]
    if len(got) == 1:
        orbit = got[0]
        f = entry.expected["f_constant"]
        out += [
            check(orbit["classification"] == "degenerate_constant", orbit["classification"]),
            check(abs(orbit["f_value"] - f) <= F_CONSTANT_TOL, f"f {orbit['f_value']!r} where {f!r}"),
            check(orbit["geodesic_residual"] <= GEODESIC_TOL, f"residual {orbit['geodesic_residual']:.3e}"),
            check_period(orbit["period"], minimal_period(key, entry, orbit["representative"])),
        ]
    for row in report.fiber_scan or ():
        out.append(check_period(row["period"], minimal_period(key, entry, row["start"])))
    return merge(out)


def sqrt2_convergents(n: int) -> list:
    """(p, q) of the first n convergents of sqrt 2 = [1; 2, 2, 2, ...]."""
    out = [(1, 1)]
    p0, q0, p1, q1 = 1, 0, 1, 1
    while len(out) < n:
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        out.append((p1, q1))
    return out


def check_approximation(entry, report, n: int, samples: int, seed: int) -> Verdict:
    """approximate_entry on stationary-s3 with alpha = sqrt 2 (criterion 6).

    The report carries each approximant's orbit count but not the orbits,
    so "at least two certified orbits" is checked as orbit_count >= 2.
    """
    appr = report.approximation
    want = sqrt2_convergents(n)
    got = [(c["p"], c["q"]) for c in appr["convergents"]]
    out = [
        check(report.killing_residual_max <= KILLING_TOL, f"Killing residual {report.killing_residual_max:.3e}"),
        check(got == want, f"convergents {got} where {want}"),
    ]
    if got != want:
        return merge(out)
    # |K_n - K| = |alpha - p/q| |w| pointwise; the certificate samples the
    # same points as approximate_entry (its seed, `samples` draws)
    pts = entry.manifold.sample_points(np.random.default_rng(seed), samples)
    sup_w = float(np.max(np.hypot(pts[:, 2], pts[:, 3])))
    for (p, q), gap, field_gap, row in zip(want, appr["gaps"], appr["sup_field_gaps"], appr["per_approximant"]):
        exact = abs(math.sqrt(2.0) - p / q)
        out += [
            check(abs(gap - exact) <= 1e-15, f"gap {gap!r} for {p}/{q} where {exact!r}"),
            check(gap < 1.0 / (q * q), f"gap {gap!r} not below 1/q^2 for {p}/{q}"),
            check(abs(field_gap - exact * sup_w) <= 1e-6 * exact * sup_w, f"field gap {field_gap!r} for {p}/{q}"),
            check_period(row["closure_period"], entry.angle_period * q, PERIOD_TOL * q),
            check(row["orbit_count"] >= 2, f"{row['orbit_count']} orbits for {p}/{q}"),
        ]
    return merge(out)
