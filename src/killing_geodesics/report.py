"""Batch analyses over gallery entries and machine-readable reports.

Reports serialize to JSON with a fixed field order and floats printed
with 17 significant digits, so identical invocations are byte-identical
except for ``runtime_ms``.  Fractions are serialized as integer pairs.
The ``tolerances`` block prints the module constants behind each
certificate; no tolerance is a parameter.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .critical import find_critical_orbits, find_critical_orbits_many
from .errors import OffManifoldError
from .flows import GEODESIC_TOL, ODE_TOL, PERIOD_TOL, curve_to_csv, detect_period, flow, shoot_geodesic
from .gallery import GalleryEntry
from .killing import KILLING_RESIDUAL_TOL, killing_residual
from .rational import approximate_closed, certify_uniform_convergence

RESIDUAL_SAMPLES = 50  # sampled points of killing_residual_max


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting (17 sig. digits)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(float(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{inner}"{k}": {dumps(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        rows = [f"{inner}{dumps(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    entry_name: str
    signature: tuple
    killing_residual_max: float
    degenerate_constant: bool
    critical_orbits: list
    fiber_scan: Optional[list]
    approximation: Optional[dict]
    runtime_ms: float
    seed: int
    tolerances: dict

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        return dumps(self.to_dict()) + "\n"


def _orbit_dicts(orbits) -> list:
    """The orbits as JSON rows, in the order of f that
    ``find_critical_orbits`` returns them in."""
    out = []
    for o in orbits:
        out.append(
            {
                "f_value": o.f_value,
                "classification": o.classification,
                "period": o.period,
                "geodesic_residual": o.geodesic_residual,
                "representative": [float(x) for x in o.representative],
            }
        )
    return out


def _residual_max(entry: GalleryEntry, seed: int) -> float:
    rng = np.random.default_rng(seed + 1)
    pts = entry.manifold.sample_points(rng, RESIDUAL_SAMPLES)
    return killing_residual(entry.metric, entry.killing, pts)


def analyze_entry(entry: GalleryEntry, seed: int = 42, budget: int = 64, horizon: float = 50.0) -> AnalysisReport:
    """Killing certification + critical search + period detection."""
    t0 = time.perf_counter()
    M = entry.manifold
    g = entry.metric
    # the search refuses a negative seed before seed + 1 seeds the residual sample
    orbits = find_critical_orbits(g, entry.killing, budget=budget, seed=seed, horizon=horizon)
    res_max = _residual_max(entry, seed)
    degenerate = any(o.classification == "degenerate_constant" for o in orbits)
    fiber_scan = None
    if degenerate:
        rng = np.random.default_rng(seed + 2)
        starts = [*entry.exceptional_starts, *M.sample_points(rng, 8)]
        fiber_scan = []
        for p0 in starts:
            cert = detect_period(M, entry.killing, p0, min(horizon, 25.0))
            row = {
                "start": [float(x) for x in p0],
                "period": cert.period if cert else None,
            }
            if entry.orbit_coordinate is not None:
                row["orbit_coordinate"] = float(entry.orbit_coordinate(p0))
            fiber_scan.append(row)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return AnalysisReport(
        entry_name=entry.name,
        signature=tuple(int(s) for s in g.signature),
        killing_residual_max=res_max,
        degenerate_constant=degenerate,
        critical_orbits=_orbit_dicts(orbits),
        fiber_scan=fiber_scan,
        approximation=None,
        runtime_ms=runtime_ms,
        seed=seed,
        tolerances={
            "tol_geo": GEODESIC_TOL,
            "tol_period": PERIOD_TOL,
            "tol_ode": ODE_TOL,
            "killing_residual": KILLING_RESIDUAL_TOL,
        },
    )


def approximate_entry(
    entry: GalleryEntry, n: int, seed: int = 42, samples: int = 500, budget: int = 24
) -> AnalysisReport:
    """Closed-approximation certificate plus per-approximant search.

    The approximants are searched together, in one
    ``find_critical_orbits_many`` call at horizon angle_period·(q + 1)
    each, whose lockstep stack holds the rows of every approximant; each
    approximant's records are those of its own ``find_critical_orbits``.
    ``orbit_count`` is the number of critical records the search returns
    for an approximant: one per critical set found, since an approximant
    keeps the entry's torus basis and the search merges modulo that torus
    (see ``find_critical_orbits``).  On stationary-s3 at q = 1, where f is
    critical on the whole torus |z|^2 = 2 - sqrt 2, that torus is one
    record next to the two circles.
    """
    t0 = time.perf_counter()
    M = entry.manifold
    g = entry.metric
    approximants = approximate_closed(entry.killing, n, metric=g)
    cert_dict = certify_uniform_convergence(g, entry.killing, approximants, samples, seed).as_dict()
    horizons = [entry.angle_period * (frac.denominator + 1) for _, frac in approximants]
    searches = find_critical_orbits_many(g, [field for field, _ in approximants], budget, seed, horizons)
    per = []
    for (field, frac), horizon, orbits in zip(approximants, horizons, searches):
        closure = detect_period(M, field, entry.probe_point, horizon)
        per.append(
            {
                "fraction": {"p": frac.numerator, "q": frac.denominator},
                "orbit_count": len(orbits),
                "closure_period": closure.period if closure else None,
            }
        )
    cert_dict["per_approximant"] = per
    res_max = _residual_max(entry, seed)
    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return AnalysisReport(
        entry_name=entry.name,
        signature=tuple(int(s) for s in g.signature),
        killing_residual_max=res_max,
        degenerate_constant=bool(entry.expected.get("degenerate_constant", False)),
        critical_orbits=[],
        fiber_scan=None,
        approximation=cert_dict,
        runtime_ms=runtime_ms,
        seed=seed,
        tolerances={
            "tol_period": PERIOD_TOL,
            "tol_ode": ODE_TOL,
            "killing_residual": KILLING_RESIDUAL_TOL,
        },
    )


def trace_entry(entry: GalleryEntry, start, T: float, geodesic: bool = False, velocity=None) -> str:
    """Trace the Killing flow (or a geodesic) and return the CSV text.

    ``start`` holds all ``ambient_dim`` coordinates of the start point.
    A non-finite coordinate of ``start`` or ``velocity``, or a
    non-finite ``T``, raises ValueError naming the value.
    The flow runs at ``flows.ODE_TOL``; a geodesic is shot at
    ``flows.GEODESIC_ODE_TOL``, as ``shoot_geodesic`` does everywhere.
    """
    M = entry.manifold
    start = np.asarray(start, dtype=float)
    if len(start) != M.ambient_dim:
        raise ValueError(f"start needs {M.ambient_dim} coordinates")
    for name, value in (("start", start), ("T", T), ("velocity", velocity)):
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {np.asarray(value, dtype=float).tolist()}")
    if M.constraint_residual(start) > 1e-6:
        raise OffManifoldError("start point too far from the manifold")
    start = M.project_point(start)
    if geodesic:
        if velocity is None:
            velocity = entry.killing(start)
        curve = shoot_geodesic(entry.metric, start, velocity, T)
    else:
        curve = flow(M, entry.killing, start, T)
    return curve_to_csv(entry.metric, curve)
