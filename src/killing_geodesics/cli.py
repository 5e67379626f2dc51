"""Command-line front door: analyze | approximate | trace | list.

Exit codes: 0 success, 2 usage or domain error, 3 search failure,
4 unsupported capability.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .errors import (
    OffManifoldError,
    SearchFailureError,
    UnsupportedCapabilityError,
)
from .gallery import ENTRY_NAMES, build_entry
from .report import analyze_entry, approximate_entry, trace_entry

_CONSTANTS = {
    "sqrt2": math.sqrt(2.0),
    "golden": (1.0 + math.sqrt(5.0)) / 2.0,
    "pi": math.pi,
    "tau": 2.0 * math.pi,
}
_SCALED = re.compile(r"^(-?\d*\.?\d*)(sqrt2|golden|pi|tau)$")


def parse_scalar(text: str) -> float:
    """Parse a float flag, allowing sqrt2 / golden / pi (optionally scaled,
    e.g. 2pi)."""
    s = text.strip().lower()
    if s in _CONSTANTS:
        return _CONSTANTS[s]
    m = _SCALED.match(s)
    if m:
        coeff = m.group(1)
        factor = float(coeff) if coeff not in ("", "-") else (-1.0 if coeff == "-" else 1.0)
        return factor * _CONSTANTS[m.group(2)]
    return float(s)


def parse_vector(text: str):
    return tuple(parse_scalar(tok) for tok in text.split(","))


def _add_entry_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("entry", help="gallery entry name (see `list`)")
    p.add_argument("--alpha", type=parse_scalar, default=None, help="torus direction for stationary-s3")
    p.add_argument("--slope", type=parse_vector, default=None, help="field slope a,b for flat-torus")
    p.add_argument("--theta", type=parse_scalar, default=None, help="rotation angle for mapping-torus")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgeo",
        description="Periodic geodesics from Killing flows on the gallery manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="critical orbits, residuals and periods")
    _add_entry_params(p)
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--horizon", type=parse_scalar, default=50.0)
    p.add_argument("--tol-geo", type=parse_scalar, default=1e-5)
    p.add_argument("--tol-period", type=parse_scalar, default=1e-6)
    p.add_argument("--out", default=None)

    p = sub.add_parser("approximate", help="closed Killing approximants and certificate")
    _add_entry_params(p)
    p.add_argument("--n", type=int, default=4, help="number of convergents")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--budget", type=int, default=24)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol-period", type=parse_scalar, default=1e-6)
    p.add_argument("--out", default=None)

    p = sub.add_parser("trace", help="integrate one curve and emit CSV")
    _add_entry_params(p)
    p.add_argument("--start", type=parse_vector, required=True)
    p.add_argument("--T", type=parse_scalar, default=1.0)
    p.add_argument("--geodesic", action="store_true", help="trace a geodesic instead of the flow")
    p.add_argument("--velocity", type=parse_vector, default=None)
    p.add_argument("--tol", type=parse_scalar, default=1e-10)
    p.add_argument("--out", default=None)

    sub.add_parser("list", help="list gallery entries")
    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    if args.command == "list":
        for name in ENTRY_NAMES:
            print(name)
        return 0
    try:
        entry = build_entry(args.entry, alpha=args.alpha, slope=args.slope, theta=args.theta)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "analyze":
            report = analyze_entry(
                entry,
                seed=args.seed,
                budget=args.budget,
                horizon=args.horizon,
                tol_geo=args.tol_geo,
                tol_period=args.tol_period,
            )
            _emit(report.to_json(), args.out)
        elif args.command == "approximate":
            report = approximate_entry(
                entry,
                n=args.n,
                seed=args.seed,
                samples=args.samples,
                budget=args.budget,
                tol_period=args.tol_period,
            )
            _emit(report.to_json(), args.out)
        elif args.command == "trace":
            csv = trace_entry(
                entry,
                args.start,
                args.T,
                tol_ode=args.tol,
                geodesic=args.geodesic,
                velocity=args.velocity,
            )
            _emit(csv, args.out)
    except (OffManifoldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchFailureError as exc:
        print(f"search failure: {exc}", file=sys.stderr)
        return 3
    except UnsupportedCapabilityError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
