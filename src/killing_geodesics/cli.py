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
    VanishingFieldError,
)
from .gallery import ENTRIES, ENTRY_NAMES, build_entry
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


_ENTRY_PARAMS = tuple(param for _, param, _ in ENTRIES.values() if param is not None)


def _add_command(sub, name: str, run, summary: str) -> argparse.ArgumentParser:
    """A subcommand that calls ``run(entry, **flags given)``.

    Its flags default to ``SUPPRESS``: a flag left out is not forwarded,
    so the library signature holds the one default.  Only flags for
    which the library has none set a default here.
    """
    p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    p.set_defaults(run=run)
    p.add_argument("entry", help="gallery entry name (see `list`)")
    p.add_argument("--alpha", type=parse_scalar, help="torus direction for stationary-s3")
    p.add_argument("--slope", type=parse_vector, help="field slope a,b for flat-torus")
    p.add_argument("--theta", type=parse_scalar, help="rotation angle for mapping-torus")
    p.add_argument("--out", default=None)
    return p


def _make_parser() -> argparse.ArgumentParser:
    """The parser of the four subcommands.

    ``analyze``, ``approximate`` and ``trace`` forward to
    ``analyze_entry``, ``approximate_entry`` and ``trace_entry`` the flags
    the user gave and nothing else; tolerances are library constants and
    no flag sets them.  ``--n``, ``--T`` and ``--out`` default here, since
    the library has no default for them.
    """
    parser = argparse.ArgumentParser(
        prog="kgeo",
        description="Periodic geodesics from Killing flows on the gallery manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "analyze", analyze_entry, "critical orbits, residuals and periods")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--horizon", type=parse_scalar)

    p = _add_command(sub, "approximate", approximate_entry, "closed Killing approximants and certificate")
    p.add_argument("--n", type=int, default=4, help="number of convergents")
    p.add_argument("--samples", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)

    p = _add_command(sub, "trace", trace_entry, "integrate one curve and emit CSV")
    p.add_argument("--start", type=parse_vector, required=True)
    p.add_argument("--T", type=parse_scalar, default=1.0)
    p.add_argument("--geodesic", action="store_true", help="trace a geodesic instead of the flow")
    p.add_argument("--velocity", type=parse_vector)

    sub.add_parser("list", help="list gallery entries")
    return parser


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    flags = vars(_make_parser().parse_args(argv))
    if flags.pop("command") == "list":
        for name in ENTRY_NAMES:
            print(name)
        return 0
    run, out = flags.pop("run"), flags.pop("out")
    try:
        entry = build_entry(flags.pop("entry"), **{k: flags.pop(k) for k in _ENTRY_PARAMS if k in flags})
    except (KeyError, ValueError, VanishingFieldError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    try:
        result = run(entry, **flags)
        _emit(result if isinstance(result, str) else result.to_json(), out)
    except (OffManifoldError, VanishingFieldError, ValueError) as exc:
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
