"""Every tolerance is one module constant and every default one library
signature: no function takes a tolerance or a sampling knob that no
caller sets, the report prints the constants, and the CLI restates no
library default."""

import argparse
import inspect

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics import cli, geometry, rational
from killing_geodesics.flows import GEODESIC_ODE_TOL, GEODESIC_TOL, ODE_TOL, PERIOD_TOL
from killing_geodesics.killing import KILLING_RESIDUAL_TOL

TOLERANCES = {
    "tol_geo": GEODESIC_TOL,
    "tol_period": PERIOD_TOL,
    "tol_ode": ODE_TOL,
    "killing_residual": KILLING_RESIDUAL_TOL,
}

NO_KNOBS = (
    kg.analyze_entry,
    kg.approximate_entry,
    kg.trace_entry,
    kg.find_critical_orbits,
    kg.detect_period,
    kg.flow,
    kg.translate_geodesic,
    kg.shoot_geodesic,
    kg.make_killing_field,
    kg.certify_killing_field,
    kg.make_killing_family,
    kg.approximate_closed,
)


@pytest.mark.parametrize("function", NO_KNOBS, ids=[f.__name__ for f in NO_KNOBS])
def test_no_tolerance_parameter(function):
    names = inspect.signature(function).parameters
    knobs = [n for n in names if n.startswith("tol") or n in ("certify_samples", "residual_samples")]
    assert knobs == []


# sampling knobs no caller set, now module constants of the same value
SAMPLING_CONSTANTS = (
    (kg.make_killing_family, ("n_samples", "seed")),
    (kg.certify_killing_field, ("seed",)),
    (kg.hausdorff_distance, ("n_samples",)),
    (kg.validate_entry, ("seed",)),
)


@pytest.mark.parametrize("function, names", SAMPLING_CONSTANTS, ids=[f.__name__ for f, _ in SAMPLING_CONSTANTS])
def test_no_sampling_knob(function, names):
    assert set(names).isdisjoint(inspect.signature(function).parameters)


# other parameters no caller set, now module constants of the same value
FIXED_PARAMETERS = (
    (kg.reduce_point, ("max_word_len",)),
    (kg.ManifoldModel.check_on_manifold, ("tol",)),
    (kg.ManifoldModel.project_point, ("tol", "max_iter")),
    (kg.ManifoldModel.reduce_to_fundamental, ("max_iter",)),
    (kg.DeckElement.is_identity, ("tol",)),
    (geometry.signature_of_gram, ("tol",)),
    (rational.detect_rational, ("max_q",)),
    (kg.find_critical_orbits, ("M",)),
    (kg.make_commuting_family_example, ("m",)),
)


@pytest.mark.parametrize("function, names", FIXED_PARAMETERS, ids=[f.__qualname__ for f, _ in FIXED_PARAMETERS])
def test_no_fixed_parameter(function, names):
    assert set(names).isdisjoint(inspect.signature(function).parameters)


def _library_defaults(function) -> set:
    params = inspect.signature(function).parameters.values()
    return {p.name for p in params if p.default is not inspect.Parameter.empty}


def test_cli_restates_no_library_default():
    parser = cli._make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for name in ("analyze", "approximate", "trace"):
        sub = commands[name]
        library = _library_defaults(sub.get_default("run")) | _library_defaults(kg.build_entry)
        restated = {a.dest for a in sub._actions if a.default is not argparse.SUPPRESS and a.dest in library}
        assert restated == set(), name


def test_reports_print_the_constants(flat_torus, s3):
    assert kg.analyze_entry(flat_torus).tolerances == TOLERANCES
    approx = dict(TOLERANCES)
    del approx["tol_geo"]
    assert kg.approximate_entry(s3, 0).tolerances == approx


def test_trace_shoots_geodesics_at_their_own_tolerance(s3):
    """``trace --geodesic`` gives the curve ``shoot_geodesic`` gives, at
    ``GEODESIC_ODE_TOL``, not at the flows' ``ODE_TOL``."""
    assert GEODESIC_ODE_TOL < ODE_TOL
    start = (0.8, 0.0, 0.6, 0.0)
    p = s3.manifold.project_point(np.array(start))
    curve = kg.shoot_geodesic(s3.metric, p, s3.killing(p), 6.283)
    traced = kg.trace_entry(s3, start, 6.283, geodesic=True).splitlines()
    expected = kg.curve_to_csv(s3.metric, curve).splitlines()
    # rows, not the text: a failing text comparison diffs the CSVs for minutes
    assert len(traced) == len(expected)
    assert traced == expected
