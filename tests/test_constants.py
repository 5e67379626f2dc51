"""Every tolerance is one module constant and every default one library
signature: no function takes a tolerance or a sampling knob that no
caller sets, the report prints the constants, and the CLI restates no
library default."""

import argparse
import dataclasses
import inspect
import math

import numpy as np
import pytest

import killing_geodesics as kg
from killing_geodesics import cli, critical, flows, geometry, rational
from killing_geodesics.flows import GEODESIC_ODE_TOL, GEODESIC_TOL, ODE_TOL, PERIOD_TOL
from killing_geodesics.integrate import DenseCurve
from killing_geodesics.killing import COMMUTE_TOL, KILLING_RESIDUAL_TOL

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
    kg.find_critical_orbits_many,
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
    (kg.ManifoldModel.deck_ball.func, ("radius",)),
    (critical._descend, ("max_iter", "grad_stop")),
    (critical._newton_refine, ("max_iter", "trust")),
    (critical._tangent_df, ("h",)),
    (kg.ManifoldModel.check_on_manifold, ("tol",)),
    (kg.ManifoldModel.project_point, ("tol", "max_iter")),
    (kg.ManifoldModel.reduce_to_fundamental, ("max_iter",)),
    (kg.DeckElement.is_identity, ("tol",)),
    (geometry.signature_of_gram, ("tol",)),
    (rational.detect_rational, ("max_q",)),
    (kg.find_critical_orbits, ("M",)),
    (kg.find_critical_orbits_many, ("M",)),
    (kg.make_commuting_family_example, ("m",)),
)


@pytest.mark.parametrize("function, names", FIXED_PARAMETERS, ids=[f.__qualname__ for f, _ in FIXED_PARAMETERS])
def test_no_fixed_parameter(function, names):
    assert set(names).isdisjoint(inspect.signature(function).parameters)


def _library_defaults(function) -> set:
    params = inspect.signature(function).parameters.values()
    return {p.name for p in params if p.default is not inspect.Parameter.empty}


# The approximation layer's parameters and which of them default: no
# knob that no caller sets, no parameter another one gives (the manifold
# is g.manifold), and no default that restates approximate_entry's.
APPROXIMATION_SIGNATURES = (
    (kg.make_killing_field, ("g", "evaluator", "label"), {"label"}),
    (kg.approximate_closed, ("K", "n", "metric"), set()),
    (kg.certify_uniform_convergence, ("g", "K", "approximants", "samples", "seed"), set()),
    (kg.find_critical_orbits_many, ("g", "fields", "budget", "seed", "horizons"), set()),
)


@pytest.mark.parametrize(
    "function, names, defaults", APPROXIMATION_SIGNATURES, ids=[f.__name__ for f, _, _ in APPROXIMATION_SIGNATURES]
)
def test_approximation_signature(function, names, defaults):
    assert tuple(inspect.signature(function).parameters) == names
    assert _library_defaults(function) == defaults


@pytest.mark.parametrize(
    "builder, name",
    [(kg.make_flat_lorentzian_torus, "slope"), (kg.make_stationary_sphere, "alpha"), (kg.make_mapping_torus, "theta")],
    ids=["flat-torus", "stationary-s3", "mapping-torus"],
)
def test_builder_parameter_is_required(builder, name):
    # the default lives in build_entry alone
    assert list(inspect.signature(builder).parameters) == [name]
    assert _library_defaults(builder) == set()
    assert name in _library_defaults(kg.build_entry)


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


# The constructor fields of the core records.  A fact that another field
# or a stored measurement gives is a read-only property, not a field.
RECORD_FIELDS = {
    kg.ManifoldModel: (
        "ambient_dim", "constraint", "constraint_grad", "constraint_hess",
        "deck_generators", "fundamental_box", "sampler", "quotient_distance_fn",
    ),
    kg.MetricField: ("manifold", "evaluator", "signature", "jacobian"),
    kg.KillingField: ("evaluator", "label", "generator", "basis", "max_residual", "jacobian", "linear"),
    kg.KillingFamily: ("members", "max_bracket"),
    kg.CurveSample: ("manifold", "energy_drift", "dense", "field"),
    kg.GalleryEntry: (
        "name", "manifold", "metric", "killing", "expected",
        "angle_period", "probe_point", "exceptional_starts", "orbit_coordinate",
    ),
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=[r.__name__ for r in RECORD_FIELDS])
def test_record_stores_each_fact_once(record):
    assert tuple(f.name for f in dataclasses.fields(record)) == RECORD_FIELDS[record]


def test_derived_facts_read_their_source(s3):
    M = s3.manifold
    assert (M.intrinsic_dim, kg.ManifoldModel(ambient_dim=4).intrinsic_dim) == (3, 4)
    roles = {sig: kg.MetricField(M, s3.metric.evaluator, sig).role for sig in ((3, 0), (2, 1), (1, 2))}
    assert roles == {(3, 0): "riemannian", (2, 1): "lorentzian", (1, 2): "semi_riemannian"}
    with pytest.raises(TypeError):  # the jacobian is keyword-only
        kg.MetricField(M, s3.metric.evaluator, (3, 0), "riemannian")
    assert s3.killing.certified and s3.killing.max_residual <= KILLING_RESIDUAL_TOL
    assert not kg.KillingField(s3.killing.evaluator).certified
    assert not dataclasses.replace(s3.killing, max_residual=2 * KILLING_RESIDUAL_TOL).certified
    assert s3.family.commuting and s3.family.max_bracket <= COMMUTE_TOL
    assert not kg.KillingFamily(s3.family.members).commuting


def test_one_torus_record(all_entries, s3):
    # an entry's family is its field's basis, and every approximant keeps
    # that certified family: the torus is stated once
    for entry in all_entries:
        assert entry.family is entry.killing.basis, entry.name
    assert isinstance(s3.killing.basis, kg.KillingFamily) and s3.killing.basis.commuting
    for field, _ in kg.approximate_closed(s3.killing, 5, s3.metric):
        assert field.basis is s3.killing.basis


def test_one_travel_bound_answers_every_nearness_question():
    # the return scan and dedup both read the run's knots and its travel
    # bound: no resolution cap, no sampler and no cached samples
    for name in ("SCAN_RESOLUTION", "DEDUP_RESOLUTION"):
        assert not hasattr(flows, name), name
    for name in ("dedup_samples", "max_speed"):
        assert not hasattr(kg.CurveSample, name), name


def test_one_body_per_tangent_operation():
    # a point is a stack of one row: the one-point Gram-Schmidt and the
    # search's own tangent projection are gone
    assert not hasattr(kg.ManifoldModel, "_tangent_bases")
    assert not hasattr(critical, "_tangent")


def test_curve_facts_read_off_the_run(s3):
    M, K, p = s3.manifold, s3.killing, s3.probe_point
    line = kg.flow(M, K, p, 1.0)
    geodesic = kg.shoot_geodesic(s3.metric, p, K(p), 1.0)
    run = line.dense
    assert line.times is run.ts
    np.testing.assert_array_equal(line.points, run.ys)
    np.testing.assert_array_equal(line.velocities, run.fs)
    np.testing.assert_array_equal(line.accelerations, geometry.directional_diff(line.field, run.ys, run.fs))
    run = geodesic.dense
    assert geodesic.field is None and geodesic.times is run.ts
    np.testing.assert_array_equal(geodesic.points, run.ys[:, :4])
    np.testing.assert_array_equal(geodesic.velocities, run.ys[:, 4:])
    np.testing.assert_array_equal(geodesic.accelerations, run.fs[:, 4:])
    for c in (line, geodesic):
        assert c.constraint_drift == np.abs(M.constraint(c.points)).max() <= 1e-12
    bare = kg.CurveSample(M, math.nan, DenseCurve(line.times, line.points, line.velocities))
    assert bare.accelerations is None
