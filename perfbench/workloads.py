"""The three benchmark workloads: inputs from a seed, one pass, its checks.

They load the library's layers differently on purpose:

* ``search-s3``: critical-orbit search on the stationary 3-sphere; mostly
  descent and Newton (``critical``), little integration.
* ``approx-s3``: closed approximants from the convergents of sqrt 2;
  the ``rational`` layer, long-horizon flows, orbit dedup, and a
  Morse-Bott critical set at q = 1.
* ``period-scan``: period detection and geodesic shooting on rescaled
  fields over all entries; integration, period detection and deck-group
  geometry, with almost no critical search.

A pass receives only generated inputs (search seeds, start points, field
scalings) and calls the library through its public names, looked up on
the package at call time so that a traced pass sees its patches.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import killing_geodesics as kg
from killing_geodesics.report import dumps

import oracle

SQRT2 = math.sqrt(2.0)
S3 = ("stationary-s3", {"alpha": SQRT2})
SEARCH_BUDGET = 64
APPROX_CONVERGENTS = 5
APPROX_BUDGET = 24
APPROX_SAMPLES = 500  # approximate_entry's default certificate sample
QUOTIENTS = ("flat-torus", "klein-bottle", "mapping-torus", "commuting-t4")
SCALES = (1.0, 3.0, 10.0, 30.0)
GENERIC_STARTS = 2
# Horizon at unit scale, divided by c for the field cK: four times the
# longest minimal period of the entry, so each closed line returns
# several times within it.
SCAN_HORIZON = {
    "flat-torus": 4.0,
    "flat-irrational": 4.0,
    "klein-bottle": 8.0,
    "mapping-torus": 4.0,
    "commuting-t4": 4.0,
    "stationary-s3": 8.0 * math.pi,
}


@dataclass(frozen=True)
class Op:
    label: str
    verdict: oracle.Verdict


@dataclass
class PassResult:
    ops: list
    outputs: list  # deterministic text, the same traced or not

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    entries: dict  # key -> (gallery entry name, build_entry keyword arguments)
    draw: Callable  # (rng, built entries) -> inputs of one pass
    run: Callable  # (built entries, inputs) -> PassResult
    # Passes with distinct inputs per run; further passes repeat them, so
    # the operations a run checks depend on its seed alone, not on speed.
    distinct_passes: int


def attempt(ops: list, label: str, call, judge):
    """Run one operation; it fails when it raises or its check fails."""
    try:
        result = call()
    except Exception as exc:  # the operation boundary: record and go on
        ops.append(Op(label, oracle.raised(exc)))
        return None
    ops.append(Op(label, judge(result)))
    return result


def report_text(report) -> str:
    """A report's JSON without its only non-deterministic field."""
    if report is None:
        return "raised"
    data = report.to_dict()
    del data["runtime_ms"]
    return dumps(data)


def build(workload: Workload) -> dict:
    return {key: kg.build_entry(name, **kwargs) for key, (name, kwargs) in workload.entries.items()}


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def seed_inputs(rng: np.random.Generator, entries: dict) -> dict:
    return {"seed": draw_seed(rng)}


# ---------------------------------------------------------------------------
# search-s3


def search_pass(entries: dict, inputs: dict) -> PassResult:
    entry = entries["stationary-s3"]
    seed = inputs["seed"]
    ops: list = []
    report = attempt(
        ops,
        f"analyze stationary-s3 seed={seed}",
        lambda: kg.analyze_entry(entry, seed=seed, budget=SEARCH_BUDGET),
        lambda r: oracle.check_stationary_report(entry, r),
    )
    return PassResult(ops, [report_text(report)])


# ---------------------------------------------------------------------------
# approx-s3


def approx_pass(entries: dict, inputs: dict) -> PassResult:
    entry = entries["stationary-s3"]
    seed = inputs["seed"]
    ops: list = []
    report = attempt(
        ops,
        f"approximate stationary-s3 n={APPROX_CONVERGENTS} seed={seed}",
        lambda: kg.approximate_entry(
            entry, APPROX_CONVERGENTS, seed=seed, samples=APPROX_SAMPLES, budget=APPROX_BUDGET
        ),
        lambda r: oracle.check_approximation(entry, r, APPROX_CONVERGENTS, APPROX_SAMPLES, seed),
    )
    return PassResult(ops, [report_text(report)])


# ---------------------------------------------------------------------------
# period-scan


def scan_inputs(rng: np.random.Generator, entries: dict) -> dict:
    starts = {}
    for key, entry in entries.items():
        sampled = [entry.manifold.sample_point(rng) for _ in range(GENERIC_STARTS)]
        starts[key] = list(entry.exceptional_starts) + sampled
    return {"analyze_seed": draw_seed(rng), "starts": starts, "scales": SCALES}


def _scaled(evaluator, c: float):
    return lambda p: c * np.asarray(evaluator(p), dtype=float)


def _fmt(x) -> str:
    return "None" if x is None else format(float(x), ".17g")


def scan_pass(entries: dict, inputs: dict) -> PassResult:
    ops: list = []
    outputs: list = []
    seed = inputs["analyze_seed"]
    for key in QUOTIENTS:
        entry = entries[key]
        report = attempt(
            ops,
            f"analyze {key} seed={seed}",
            lambda: kg.analyze_entry(entry, seed=seed),
            lambda r: oracle.check_quotient_report(key, entry, r),
        )
        outputs.append(report_text(report))
    for key, starts in inputs["starts"].items():
        entry = entries[key]
        for c in inputs["scales"]:
            K = attempt(
                ops,
                f"make_killing_field {key} c={c:g}",
                lambda: kg.make_killing_field(
                    entry.metric, _scaled(entry.killing.evaluator, c), label=f"{c:g}*{entry.killing.label}"
                ),
                lambda K: oracle.check(K.certified, f"not certified, residual {K.max_residual:.3e}"),
            )
            if K is None:
                continue
            for i, p0 in enumerate(starts):
                period = oracle.minimal_period(key, entry, p0)
                expected = None if period is None else period / c
                label = f"{key} c={c:g} start {i}"
                cert = attempt(
                    ops,
                    f"detect_period {label}",
                    lambda: kg.detect_period(entry.manifold, K, p0, SCAN_HORIZON[key] / c),
                    lambda cert: oracle.check_period(None if cert is None else cert.period, expected),
                )
                outputs.append(f"{label}: {_fmt(cert.period if cert else None)}")
                if cert is None:
                    continue
                attempt(
                    ops,
                    f"shoot_geodesic {label}",
                    lambda: kg.shoot_geodesic(entry.metric, p0, K(p0), cert.period),
                    lambda curve: oracle.check_drift(curve.energy_drift, c),
                )
    return PassResult(ops, outputs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-s3", {"stationary-s3": S3}, seed_inputs, search_pass, 2),
        Workload("approx-s3", {"stationary-s3": S3}, seed_inputs, approx_pass, 1),
        Workload(
            "period-scan",
            {
                "flat-torus": ("flat-torus", {}),
                "flat-irrational": ("flat-torus", {"slope": (1.0, SQRT2)}),
                "klein-bottle": ("klein-bottle", {}),
                "mapping-torus": ("mapping-torus", {}),
                "commuting-t4": ("commuting-t4", {}),
                "stationary-s3": S3,
            },
            scan_inputs,
            scan_pass,
            2,
        ),
    )
}
