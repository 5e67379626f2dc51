"""Fast checks of the benchmark itself; no workload is run.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import killing_geodesics as kg  # noqa: E402
from killing_geodesics.integrate import solve_rk45  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_oracle_rejects_wrong_period():
    assert oracle.check_period(1.0 + 1e-9, 1.0).ok
    assert oracle.check_period(None, None).ok
    wrong = oracle.check_period(1.1, 1.0)
    assert not wrong.ok and not wrong.known_defect
    assert not oracle.check_period(None, 1.0).ok
    assert not oracle.check_period(0.5, None).ok
    multiple = oracle.check_period(2.0, 1.0)
    assert not multiple.ok and multiple.known_defect


def test_oracle_separates_rounding_residue_from_stiffness():
    residue = oracle.raised(kg.StiffnessError("step collapsed to 4.441e-16 at t = 2.66667"))
    assert not residue.ok and residue.known_defect
    for exc in (kg.StiffnessError("step collapsed to 5.000e-13 at t = 1"), ValueError("step collapsed")):
        verdict = oracle.raised(exc)
        assert not verdict.ok and not verdict.known_defect


def test_oracle_rejects_wrong_fibre_period():
    klein = kg.build_entry("klein-bottle")
    orbit = {"classification": "degenerate_constant", "f_value": -1.0, "geodesic_residual": 0.0,
             "period": 2.0, "representative": [0.3, 0.1]}
    report = SimpleNamespace(killing_residual_max=0.0, degenerate_constant=True, critical_orbits=[orbit],
                             fiber_scan=[{"start": [0.0, 0.0], "period": 1.0}, {"start": [0.3, 0.0], "period": 2.0}])
    assert oracle.check_quotient_report("klein-bottle", klein, report).ok
    report.fiber_scan[1]["period"] = 1.0  # a generic fibre has period 2
    verdict = oracle.check_quotient_report("klein-bottle", klein, report)
    assert not verdict.ok and not verdict.known_defect


def test_rk45_counts_exact_on_constant_field():
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return np.array([1.0, -0.5])

    tracer = spans.Tracer()
    curve = tracer._solve_rk45(solve_rk45)(rhs, np.zeros(2), 3.0)
    (span,) = tracer.spans
    assert span.attrs == {"rhs_evals": calls[0], "accepted": len(curve.ts) - 1, "rejected": 0}
    assert calls[0] == 1 + 7 * (len(curve.ts) - 1)
    assert tracer.hot[spans.RHS][0] == calls[0]
    assert not tracer.errors


def test_rk45_step_arithmetic():
    assert spans.rk45_steps(1 + 7 * 3 + 6 * 2, 4) == (3, 2)
    assert spans.rk45_steps(1, 1) == (0, 0)
    for rhs_evals, knots in ((10, 2), (7, 2), (0, 1)):
        try:
            spans.rk45_steps(rhs_evals, knots)
        except ValueError:
            continue
        raise AssertionError(f"{rhs_evals} evaluations accepted for {knots} knots")


def test_self_times_on_synthetic_spans():
    S = spans.Span
    tree = [
        S(0, "root", 0.0, 10.0, None),
        S(1, "a", 1.0, 4.0, 0, hot_s=1.0),
        S(2, "a.child", 1.5, 2.5, 1),
        S(3, "b", 5.0, 6.0, 0),
    ]
    assert spans.self_times(tree) == {0: 6.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_hot_frames_charge_their_parent():
    tracer = spans.Tracer()
    leaf = tracer.hot_frame("leaf", lambda: sum(range(1000)))
    inner = tracer.hot_frame("inner", lambda: [leaf() for _ in range(3)])
    outer = tracer.span("outer", lambda: inner())
    outer()
    (span,) = tracer.spans
    calls, total, own = tracer.hot["inner"]
    assert calls == 1 and span.hot_s == total
    assert tracer.hot["leaf"][0] == 3
    assert abs(own + tracer.hot["leaf"][1] - total) < 1e-12


def test_traced_pass_restores_every_patch():
    targets = [(m, a) for m, a, _ in spans.SPAN_PATCHES + spans.HOT_PATCHES] + [spans.FIELD_FACTORY]

    def current():
        return {(m, a): getattr(importlib.import_module(m), a) for m, a in targets}

    before = current()
    entry = kg.build_entry("flat-torus")
    tracer = spans.Tracer()
    with tracer.patched():
        during = current()
        cert = kg.detect_period(entry.manifold, tracer.instrument_entry(entry).killing, entry.probe_point, 3.0)
    assert cert is not None and abs(cert.period - 1.0) <= 1e-6
    assert all(during[k] is not before[k] for k in before)
    assert current() == before and all(current()[k] is before[k] for k in before)
    names = [s.name for s in tracer.spans]
    assert names[0] == "flows.detect_period" and "integrate.solve_rk45" in names
    assert tracer.counts[spans.FIELD_POINTS] > 0


def test_repeated_passes_do_not_change_the_tally():
    ops, digests, problems = [], [], []
    inputs = ["a", "b"]
    for n, digest in enumerate(["da", "db", "da", "db", "da"], start=1):
        run.check_pass(n, inputs, [f"op{n}"], digest, ops, digests, problems)
    assert ops == ["op1", "op2"] and digests == ["da", "db"] and problems == []
    run.check_pass(6, inputs, ["op6"], "changed", ops, digests, problems)
    assert ops == ["op1", "op2"] and problems == ["pass 6: outputs differ from pass 2 on the same inputs"]


def test_host_speed_scales_time_between_samples():
    ref = hostspeed.REFERENCE_S
    # The kernel takes twice its nominal time, then its nominal time:
    # 1 s at half speed and 1 s at the mean of both speeds.
    samples = [hostspeed.Sample(0.0, 0.0, 2 * ref, 2 * ref),
               hostspeed.Sample(1 + 2 * ref, 1 + 2 * ref, 1 + 4 * ref, 1 + 4 * ref),
               hostspeed.Sample(2 + 4 * ref, 2 + 4 * ref, 2 + 5 * ref, 2 + 5 * ref)]
    timing = hostspeed.between(samples)
    assert abs(timing.raw_wall_s - 2.0) < 1e-12 and abs(timing.raw_cpu_s - 2.0) < 1e-12
    assert abs(timing.wall_s - (0.5 + 1 / 1.5)) < 1e-12 and abs(timing.cpu_s - timing.wall_s) < 1e-12
