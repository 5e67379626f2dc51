import argparse
import inspect
import json
import math
import subprocess
import sys

import pytest

from killing_geodesics import cli
from killing_geodesics.errors import SearchFailureError
from killing_geodesics.gallery import ENTRIES, build_entry
from killing_geodesics.report import analyze_entry, dumps

SQRT2 = math.sqrt(2.0)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "killing_geodesics", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


class TestParsing:
    def test_special_constants(self):
        assert cli.parse_scalar("sqrt2") == SQRT2
        assert cli.parse_scalar("golden") == (1 + math.sqrt(5)) / 2
        assert cli.parse_scalar("pi") == math.pi
        assert cli.parse_scalar("2pi") == 2 * math.pi
        assert cli.parse_scalar("-pi") == -math.pi
        assert cli.parse_scalar("0.25") == 0.25

    def test_vector(self):
        assert cli.parse_vector("1,sqrt2") == (1.0, SQRT2)


class TestJsonEmitter:
    def test_seventeen_digit_floats(self):
        assert dumps(0.1) == "0.10000000000000001"
        assert dumps(1.0) == "1"
        assert dumps(-2.0000000000000004) == "-2.0000000000000004"

    def test_roundtrip(self):
        obj = {"a": [1, 2.5, None, True], "b": {"c": "x\"y"}}
        assert json.loads(dumps(obj)) == obj


class TestCommands:
    def test_list(self):
        proc = run_cli("list")
        assert proc.returncode == 0
        names = proc.stdout.split()
        assert names == ["flat-torus", "klein-bottle", "stationary-s3", "mapping-torus", "commuting-t4"]

    def test_analyze_klein_bottle(self):
        proc = run_cli("analyze", "klein-bottle", "--seed", "7")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["entry_name"] == "klein-bottle"
        assert report["degenerate_constant"] is True
        assert report["signature"] == [1, 1]
        scan = report["fiber_scan"]
        exceptional = [row for row in scan if row["start"][0] in (0.0, 0.5)]
        assert len(exceptional) == 2
        for row in exceptional:
            assert row["period"] == pytest.approx(1.0, abs=1e-6)
            assert 0.0 <= row["orbit_coordinate"] <= 0.5
        for row in scan:
            assert 0.0 <= row["orbit_coordinate"] <= 0.5

    def test_analyze_null_torus(self):
        proc = run_cli("analyze", "flat-torus", "--slope", "1,1", "--seed", "3")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["degenerate_constant"] is True
        assert report["critical_orbits"][0]["f_value"] == pytest.approx(0.0, abs=1e-12)

    def test_approximate_flat_torus(self):
        proc = run_cli("approximate", "flat-torus", "--slope", "1,sqrt2", "--n", "3", "--seed", "5")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        approx = report["approximation"]
        assert [c["q"] for c in approx["convergents"]] == [1, 2, 5]
        periods = [row["closure_period"] for row in approx["per_approximant"]]
        assert periods == pytest.approx([1.0, 2.0, 5.0], abs=1e-6)

    def test_approximate_zero_convergents(self):
        proc = run_cli("approximate", "stationary-s3", "--n", "0")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["approximation"]["convergents"] == []

    def test_trace_klein(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = run_cli("trace", "klein-bottle", "--start", "0,0", "--T", "2", "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "s,x1,x2,v1,v2,f"
        assert all(row.split(",")[-1] == "-1" for row in lines[1:])

    def test_trace_zero_horizon(self):
        proc = run_cli("trace", "klein-bottle", "--start", "0.25,0", "--T", "0")
        assert proc.returncode == 0
        assert len(proc.stdout.strip().split("\n")) == 2

    def test_trace_half_length_start(self):
        # a start gives every ambient coordinate, so half of them is refused
        assert run_cli("trace", "stationary-s3", "--start", "1,0", "--T", "0.5").returncode == 2
        proc = run_cli("trace", "stationary-s3", "--start", "1,0,0,0", "--T", "0.5")
        assert proc.returncode == 0
        first = proc.stdout.strip().split("\n")[1].split(",")
        assert [float(x) for x in first[1:5]] == [1.0, 0.0, 0.0, 0.0]


class TestExitCodes:
    def test_unknown_entry(self):
        assert run_cli("analyze", "moebius").returncode == 2

    def test_off_manifold_start(self):
        proc = run_cli("trace", "stationary-s3", "--start", "2,0,0,0", "--T", "1")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "entry, start", [("commuting-t4", "0.1,0.2"), ("klein-bottle", "0.3")], ids=["t4-half", "klein-half"]
    )
    def test_start_of_wrong_length(self, entry, start):
        proc = run_cli("trace", entry, "--start", start, "--T", "1")
        assert proc.returncode == 2
        assert "start needs" in proc.stderr

    @pytest.mark.parametrize("slope", ["1.5", "1,2,3"])
    def test_slope_of_wrong_length(self, slope, capsys):
        assert cli.main(["analyze", "flat-torus", "--slope", slope]) == 2
        assert capsys.readouterr().err.startswith("error: slope needs 2 components")

    def test_rational_theta(self):
        assert run_cli("analyze", "mapping-torus", "--theta", "pi").returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "klein-bottle", "--alpha", "2"],
            ["analyze", "stationary-s3", "--slope", "1,2"],
            ["approximate", "commuting-t4", "--theta", "1"],
        ],
        ids=["klein-alpha", "s3-slope", "t4-theta"],
    )
    def test_parameter_the_entry_does_not_take(self, argv, capsys):
        # a dropped parameter would print the default entry's report
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {argv[1]} takes no {argv[2][2:]}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "flat-torus", "--slope", "nan,1"],
            ["analyze", "mapping-torus", "--theta", "nan"],
            ["analyze", "stationary-s3", "--alpha", "inf"],
        ],
        ids=["slope-nan", "theta-nan", "alpha-inf"],
    )
    def test_non_finite_parameter(self, argv):
        # refused before the constructor runs: no warning precedes the error
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stderr == f"error: {argv[2][2:]} must be finite\n"

    @pytest.mark.parametrize("alpha", ["0", "1e-9", "1e-6"])
    @pytest.mark.parametrize("command", ["analyze", "approximate"])
    def test_vanishing_field(self, command, alpha, capsys):
        # K = rot-z + α rot-w vanishes on the w-circle at α = 0, and nearly
        # so at small α: its reflected metric fails when the entry is built
        # (0, 1e-9) or at a stencil point of the search (1e-6)
        assert cli.main([command, "stationary-s3", "--alpha", alpha]) == 2
        assert capsys.readouterr().err == "error: field vanishes (or metric not positive) here\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["approximate", "stationary-s3", "--n", "-1"], "n must be non-negative"),
            (["approximate", "stationary-s3", "--samples", "0"], "samples must be at least 1"),
            (["analyze", "stationary-s3", "--budget", "0"], "budget must be at least 1"),
            (["analyze", "stationary-s3", "--horizon", "-1"], "horizon must be finite and positive"),
            (["analyze", "stationary-s3", "--seed", "-1"], "seed must be non-negative, got -1"),
            (["analyze", "stationary-s3", "--seed", "-2"], "seed must be non-negative, got -2"),
            (["approximate", "stationary-s3", "--n", "1", "--seed", "-1"], "seed must be non-negative, got -1"),
        ],
        ids=["n", "samples", "budget", "horizon", "seed", "seed-below-residual-seed", "approximate-seed"],
    )
    def test_count_out_of_range(self, argv, message, capsys):
        # an empty certificate, a numpy message or a search that never ran
        # would read as a result
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["flat-torus", "--start", "nan,0.2", "--T", "1"], "start must be finite, got [nan, 0.2]"),
            (["stationary-s3", "--start", "nan,0,0,0", "--T", "1"], "start must be finite, got [nan, 0.0, 0.0, 0.0]"),
            (["stationary-s3", "--start", "1,0,0,0", "--T", "nan"], "T must be finite, got nan"),
            (
                ["flat-torus", "--start", "0.1,0.2", "--T", "1", "--geodesic", "--velocity", "inf,1"],
                "velocity must be finite, got [inf, 1.0]",
            ),
        ],
        ids=["flat-start", "s3-start", "T", "velocity"],
    )
    def test_non_finite_trace_value(self, argv, message, capsys):
        # a NaN start ran the flat torus until killed, and printed NaN
        # rows with exit 0 on the sphere
        assert cli.main(["trace", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("entry, start", [("stationary-s3", "1,0,0,0"), ("flat-torus", "0.1,0.2")])
    def test_negative_trace_time(self, entry, start, capsys):
        # the closed-form run on the sphere printed one row at s = -1
        assert cli.main(["trace", entry, "--start", start, "--T", "-1"]) == 2
        assert capsys.readouterr().err == "error: integration horizon must be nonnegative, got -1.0\n"

    def test_unsupported_approximation(self):
        assert run_cli("approximate", "klein-bottle", "--n", "2").returncode == 4

    def test_search_failure_maps_to_three(self, monkeypatch):
        def boom(*args, **kwargs):
            raise SearchFailureError("forced")

        monkeypatch.setattr(cli, "analyze_entry", boom)
        assert cli.main(["analyze", "klein-bottle"]) == 3


def test_entry_parameters_are_stated_once():
    # the CLI's entry flags, build_entry's keywords and the parameters of
    # gallery.ENTRIES are one set; an entry flag is a flag that is neither
    # --out nor forwarded to the run
    table = {param for _, param, _ in ENTRIES.values() if param is not None}
    keywords = set(inspect.signature(build_entry).parameters) - {"name"}
    parser = cli._make_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for name in ("analyze", "approximate", "trace"):
        sub = commands[name]
        forwarded = set(inspect.signature(sub.get_default("run")).parameters)
        flags = {a.dest for a in sub._actions if a.option_strings} - forwarded - {"help", "out"}
        assert flags == keywords == table, name
    assert set(cli._ENTRY_PARAMS) == table


class TestForwarding:
    """The CLI forwards the flags given and nothing else, so every default
    lives in the library signature."""

    @staticmethod
    def _recorded(monkeypatch, name, argv):
        calls = []

        def record(entry, **kwargs):
            calls.append(kwargs)
            return ""

        monkeypatch.setattr(cli, name, record)
        assert cli.main(argv) == 0
        return calls

    def test_no_flags_gives_the_library_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "klein-bottle", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        direct = json.loads(analyze_entry(build_entry("klein-bottle")).to_json())
        del report["runtime_ms"], direct["runtime_ms"]
        assert report == direct

    def test_no_flags_forward_nothing(self, monkeypatch):
        assert self._recorded(monkeypatch, "analyze_entry", ["analyze", "klein-bottle"]) == [{}]

    def test_given_flags_reach_analyze(self, monkeypatch):
        argv = ["analyze", "klein-bottle", "--seed", "7", "--budget", "8", "--horizon", "30"]
        assert self._recorded(monkeypatch, "analyze_entry", argv) == [{"seed": 7, "budget": 8, "horizon": 30.0}]

    def test_given_flags_reach_approximate(self, monkeypatch):
        argv = ["approximate", "stationary-s3", "--samples", "50"]
        assert self._recorded(monkeypatch, "approximate_entry", argv) == [{"n": 4, "samples": 50}]

    def test_given_flags_reach_trace(self, monkeypatch):
        argv = ["trace", "stationary-s3", "--start", "1,0,0,0", "--geodesic"]
        recorded = [{"start": (1.0, 0.0, 0.0, 0.0), "T": 1.0, "geodesic": True}]
        assert self._recorded(monkeypatch, "trace_entry", argv) == recorded

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "klein-bottle", "--tol-geo", "1e-5"],
            ["analyze", "klein-bottle", "--tol-period", "1e-6"],
            ["approximate", "stationary-s3", "--tol-period", "1e-6"],
            ["trace", "klein-bottle", "--start", "0,0", "--tol", "1e-10"],
        ],
        ids=["analyze-tol-geo", "analyze-tol-period", "approximate-tol-period", "trace-tol"],
    )
    def test_tolerance_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
