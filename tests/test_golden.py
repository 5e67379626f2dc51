"""Golden pin of the CLI reports.

The ``analyze`` JSON of the five gallery entries and the ``approximate
stationary-s3 --n 5`` JSON at their default flags, without the
``runtime_ms`` line, compared as text with the files in ``golden/``.  A
change that moves an output regenerates the files from the CLI (dropping
that line) and justifies every moved digit.  The CSV of one geodesic
shot on stationary-s3 is pinned byte for byte too: every knot of a
DOP853 run at ``GEODESIC_ODE_TOL``, with its energy.
"""

from pathlib import Path

import pytest

from killing_geodesics import cli
from killing_geodesics.gallery import ENTRY_NAMES

GOLDEN = Path(__file__).parent / "golden"
RUNS = [(f"analyze-{name}.json", ["analyze", name]) for name in ENTRY_NAMES]
RUNS.append(("approximate-stationary-s3-n5.json", ["approximate", "stationary-s3", "--n", "5"]))


@pytest.mark.parametrize("golden, argv", RUNS, ids=[r[0] for r in RUNS])
def test_report_matches_golden(golden, argv, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith('  "runtime_ms": '))
    assert len(kept) < len("".join(lines))
    assert kept == (GOLDEN / golden).read_text()


def test_geodesic_trace_matches_golden(tmp_path):
    out = tmp_path / "trace.csv"
    argv = ["trace", "stationary-s3", "--start", "0.6,0,0.8,0", "--T", "9", "--geodesic", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_text() == (GOLDEN / "trace-stationary-s3-geodesic.csv").read_text()
