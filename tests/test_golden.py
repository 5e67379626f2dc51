"""Golden pin of the CLI reports.

The ``analyze`` JSON of the five gallery entries and the ``approximate
stationary-s3 --n 5`` JSON at their default flags, without the
``runtime_ms`` line, compared as text with the files in ``golden/``.  A
change that moves an output regenerates the files from the CLI (dropping
that line) and justifies every moved digit.
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
