"""The package imports nothing outside the standard library and numpy,
the one dependency ``pyproject.toml`` declares."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "killing_geodesics"}


def _imports(path: Path):
    """(line, top-level module) of every absolute import in a file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_stdlib_and_numpy():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    outside = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in files
        for line, module in _imports(path)
        if module not in ALLOWED and module not in sys.stdlib_module_names
    ]
    assert not outside, outside


def test_pyproject_declares_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]] == ["numpy"]
