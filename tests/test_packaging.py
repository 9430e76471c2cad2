"""Every third-party module the package imports is a declared runtime dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chainequiv"


def imported_top_level_modules() -> set[str]:
    """Top-level names of the absolute imports in the package's sources."""
    names = set()
    for source in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
            for spec in project["dependencies"]}


def test_third_party_imports_are_declared():
    third_party = imported_top_level_modules() - set(sys.stdlib_module_names) - {PACKAGE.name}
    assert third_party, "the package imports numpy at least"
    assert third_party <= declared_dependencies()
