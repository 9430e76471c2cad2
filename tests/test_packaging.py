"""Every third-party module the package imports is declared, and the package's imports run one way."""

import ast
import re
import subprocess
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


# Imports run one way, cli -> decode -> modelfile -> the library: each module
# here imports none of the package modules named for it.
FORBIDDEN_IMPORTS = {
    "modelfile": {"cli", "decode"},
    "decode": {"cli"},
    **dict.fromkeys(("tables", "crf", "hmc", "equivalence", "oracle", "__init__"), {"cli", "decode", "modelfile"}),
}


def package_imports(module: str) -> set[str]:
    """The package modules that ``module``'s source imports, relative or absolute."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            names.update(path[1] for path in paths if path[0] == PACKAGE.name and len(path) > 1)
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[0] != PACKAGE.name:
                    continue
                path = path[1:]
            names.update(path[:1] or [alias.name for alias in node.names])
    return names


def test_imports_run_one_way():
    assert package_imports("cli") >= {"crf", "decode", "modelfile"}  # the scan sees relative imports
    for module, forbidden in FORBIDDEN_IMPORTS.items():
        assert not package_imports(module) & forbidden, module


def test_library_import_loads_no_cli_argparse_or_orjson():
    probe = "import sys, chainequiv; print(sorted({'chainequiv.cli', 'argparse', 'orjson'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": str(PACKAGE.parent), "PATH": "/usr/bin:/bin"}, check=True)
    assert out.stdout == "[]\n"
