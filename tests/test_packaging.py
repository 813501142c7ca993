"""Every third-party module the package imports is declared in pyproject.toml."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def imported_top_level_modules(package: pathlib.Path) -> set:
    """Top-level names of the absolute imports in the package's sources."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    package = ROOT / "src" / "isothermic"
    third_party = imported_top_level_modules(package) - set(sys.stdlib_module_names)
    third_party.discard(package.name)
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    assert third_party == {"numpy", "orjson"}
    assert third_party <= declared, third_party - declared
