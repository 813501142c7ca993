"""Every third-party module the package and its tests import is declared in
pyproject.toml, the package imports no exact arithmetic, and its modules
import one another without a cycle."""

import ast
import graphlib
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


def declared_modules(project: dict, *extras: str) -> set:
    """Module names of the project's dependencies and of the given extras."""
    requirements = project["dependencies"] + [
        req for extra in extras for req in project["optional-dependencies"][extra]]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def load_project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def test_third_party_imports_are_declared():
    package = ROOT / "src" / "isothermic"
    third_party = imported_top_level_modules(package) - set(sys.stdlib_module_names)
    third_party.discard(package.name)
    declared = declared_modules(load_project())
    assert third_party == {"numpy", "orjson"}
    assert third_party <= declared, third_party - declared


def test_test_imports_are_declared():
    """A test or oracle that imports an installed but undeclared module (say
    mpmath or scipy) fails here rather than on a clean checkout."""
    tests = ROOT / "tests"
    local = {path.stem for path in tests.glob("*.py")} | {"isothermic"}
    third_party = imported_top_level_modules(tests) - set(sys.stdlib_module_names) - local
    declared = declared_modules(load_project(), "test")
    assert third_party == {"hypothesis", "numpy", "pytest"}
    assert third_party <= declared, third_party - declared


def test_exact_arithmetic_stays_in_the_tests():
    """The package computes in doubles: no module of it imports decimal or
    fractions.  The tests' exact builds live in tests/reference.py."""
    exact = {"decimal", "fractions"}
    assert imported_top_level_modules(ROOT / "src" / "isothermic") & exact == set()
    assert "decimal" in imported_top_level_modules(ROOT / "tests")


def test_the_package_reads_no_environment_variable():
    """The command line and the arguments of the library's functions are
    the only channels that set an option: no module of the package reads
    os.environ or os.getenv."""
    reads = []
    for path in sorted((ROOT / "src" / "isothermic").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & {"environ", "environb", "getenv", "getenvb"}:
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def internal_imports(package: pathlib.Path) -> dict:
    """Each module of the package (by file stem) with the set of the
    package's modules it imports, from every import statement: at the top
    level, under ``if TYPE_CHECKING:`` and inside functions alike.  A name
    of the package that is no module counts as an import of ``__init__``."""
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for path in package.glob("*.py"):
        dotted = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                dotted += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, [package.name if node.level else "", node.module]))
                dotted += [f"{base}.{alias.name}" for alias in node.names]
        parts = [name.split(".") for name in dotted]
        graph[path.stem] = {p[1] if p[1:] and p[1] in modules else "__init__"
                            for p in parts if p[0] == package.name}
    return graph


def test_the_package_imports_form_no_cycle():
    graph = internal_imports(ROOT / "src" / "isothermic")
    assert {"nets", "conserved"} <= graph["revolution"]  # the parse sees imports
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        # graphlib lists each module before one that imports it
        pytest.fail(f"import cycle: {' imports '.join(reversed(exc.args[1]))}")
