"""The package holds what the program runs, and the test configuration
reports a failing test as a failure."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import hcma
from hcma.grid import Grid

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hcma"
ORACLE = Path(__file__).resolve().with_name("oracle.py")


def imported_modules(path: Path):
    """Every module an import statement of the file names, a relative one
    with its leading dots."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_no_module_of_the_package_imports_the_tests():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for name in imported_modules(path):
            assert name.split(".")[0] not in ("tests", "oracle", "conftest"), (
                f"{path.name} imports {name}")


def test_the_oracle_names_left_the_package():
    """No module of hcma defines or exports a name the oracle defines:
    hcma exports neither Jet nor FieldRhs, and Grid has no check_node."""
    defined = {node.name for node in ast.parse(ORACLE.read_text()).body
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert {"Jet", "FieldRhs", "wirtinger_jet", "torus_state",
            "general_flat_state", "rk4_path"} <= defined
    modules = [hcma] + [importlib.import_module(f"hcma.{path.stem}")
                        for path in PACKAGE.glob("*.py")
                        if path.stem != "__init__"]
    for module in modules:
        assert not defined & set(vars(module)), module.__name__
    assert not hasattr(Grid, "check_node")


FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
'''


def test_a_failing_hypothesis_test_reads_as_one_failure(tmp_path):
    """Under the project's pytest configuration a failing hypothesis test
    is one failure.  hypothesis reports its failing example through
    libcst where libcst is installed, whose TypedDict raises a
    DeprecationWarning from mypy_extensions inside a pytest hook; without
    libcst no such warning is raised and this passes either way.  The run
    is made in tmp_path, where hypothesis writes its .hypothesis folder."""
    (tmp_path / "test_fails.py").write_text(FAILING_HYPOTHESIS_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed" in out and proc.returncode == 1, out


def test_no_module_of_the_package_imports_a_private_name():
    """A name with a leading underscore stays in the hcma module that
    defines it: no other module of the package imports one."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("hcma")):
                private = [a.name for a in node.names
                           if a.name.startswith("_")]
                assert not private, f"{path.name} imports {private}"
