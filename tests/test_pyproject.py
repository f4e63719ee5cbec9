"""Checks of the project configuration in ``pyproject.toml``."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_ONE_FAILING_ONE_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    # Hypothesis imports libcst to report a failing example, and that import
    # warns; under filterwarnings = error the warning ended the whole run
    # with INTERNALERROR, so the tests after the failing one never ran.
    (tmp_path / "test_two.py").write_text(_ONE_FAILING_ONE_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in result.stdout, output


def _imported_packages(path: Path) -> set[str]:
    """The top-level package of every absolute import in a Python file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_third_party_test_imports_are_declared():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    # every package here is imported under its distribution name
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}
    local = {"privkit", *(path.stem for path in (ROOT / "bench").glob("*.py"))}
    imported = set().union(*map(_imported_packages, (ROOT / "tests").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party - declared == set()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_installed_script_resolves_to_a_function_of_the_cli():
    # the script ends the process as ``python -m privkit.cli`` does, so it
    # names the function that runs main() and then the exit helper
    import tomllib

    import privkit.cli

    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    module, _, name = project["scripts"]["privkit"].partition(":")
    assert module == "privkit.cli"
    assert callable(getattr(privkit.cli, name))
    assert getattr(privkit.cli, name) is not privkit.cli.main
