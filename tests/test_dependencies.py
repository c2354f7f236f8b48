"""Tier-1 needs pytest and hypothesis, and nothing else outside the standard
library: the `test` extra names exactly those two, CI installs exactly those,
and no test file imports any other package.

Files of this repository that a test runs, such as tools/golden.py, are
loaded by path through `importlib.util.spec_from_file_location`, not by an
import statement, so they take no entry here.
"""

import ast
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_EXTRA = ["pytest", "hypothesis"]
ALLOWED = {"exactcomb", *TEST_EXTRA}


def test_the_test_extra_is_pytest_and_hypothesis():
    with open(ROOT / "pyproject.toml", "rb") as file:
        project = tomllib.load(file)["project"]
    assert project["optional-dependencies"]["test"] == TEST_EXTRA
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert f"pip install {' '.join(TEST_EXTRA)}\n" in workflow


def _imported(source: str) -> set[str]:
    """The top-level name of every module that the source imports, at any
    depth; a relative import counts by its dots."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or "").partition(".")[0])
    return names


def test_tests_import_only_the_standard_library_and_the_test_extra():
    outside = {path.name: sorted(name for name in _imported(path.read_text(encoding="utf-8"))
                                 if name not in sys.stdlib_module_names and name not in ALLOWED)
               for path in sorted((ROOT / "tests").glob("*.py"))}
    assert {name: modules for name, modules in outside.items() if modules} == {}
