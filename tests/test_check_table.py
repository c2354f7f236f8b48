"""Each range check is stated once, in its verify row, and each suite's
rows live in the suite's own module of the verify package.

A range check is a public `*_failure` function of a module of that
package.  Its row holds every argument set that `verify` and tier-1 run,
so no test, and no other row, calls one directly; only the mutation tests
below do, since they patch the library and expect a failure back.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import exactcomb.verify as vf
from exactcomb.verify.matrix import PRINTED_ROWS

PACKAGE = Path(vf.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = Path(__file__).parent
# (file, test function) that may call a range check
MUTATION_TESTS = {
    ("test_acceptance.py", "test_verify_numbers_checks_primality"),
}


def _range_checks() -> set[str]:
    """The public `*_failure` functions that the package's modules define."""
    return {node.name for path in MODULES for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.endswith("_failure")
            and not node.name.startswith("_")}


def _calls(path: Path, names: set[str]):
    """(file, enclosing top-level function or None, name) for each call of
    one of `names` in the file, as `name(...)` or `module.name(...)`."""
    for node in ast.parse(path.read_text()).body:
        owner = getattr(node, "name", None)
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                if name in names:
                    yield path.name, owner, name


def test_each_range_check_is_the_function_of_one_row(verify_rows):
    rows = Counter(thunk.fn.__name__ for _, _, thunk in verify_rows
                   if isinstance(thunk, vf.Range))
    # printed_rows_failure compares one printed table per row
    assert rows == {**dict.fromkeys(_range_checks(), 1),
                    "printed_rows_failure": len(PRINTED_ROWS)}


def test_no_test_or_row_calls_a_range_check():
    names = _range_checks()
    calls = [call for path in (*MODULES, *sorted(TESTS.glob("test_*.py")))
             for call in _calls(path, names) if call[:2] not in MUTATION_TESTS]
    assert calls == []


def test_each_mutation_test_exists():
    # an exemption that names no test would outlive a renamed one
    for file, name in MUTATION_TESTS:
        tops = {node.name for node in ast.parse((TESTS / file).read_text()).body
                if isinstance(node, ast.FunctionDef)}
        assert name in tops, (file, name)


def test_each_suite_is_the_rows_of_its_own_module():
    # SUITES is a literal, so the suites and their modules are stated apart
    assert sorted(path.stem for path in MODULES) == sorted(("__init__", *vf.SUITES))
    for suite in vf.SUITES:
        module = importlib.import_module(f"exactcomb.verify.{suite}")
        assert module.CHECKS, suite
        # each row of a range check runs a function of its own suite's module
        assert all(thunk.fn.__module__ == module.__name__ for _, thunk in module.CHECKS
                   if isinstance(thunk, vf.Range)), suite
