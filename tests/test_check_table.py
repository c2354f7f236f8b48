"""Each range check is stated once, in its row of `verify.CHECKS`.

A range check is a public `*_failure` function of verify.py.  Its row
holds every argument set that `verify` and tier-1 run, so no test, and no
other row, calls one directly; only the mutation tests below do, since
they patch the library and expect a failure back.
"""

import ast
from collections import Counter
from pathlib import Path

import exactcomb.verify as vf

VERIFY = Path(vf.__file__)
TESTS = Path(__file__).parent
# (file, test function) that may call a range check
MUTATION_TESTS = {
    ("test_acceptance.py", "test_verify_runs_the_legendre_binomial_route"),
    ("test_acceptance.py", "test_verify_numbers_checks_primality"),
}


def _range_checks() -> set[str]:
    """The public `*_failure` functions that verify.py defines."""
    return {node.name for node in ast.parse(VERIFY.read_text()).body
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


def test_each_range_check_is_the_function_of_one_row():
    rows = Counter(thunk.fn.__name__ for _, _, thunk in vf.CHECKS
                   if isinstance(thunk, vf.Range))
    # printed_rows_failure compares one printed table per row
    assert rows == {**dict.fromkeys(_range_checks(), 1),
                    "printed_rows_failure": len(vf.PRINTED_ROWS)}


def test_no_test_or_row_calls_a_range_check():
    names = _range_checks()
    calls = [call for path in (VERIFY, *sorted(TESTS.glob("test_*.py")))
             for call in _calls(path, names) if call[:2] not in MUTATION_TESTS]
    assert calls == []
