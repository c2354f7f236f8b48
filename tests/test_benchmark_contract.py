"""The benchmark in perfbench/ drives CLI families and verify suites by
name.  A renamed family or suite would turn its operations into silent
failures, so every name it sends must exist here."""

import ast
from pathlib import Path

from exactcomb import cli, verify

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _constants(*names):
    """Module-level literals of the workload file, read without importing
    it: an import would run its imports and write bytecode under perfbench/."""
    found = {}
    for node in ast.parse(WORKLOADS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    return [found[name] for name in names]


def test_benchmark_names_exist():
    coeff, extras, suites, rotation = _constants(
        "COEFF_FAMILIES", "_CLI_EXTRAS", "VERIFY_SUITES", "VERIFY_ROTATION"
    )
    assert set(coeff) <= set(cli.COEFF)
    commands = {"table": cli.TABLE, "enumerate": cli.ENUMERATE}
    for slot in extras:
        command, _, family = slot.partition(":")
        if family and family != "small":
            assert family in commands[command], slot
    # the families that the `small` table slot rotates over (in _table_command)
    assert {"stirling2", "stirling1", "cycles", "multiset"} <= set(cli.TABLE)
    assert set(suites) | set(rotation) <= {"all", *verify.SUITES}
