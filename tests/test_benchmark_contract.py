"""The benchmark in perfbench/ drives CLI families and verify suites by
name, and calls library functions directly.  A renamed family, suite or
function would turn its operations into silent failures, so every name it
uses must exist here."""

import ast
import importlib
from pathlib import Path

from exactcomb import cli, verify

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _module():
    """The workload file's syntax tree, read without importing it: an
    import would run its imports and write bytecode under perfbench/."""
    return ast.parse(WORKLOADS.read_text(encoding="utf-8"))


def _constants(*names):
    """Module-level literals of the workload file."""
    found = {}
    for node in _module().body:
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


def _dotted(node):
    """['a', 'b', 'c'] for the expression a.b.c, None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_struct_ops_library_calls_exist():
    functions = {node.name: node for node in _module().body
                 if isinstance(node, ast.FunctionDef)}
    # struct_ops passes `lib = (series, recursive_matrix, ...)`, modules of
    # exactcomb, and _struct_op unpacks it as `series, rm, pm, en, vf = lib`
    packed = next(node.value.elts for node in ast.walk(functions["struct_ops"])
                  if isinstance(node, ast.Assign) and _dotted(node.targets[0]) == ["lib"])
    unpacked = next(node.targets[0].elts for node in functions["_struct_op"].body
                    if isinstance(node, ast.Assign) and _dotted(node.value) == ["lib"])
    modules = {alias.id: importlib.import_module(f"exactcomb.{module.id}")
               for alias, module in zip(unpacked, packed)}
    assert set(modules) == {"series", "rm", "pm", "en", "vf"}
    used = {tuple(path) for node in ast.walk(functions["_struct_op"])
            if (path := _dotted(node)) and len(path) > 1 and path[0] in modules}
    assert ("pm", "mobius") in used and ("vf", "run_suites") in used
    for alias, *attributes in used:
        target = modules[alias]
        for attribute in attributes:
            assert hasattr(target, attribute), ".".join([alias, *attributes])
            target = getattr(target, attribute)
