"""List every function of src/exactcomb that no caller outside the tests runs.

A `sys.settrace` hook records each code object of the package that gets
called while this process runs, in order (none of it starts a thread):

* `exactcomb verify`, every suite, then each other command of
  tests/cli_golden.json, through ``exactcomb.cli.main`` from the
  repository root, with stdout and stderr captured as tools/golden.py
  does;
* each script in demos/, run as ``__main__`` with its output captured;
* DECKS decks each of the ``coeff-session`` and ``struct-ops`` benchmark
  workloads, made by perfbench/workloads.py and run through the untraced
  ``tracing.Recorder``, with no answer checked.  perfbench/ is only read.

It then prints, as "module.qualname", every function or method defined
in the package (a ``def``, not a lambda or comprehension) that never
ran, with the reason it stays if KEPT names it.  It exits 1 when one of
them is not in KEPT, or when a KEPT name ran or no longer exists (it then
leaves the list), and 0 otherwise.  Standard library only; it takes a
few seconds.

    python3 tools/reach.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exactcomb"
DECKS = 3
# "module.qualname" -> why a function that no caller runs stays
KEPT = {
    "__init__.__dir__": "lists the lazy exports for dir() on the package, which "
                        "interactive use calls and no program does",
    "series.FormalSeries.__repr__": "shows a series in the REPL; no program "
                                    "prints one by its repr",
    "number_theory.divisors": "the tests' reference for divisor_poset's elements",
    "poly_identities.evaluate": "the tests' point-evaluation reference for every "
                                "basis expansion",
    "poset_mobius.IncidenceFunction.__iter__": "required by collections.abc.Mapping; "
        "list(mu) and keys() read it, while the package reads a function through "
        "__call__, items() and len()",
    "poset_mobius.IncidenceFunction.__getitem__": "required by collections.abc.Mapping; "
        "mu[x, y], get() and `in` read it",
    "exact_core.Record.__setattr__": "the immutability guard: it runs only when "
                                     "code tries to assign a field",
    "exact_core.Record.__delattr__": "the immutability guard: it runs only when "
                                     "code tries to delete a field",
    "exact_core._label": "names the check in the message of a failed cross-check "
                         "(agree, exact_quotient), which correct code never raises",
    "exact_core._show": "writes the values in the message of a failed cross-check "
                        "(agree, exact_quotient), which correct code never raises",
}


def defined(package: Path) -> dict[tuple, str]:
    """(file, first line, name) -> "module.qualname" for each function and
    method that the package's modules define, nested ones included."""
    out: dict[tuple, str] = {}

    def walk(code: CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType) or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            if const.co_flags & CO_NEWLOCALS:  # a function, not a class body
                out[(const.co_filename, const.co_firstlineno, const.co_name)] = name
                walk(const, name + ".<locals>.")
            else:
                walk(const, name + ".")

    for path in sorted(package.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem + ".")
    return out


def ran_in(package: Path, traffic: Callable[[], None]) -> set[tuple]:
    """(file, first line, name) of each code object of the package that
    was called while `traffic` ran in this thread."""
    prefix = str(package) + os.sep
    ran: set[tuple] = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            ran.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.settrace(trace)
    try:
        traffic()
    finally:
        sys.settrace(None)
    return ran


def report(package: Path, traffic: Callable[[], None], kept: dict[str, str]) -> tuple[int, str]:
    """The exit code and the text of the reach report of `package` under
    `traffic`."""
    functions = defined(package)
    ran = ran_in(package, traffic)
    unreached = sorted(name for key, name in functions.items() if key not in ran)
    lines, code = [], 0
    for name in unreached:
        if name in kept:
            lines.append(f"{name}: kept, {kept[name]}")
        else:
            lines.append(f"{name}: UNREACHED, and not in the keep-list")
            code = 1
    for name in sorted(set(kept) - set(unreached)):
        gone = name not in functions.values()
        lines.append(f"{name}: in the keep-list, but {'gone' if gone else 'it ran'}")
        code = 1
    lines.append(f"{len(functions) - len(unreached)} of {len(functions)} functions ran")
    return code, "\n".join(lines) + "\n"


def _quietly(run: Callable[[], object]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        run()


def _decks(tmp: str) -> None:
    """DECKS decks of the in-process benchmark workloads, seed 1."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import Recorder
    from workloads import DECK_LEN, MAKERS

    rec = Recorder()
    for workload in ("coeff-session", "struct-ops"):
        ops = MAKERS[workload](1, tmp, {})
        for _ in range(DECKS * DECK_LEN[workload]):
            next(ops).run(rec)
        ops.close()


def traffic() -> None:
    """Every caller of the package outside tests/: see the module docstring."""
    from exactcomb import cli

    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    argvs = [["verify"], *(r["argv"] for r in golden if r["argv"] != ["verify"])]
    for argv in argvs:
        _quietly(lambda: cli.main(argv))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        _quietly(lambda: runpy.run_path(str(demo), run_name="__main__"))
    with tempfile.TemporaryDirectory() as tmp:
        _quietly(lambda: _decks(tmp))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    os.environ.pop("EXACTCOMB_VERBOSE", None)
    code, text = report(PACKAGE, traffic, KEPT)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
