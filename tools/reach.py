"""List every function of src/exactcomb that no caller outside the tests
runs, and every public name of it that no such caller reads.

A `sys.settrace` hook records each code object of a file under the
repository, outside tests/, that gets called while this process runs, in
order (none of it starts a thread):

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
ran, and, as "module.name", every public top-level class or assignment
of the package that no recorded code object reads; a module of a
subpackage is named by its dotted path below the package ("verify.core"),
and a subpackage's __init__.py by the subpackage.  A code object reads
each name one of its instructions loads (whether or not that
instruction ran), and each name in an annotation of its ``def`` or, for
a module, of its top-level annotated assignments: under ``from
__future__ import annotations`` no annotation is loaded.  A name loaded
by name (LOAD_NAME, LOAD_GLOBAL) or in an annotation is the reading
module's own, or that of the module its file imports it from with
``from ... import``; an IMPORT_FROM reads the name of the module it
imports from, and a name imported from the package itself is that of
its home module in the package's ``_EXPORTS``.  An attribute (LOAD_ATTR,
LOAD_METHOD, or ``x.name`` in an annotation) is matched by its text
alone, in any module.  Each one listed carries the reason it stays if
KEPT names it.  The tool exits 1 when one of them is not in KEPT, or
when a KEPT name ran, is read or no longer exists (it then leaves the
list), and 0 otherwise.  Standard library only; it takes a few seconds.

    python3 tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import dis
import io
import json
import os
import runpy
import sys
import tempfile
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType
from typing import Callable, Iterator, Optional

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "exactcomb"
DECKS = 3
# "module.qualname" or "module.name" -> why a function that no caller runs,
# or a name that none reads, stays
KEPT = {
    "__init__.__dir__": "lists the lazy exports for dir() on the package, which "
                        "interactive use calls and no program does",
    "series.FormalSeries.__repr__": "shows a series in the REPL; no program "
                                    "prints one by its repr",
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


def _module(package: Path, path: Path) -> str:
    """The name of a module file of the package: its dotted path below the
    package, a subpackage's __init__.py by the subpackage's name and the
    package's own as "__init__"."""
    parts = path.relative_to(package).with_suffix("").parts
    return ".".join(parts[:-1] if len(parts) > 1 and parts[-1] == "__init__" else parts)


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

    for path in sorted(package.rglob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), _module(package, path) + ".")
    return out


def public(package: Path) -> dict[str, str]:
    """"module.name" -> name for each public top-level class and assignment
    target of the package's modules."""
    out = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out.update((f"{_module(package, path)}.{name}", name)
                       for name in names if not name.startswith("_"))
    return out


def ran_in(root: Path, traffic: Callable[[], None]) -> list[CodeType]:
    """Each code object of a file under `root`, outside root/tests, that was
    called while `traffic` ran in this thread."""
    prefix, tests = str(root) + os.sep, str(root / "tests") + os.sep
    ran: dict[int, CodeType] = {}  # by id: hashing a code object hashes its contents

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix) and not code.co_filename.startswith(tests):
            ran[id(code)] = code

    sys.settrace(trace)
    try:
        traffic()
    finally:
        sys.settrace(None)
    return list(ran.values())


def _annotated(tree: ast.Module) -> dict[tuple, list[ast.expr]]:
    """(first line, name) of each function of a module, as its code object
    gives them, -> that function's annotations; (1, "<module>") -> those of
    the module's top-level annotated assignments."""
    out: dict[tuple, list[ast.expr]] = {
        (1, "<module>"): [n.annotation for n in tree.body if isinstance(n, ast.AnnAssign)]}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            out[first, node.name] = [arg.annotation for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
                if arg and arg.annotation] + ([node.returns] if node.returns else [])
    return out


def _names(expression: ast.expr) -> Iterator[tuple[bool, str]]:
    """(is an attribute, name) for each name and attribute an annotation
    mentions, inside quotes too."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Name):
            yield False, node.id
        elif isinstance(node, ast.Attribute):
            yield True, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from _names(ast.parse(node.value, mode="eval").body)


def _exports(package: Path) -> dict[str, str]:
    """name -> home module, from the ``_EXPORTS`` table of the package's
    __init__.py, if it has one."""
    init = package / "__init__.py"
    for node in ast.parse(init.read_text()).body if init.exists() else []:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            return {name: home for home, names in ast.literal_eval(node.value).items()
                    for name in names}
    return {}


def _home(package: Path, exports: dict[str, str], filename: str, module: str,
          level: int, name: str) -> Optional[str]:
    """"module.name" for `name` imported in `filename` from `module`, `level`
    dots up, when that is the package or one of its modules; None otherwise."""
    if level:
        base = Path(filename).parents[level - 1]
        if base != package and package not in base.parents:
            return None
        parts = [*base.relative_to(package).parts, *(module.split(".") if module else [])]
    else:
        parts = module.split(".")
        if parts[0] != package.name:
            return None
        parts = parts[1:]
    return f"{'.'.join(parts) if parts else exports.get(name, '__init__')}.{name}"


def read_by(codes: list[CodeType], package: Path) -> tuple[set[str], set[str]]:
    """What the code objects read: "module.name" for each name that they
    load by name, import or annotate, resolved as the module docstring
    says, and each attribute name that they load or annotate."""
    exports = _exports(package)
    files = {}
    for path in {code.co_filename for code in codes}:
        tree = ast.parse(Path(path).read_text())
        imported = {alias.asname or alias.name: _home(package, exports, path, node.module or "",
                                                      node.level, alias.name)
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        own = _module(package, Path(path)) if package in Path(path).parents else None
        files[path] = _annotated(tree), imported, own
    names, attributes = set(), set()
    for code in codes:
        annotated, imported, own = files[code.co_filename]

        def resolve(name: str) -> Optional[str]:
            return imported[name] if name in imported else own and f"{own}.{name}"

        instructions = list(dis.get_instructions(code))
        for k, ins in enumerate(instructions):
            if ins.opname in ("LOAD_NAME", "LOAD_GLOBAL"):
                names.add(resolve(ins.argval))
            elif ins.opname in ("LOAD_ATTR", "LOAD_METHOD"):
                attributes.add(ins.argval)
            elif ins.opname == "IMPORT_NAME":  # after LOAD_CONST level, LOAD_CONST names
                source = ins.argval, instructions[k - 2].argval
            elif ins.opname == "IMPORT_FROM":
                names.add(_home(package, exports, code.co_filename, *source, ins.argval))
        for expression in annotated.get((code.co_firstlineno, code.co_name), []):
            for attribute, name in _names(expression):
                if attribute:
                    attributes.add(name)
                else:
                    names.add(resolve(name))
    return names, attributes


def report(root: Path, package: Path, traffic: Callable[[], None],
           kept: dict[str, str]) -> tuple[int, str]:
    """The exit code and the text of the reach report of `package` under
    `traffic`, read from the files under `root` outside root/tests."""
    functions, names = defined(package), public(package)
    codes = ran_in(root, traffic)
    ran = {(code.co_filename, code.co_firstlineno, code.co_name) for code in codes}
    read, attributes = read_by(codes, package)
    unreached = {name for key, name in functions.items() if key not in ran}
    unread = {qualified for qualified, name in names.items()
              if qualified not in read and name not in attributes}
    lines, code = [], 0
    for name in sorted(unreached | unread):
        if name in kept:
            lines.append(f"{name}: kept, {kept[name]}")
        else:
            lines.append(f"{name}: {'UNREACHED' if name in unreached else 'UNREAD'}, "
                         "and not in the keep-list")
            code = 1
    for name in sorted(set(kept) - unreached - unread):
        why = "it ran" if name in functions.values() else "it is read" if name in names else "gone"
        lines.append(f"{name}: in the keep-list, but {why}")
        code = 1
    lines.append(f"{len(functions) - len(unreached)} of {len(functions)} functions ran")
    lines.append(f"{len(names) - len(unread)} of {len(names)} public names are read")
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
    code, text = report(ROOT, PACKAGE, traffic, KEPT)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
