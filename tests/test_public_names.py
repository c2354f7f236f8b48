"""Every public name of the library has a caller outside the tests, or goes.

A public top-level function, class or assignment of a module under
src/exactcomb is in `__init__._EXPORTS`, the package surface, or is
referenced outside tests/: in its own module, in another one, or in
demos/, perfbench/ or tools/.  A name that only tests use is dead code,
unless it sits in KEPT below with the reason it stays.  Files are read
with `ast`, never imported, and a reference is a name or attribute with
that text, so a definition alone does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "exactcomb"
CALLERS = (PACKAGE, ROOT / "demos", ROOT / "perfbench", ROOT / "tools")
# "module.name" -> why a name that only tests use stays
KEPT = {
    "number_theory.divisors": "the tests' reference for divisor_poset's elements, "
                              "also at n = 963761198400, where a scan is out of reach",
    "poly_identities.evaluate": "the tests' point-evaluation reference for every "
                                "basis expansion",
}


def _exports() -> set[str]:
    """The names of `_EXPORTS` in the package's __init__.py."""
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS":
            return {name for names in ast.literal_eval(node.value).values() for name in names}
    raise AssertionError("__init__.py assigns no _EXPORTS")


def _defined(tree: ast.Module):
    """The public names a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _referenced() -> set[str]:
    """Every name read, and every attribute, outside tests/."""
    names = set()
    for path in (p for top in CALLERS for p in sorted(top.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _uncalled() -> set[str]:
    """Each public name neither exported nor referenced, as "module.name"."""
    used = _exports() | _referenced()
    return {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in _defined(ast.parse(path.read_text())) if name not in used}


def test_every_public_name_is_exported_or_referenced():
    assert sorted(_uncalled() - set(KEPT)) == []


def test_each_kept_name_still_has_no_other_caller():
    # a kept name that gained a caller, or went, leaves the list
    assert sorted(set(KEPT) - _uncalled()) == []
