"""Every public name of the library has a caller outside the tests, or goes.

A public top-level function, class or assignment of a module under
src/exactcomb is in `__init__._EXPORTS`, the package surface, or is
referenced outside tests/: in its own module, in another one, or in
demos/, perfbench/ or tools/.  A public method or property of a class
under src/exactcomb is used when an attribute of its name is read
outside tests/ and no other package class defines that name; a name
that two or more classes define needs a qualified reference,
`Class.name` (as `FinitePoset.from_json` in cli.py).  A name that only
tests use is dead code, unless it sits in KEPT below with the reason it
stays.  Files are read with `ast`, never imported, and a reference is a
name or attribute with that text, so a definition alone does not count;
nor does a name read inside a function that binds that name itself, as a
parameter or an assignment target, since the read is of the local.

Known blind spot: a method whose name is also that of a builtin type's
method, such as `items` (every `dict.items()` call reads it), always
counts as referenced.  The last tests run the scan on a small package
written to a temporary directory, where a caller under tests/ is not read.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "exactcomb"
CALLERS = (PACKAGE, ROOT / "demos", ROOT / "perfbench", ROOT / "tools")
# "module.name" or "Class.name" -> why a name with no resolvable caller
# outside the tests stays
KEPT = {
    "number_theory.divisors": "the tests' reference for divisor_poset's elements, "
                              "also at n = 963761198400, where a scan is out of reach",
    "poly_identities.evaluate": "the tests' point-evaluation reference for every "
                                "basis expansion",
    "IncidenceFunction.table": "read as mu.table by IncidenceFunction.items, by "
                               "verify's Mobius checks and by perfbench's struct-ops",
    "RecursiveMatrix.table": "called as matrix.table by the `exactcomb table` "
                             "command, by verify and by perfbench's struct-ops",
}


def _exports(package: Path) -> set[str]:
    """The names of `_EXPORTS` in the package's __init__.py."""
    for node in ast.parse((package / "__init__.py").read_text()).body:
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


def _methods(tree: ast.Module):
    """(class, name) for each public method and property of a module's
    top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield node.name, item.name


def _local_reads(function):
    """The names read in a function's body (nested functions included) that
    the function binds itself: its parameters, and its assignment targets
    not declared global or nonlocal."""
    args = function.args
    body = function.body if isinstance(function.body, list) else [function.body]
    nodes = [node for statement in body for node in ast.walk(statement)]
    bound = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg}
    bound |= {node.id for node in nodes
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    bound -= {name for node in nodes if isinstance(node, (ast.Global, ast.Nonlocal))
              for name in node.names}
    return [node for node in nodes
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in bound]


def _referenced(callers) -> tuple[set[str], set[str], set[str]]:
    """In the callers' files: every name read, less the reads of a function's
    own locals, every attribute, and every attribute read off a name or
    attribute, as "owner.attribute"."""
    names, attributes, qualified = set(), set(), set()
    for path in (p for top in callers for p in sorted(top.rglob("*.py"))):
        tree = ast.parse(path.read_text())
        local = {id(read) for function in ast.walk(tree)
                 if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                 for read in _local_reads(function)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and id(node) not in local):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                owner = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
                if owner:
                    qualified.add(f"{owner}.{node.attr}")
    return names, attributes, qualified


def _uncalled(package: Path = PACKAGE, callers=CALLERS) -> set[str]:
    """Each public name of the package neither exported nor referenced by
    the callers, as "module.name", and each public method or property
    with no resolvable caller, as "Class.name"."""
    names, attributes, qualified = _referenced(callers)
    used = _exports(package) | names | attributes
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    out = {f"{stem}.{name}" for stem, tree in trees.items()
           for name in _defined(tree) if name not in used}
    methods = [method for tree in trees.values() for method in _methods(tree)]
    owners = Counter(name for _, name in methods)
    for cls, name in methods:
        resolved = name in attributes if owners[name] == 1 else f"{cls}.{name}" in qualified
        if not resolved:
            out.add(f"{cls}.{name}")
    return out


def test_every_public_name_is_exported_or_referenced():
    assert sorted(_uncalled() - set(KEPT)) == []


def test_each_kept_name_still_has_no_other_caller():
    # a kept name that gained a resolvable caller, or went, leaves the list
    assert sorted(set(KEPT) - _uncalled()) == []


def _scan(root: Path, module: str, callers: str, exports: str = "{}") -> set[str]:
    """`_uncalled` of a package with one module and one caller file."""
    package = root / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(f"_EXPORTS = {exports}\n")
    (package / "mod.py").write_text(module)
    (root / "demos").mkdir()
    (root / "demos" / "use.py").write_text(callers)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text("unused()\nSeries().dummy()\n")
    return _uncalled(package, (package, root / "demos"))


def test_scan_flags_a_name_or_method_only_tests_use(tmp_path):
    module = ("class Series:\n"
              "    def to_json(self): pass\n"
              "    def dummy(self): pass\n"
              "class Exported: pass\n"
              "def unused(): pass\n")
    found = _scan(tmp_path, module, "Series().to_json()\n", '{"mod": ["Exported"]}')
    assert found == {"Series.dummy", "mod.unused"}


@pytest.mark.parametrize("callers, found", [
    ("obj.from_json()\n", {"A.from_json", "B.from_json"}),
    ("A.from_json()\n", {"B.from_json"}),
    ("A.from_json()\nmod.B.from_json()\n", set()),
], ids=["unqualified", "one-qualified", "both-qualified"])
def test_scan_needs_a_qualified_caller_for_a_shared_method_name(tmp_path, callers, found):
    module = ("class A:\n"
              "    def from_json(self): pass\n"
              "class B:\n"
              "    def from_json(self): pass\n")
    assert _scan(tmp_path, module, callers, '{"mod": ["A", "B"]}') == found


@pytest.mark.parametrize("callers, found", [
    ("def show(divisors):\n    return divisors\nshow(1)\n", {"mod.divisors"}),
    ("def total():\n    divisors = [1]\n    return sum(divisors)\ntotal()\n",
     {"mod.divisors"}),
    ("def show(n):\n    return divisors(n)\nshow(1)\n", set()),
], ids=["parameter", "assignment", "call"])
def test_scan_counts_no_read_of_a_local_that_shares_a_name(tmp_path, callers, found):
    assert _scan(tmp_path, "def divisors(): pass\n", callers) == found
