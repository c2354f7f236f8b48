"""tools/reach.py names each function of a package that its traffic never
runs, and each public name of it that no code outside tests/ reads, and
fails on one that its keep-list does not name.  The report runs here on
a small package, pkg, written to a temporary directory, never on the
real traffic; the callers import from it as code outside the package
does."""

import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = ("from __future__ import annotations\n"
          "\n"
          "Alias = int  # read only in an annotation of used, which runs\n"
          "READ = 1\n"
          "DEAD = 2  # read only in dead, which never runs\n"
          "TESTED = 3  # read only under tests/\n"
          "\n"
          "\n"
          "def used(x: Alias) -> int:\n"
          "    return READ + x\n"
          "\n"
          "\n"
          "def dead():\n"
          "    return DEAD\n"
          "\n"
          "\n"
          "class A:\n"
          "    def from_json(self):\n"
          "        return 0\n"
          "\n"
          "    def dummy(self):  # run by tests only, so not by the traffic\n"
          "        return 0\n"
          "\n"
          "\n"
          "class B:\n"
          "    def from_json(self):\n"
          "        return 1\n")
# a caller outside tests/: a parameter that shares a global's name reads the local
CALLER = ("from pkg.mod import A, B, used\n"
          "\n"
          "\n"
          "def show(DEAD):\n"
          "    return DEAD\n"
          "\n"
          "\n"
          "show(used(0))\n"
          "for obj in (A(), B()):\n"
          "    obj.from_json()\n")
UNKEPT = ["mod.A.dummy", "mod.DEAD", "mod.TESTED", "mod.dead"]
WHY = {name: "why" for name in UNKEPT}


@pytest.mark.parametrize("kept, code, lines", [
    ({}, 1, ["mod.A.dummy: UNREACHED, and not in the keep-list",
             "mod.DEAD: UNREAD, and not in the keep-list",
             "mod.TESTED: UNREAD, and not in the keep-list",
             "mod.dead: UNREACHED, and not in the keep-list"]),
    (WHY, 0, [f"{name}: kept, why" for name in UNKEPT]),
    ({**WHY, "mod.used": "stale", "mod.READ": "stale", "mod.gone": "stale"}, 1,
     [*(f"{name}: kept, why" for name in UNKEPT), "mod.READ: in the keep-list, but it is read",
      "mod.gone: in the keep-list, but gone", "mod.used: in the keep-list, but it ran"]),
], ids=["unkept", "kept", "stale-keep"])
def test_report_names_each_function_the_traffic_never_runs(tmp_path, kept, code, lines):
    traffic = _traffic(tmp_path, {"mod": MODULE}, CALLER,
                       "from pkg.mod import TESTED\n\nassert TESTED == 3\n")
    got_code, text = reach.report(tmp_path, tmp_path / "pkg", traffic, kept)
    assert (got_code, text.splitlines()) == (
        code, [*lines, "3 of 5 functions ran", "4 of 6 public names are read"])


def _traffic(root: Path, modules: dict[str, str], caller: str, tested: str):
    """Write `modules` as the files of root/pkg, then a traffic that runs
    `caller` outside tests/ and `tested` under tests/, each able to import
    pkg, which is imported afresh each time."""
    for name, source in modules.items():
        path = root / "pkg" / f"{name}.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    (root / "use.py").write_text(caller)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(tested)

    def traffic():
        sys.path.insert(0, str(root))
        try:
            for path in ("use.py", "tests/test_mod.py"):
                runpy.run_path(str(root / path))
        finally:
            sys.path.remove(str(root))
            for name in [n for n in sys.modules if n.partition(".")[0] == "pkg"]:
                del sys.modules[name]

    return traffic


def _unkept(root: Path, traffic) -> set[str]:
    """Each name the report on root/pkg lists under `traffic`, with an
    empty keep-list."""
    _, text = reach.report(root, root / "pkg", traffic, {})
    return {line.split(":")[0] for line in text.splitlines() if "not in the keep-list" in line}


def _flagged(root: Path, module: str, caller: str, tested: str = "") -> set[str]:
    """Each name the report lists under a traffic that runs `caller`
    outside tests/ and `tested` under tests/, with `module` as pkg/mod.py."""
    return _unkept(root, _traffic(root, {"mod": module}, caller, tested))


def test_report_flags_a_name_or_method_only_tests_use(tmp_path):
    # the real traffic never runs tests/, so a test's references are all
    # that tests/ adds: they neither run a def nor read a name
    module = ("LIMIT = 1\n"
              "\n"
              "\n"
              "class Series:\n"
              "    def to_json(self):\n"
              "        return 0\n"
              "\n"
              "    def dummy(self):\n"
              "        return 0\n"
              "\n"
              "\n"
              "def unused():\n"
              "    return 0\n")
    assert _flagged(tmp_path, module, "from pkg.mod import Series\n\nSeries().to_json()\n",
                    "from pkg.mod import LIMIT, Series, unused\n\n"
                    "assert LIMIT and unused and Series.dummy\n") == {
        "mod.LIMIT", "mod.Series.dummy", "mod.unused"}


@pytest.mark.parametrize("caller, found", [
    ("from pkg.mod import A, B\n\nfor obj in (A(), B()):\n    obj.from_json()\n", set()),
    ("from pkg.mod import A\n\nA.from_json(A())\n", {"mod.B", "mod.B.from_json"}),
    ("from pkg.mod import A, B\n\nA.from_json(A())\nB.from_json(B())\n", set()),
], ids=["unqualified", "one-qualified", "both-qualified"])
def test_report_needs_no_qualified_caller_for_a_shared_method_name(tmp_path, caller, found):
    # each method must run, so two classes may share a method name
    module = ("class A:\n"
              "    def from_json(self):\n"
              "        return 0\n"
              "\n"
              "\n"
              "class B:\n"
              "    def from_json(self):\n"
              "        return 1\n")
    assert _flagged(tmp_path, module, caller) == found


@pytest.mark.parametrize("run, found", [
    ("def run(LIMIT=2):\n    return LIMIT\n", {"mod.LIMIT"}),
    ("def run():\n    LIMIT = [1]\n    return sum(LIMIT)\n", {"mod.LIMIT"}),
    ("def run():\n    return [LIMIT for LIMIT in range(2)]\n", {"mod.LIMIT"}),
    ("def run():\n    global LIMIT\n    LIMIT += 1\n", set()),
    ("def run(n=1):\n    return LIMIT + n\n", set()),
], ids=["parameter", "assignment", "comprehension", "global", "call"])
def test_report_counts_no_read_of_a_local_that_shares_a_name(tmp_path, run, found):
    # the module's own function reads a local, not the global, of that name
    module = "LIMIT = 1\n\n\n" + run
    assert _flagged(tmp_path, module, "from pkg.mod import run\n\nrun()\n") == found


@pytest.mark.parametrize("module, caller, found", [
    ("from __future__ import annotations\n\nAlias = int\n\n\n"
     "def used(x: Alias) -> int:\n    return x\n", "from pkg.mod import used\n\nused(1)\n",
     set()),
    ("Alias = int\n\n\ndef used(x: 'list[Alias]') -> int:\n    return len(x)\n",
     "from pkg.mod import used\n\nused([])\n", set()),
    ("from __future__ import annotations\n\nAlias = int\nLIMIT: Alias = 1\n",
     "from pkg.mod import LIMIT\n", set()),
    ("from __future__ import annotations\n\nAlias = int\n\n\n"
     "def unused(x: Alias) -> int:\n    return x\n", "import pkg.mod\n",
     {"mod.Alias", "mod.unused"}),
], ids=["future", "quoted", "module", "not-run"])
def test_report_reads_a_name_in_an_annotation_of_code_that_ran(tmp_path, module, caller, found):
    assert _flagged(tmp_path, module, caller) == found


def test_report_counts_no_read_from_outside_the_root(tmp_path):
    # fractions.Fraction loads numbers.Rational, but the standard library
    # is not under the root, so the alias stays unread
    module = "from fractions import Fraction\n\nRational = Fraction\n"
    caller = "from pkg.mod import Fraction\n\nFraction(1, 2) + 1\n"
    assert _flagged(tmp_path, module, caller) == {"mod.Rational"}


# mod and other both define Scalar, and the package exports other's, as
# __init__.py exports the real package's names; mod reads its own Scalar
# only in an annotation of double
TWIN = ("from __future__ import annotations\n"
        "\n"
        "Scalar = int\n"
        "\n"
        "\n"
        "def double(x: Scalar) -> Scalar:\n"
        "    return 2 * x\n")
EXPORTS = ('_EXPORTS = {"mod": ("double",), "other": ("Scalar",)}\n'
           "\n"
           "\n"
           "def __getattr__(name):\n"
           "    for home, names in _EXPORTS.items():\n"
           "        if name in names:\n"
           "            return getattr(__import__(home, globals(), None, (), 1), name)\n"
           "    raise AttributeError(name)\n")


@pytest.mark.parametrize("caller, found", [
    ("from pkg import double\n\ndouble(1)\n", {"other.Scalar"}),
    ("from pkg import double\nfrom pkg.other import Scalar\n\nScalar(1)\n",
     {"mod.Scalar", "mod.double"}),
    ("from pkg import Scalar, double\n\nScalar(1)\n", {"mod.Scalar", "mod.double"}),
    ("import pkg.other\nfrom pkg import double\n\npkg.other.Scalar(1)\n", {"mod.double"}),
], ids=["own-module", "imported-from", "package-export", "attribute"])
def test_report_resolves_a_name_to_the_module_it_is_read_from(tmp_path, caller, found):
    # a name read by name or imported is one module's; an attribute is
    # matched by its text, so pkg.other.Scalar reads mod's Scalar too
    modules = {"__init__": EXPORTS, "mod": TWIN, "other": "Scalar = int\n"}
    assert _unkept(tmp_path, _traffic(tmp_path, modules, caller, "")) == found


# a subpackage, as the verify package is: its __init__ is named by the
# subpackage, and its modules import from it and from the package above
SUBPACKAGE = {
    "__init__": "",
    "mod": "LIMIT = 1\n",
    "sub/__init__": ("from __future__ import annotations\n"
                     "\n"
                     "Alias = int\n"
                     "UNUSED = 0\n"
                     "\n"
                     "\n"
                     "def helper() -> int:\n"
                     "    return 1\n"),
    "sub/leaf": ("from __future__ import annotations\n"
                 "\n"
                 "from ..mod import LIMIT\n"
                 "from . import Alias, helper\n"
                 "\n"
                 "\n"
                 "def run(x: Alias) -> int:\n"
                 "    return LIMIT + helper() + x\n"
                 "\n"
                 "\n"
                 "def dead():\n"
                 "    return 0\n"),
}


def test_report_walks_a_subpackage_and_resolves_its_relative_imports(tmp_path):
    traffic = _traffic(tmp_path, SUBPACKAGE, "from pkg.sub.leaf import run\n\nrun(1)\n", "")
    assert _unkept(tmp_path, traffic) == {"sub.UNUSED", "sub.leaf.dead"}
