"""tools/reach.py names each function of a package that its traffic never
runs, and each public name of it that no code outside tests/ reads, and
fails on one that its keep-list does not name.  The report runs here on
a small module written to a temporary directory, never on the real
traffic."""

import importlib.util
import runpy
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
CALLER = ("def show(DEAD):\n"
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
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "use.py").write_text(CALLER)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("assert TESTED == 3\n")

    def traffic():
        names = runpy.run_path(str(tmp_path / "pkg" / "mod.py"))
        for caller in ("use.py", "tests/test_mod.py"):
            runpy.run_path(str(tmp_path / caller), init_globals=names)

    got_code, text = reach.report(tmp_path, tmp_path / "pkg", traffic, kept)
    assert (got_code, text.splitlines()) == (
        code, [*lines, "3 of 5 functions ran", "4 of 6 public names are read"])


def _flagged(root: Path, module: str, caller: str, tested: str = "") -> set[str]:
    """Each name the report lists under a traffic that runs `module` as
    pkg/mod.py, then `caller` outside tests/ and `tested` under tests/."""
    (root / "pkg").mkdir()
    (root / "pkg" / "mod.py").write_text(module)
    (root / "use.py").write_text(caller)
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(tested)

    def traffic():
        names = runpy.run_path(str(root / "pkg" / "mod.py"))
        for path in ("use.py", "tests/test_mod.py"):
            runpy.run_path(str(root / path), init_globals=names)

    _, text = reach.report(root, root / "pkg", traffic, {})
    return {line.split(":")[0] for line in text.splitlines() if "not in the keep-list" in line}


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
    assert _flagged(tmp_path, module, "Series().to_json()\n",
                    "assert LIMIT and unused and Series.dummy\n") == {
        "mod.LIMIT", "mod.Series.dummy", "mod.unused"}


@pytest.mark.parametrize("caller, found", [
    ("for obj in (A(), B()):\n    obj.from_json()\n", set()),
    ("A.from_json(A())\n", {"mod.B", "mod.B.from_json"}),
    ("A.from_json(A())\nB.from_json(B())\n", set()),
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


@pytest.mark.parametrize("caller, found", [
    ("def show(LIMIT):\n    return LIMIT\n\n\nshow(1)\n", {"mod.LIMIT"}),
    ("def total():\n    LIMIT = [1]\n    return sum(LIMIT)\n\n\ntotal()\n", {"mod.LIMIT"}),
    ("[LIMIT for LIMIT in range(2)]\n", {"mod.LIMIT"}),
    ("def bump():\n    global LIMIT\n    LIMIT += 1\n\n\nbump()\n", set()),
    ("def show(n):\n    return LIMIT + n\n\n\nshow(1)\n", set()),
], ids=["parameter", "assignment", "comprehension", "global", "call"])
def test_report_counts_no_read_of_a_local_that_shares_a_name(tmp_path, caller, found):
    assert _flagged(tmp_path, "LIMIT = 1\n", caller) == found


@pytest.mark.parametrize("module, caller, found", [
    ("from __future__ import annotations\n\nAlias = int\n\n\n"
     "def used(x: Alias) -> int:\n    return x\n", "used(1)\n", set()),
    ("Alias = int\n\n\ndef used(x: 'list[Alias]') -> int:\n    return len(x)\n",
     "used([])\n", set()),
    ("from __future__ import annotations\n\nAlias = int\nLIMIT: Alias = 1\n", "LIMIT\n", set()),
    ("from __future__ import annotations\n\nAlias = int\n\n\n"
     "def unused(x: Alias) -> int:\n    return x\n", "", {"mod.Alias", "mod.unused"}),
], ids=["future", "quoted", "module", "not-run"])
def test_report_reads_a_name_in_an_annotation_of_code_that_ran(tmp_path, module, caller, found):
    assert _flagged(tmp_path, module, caller) == found


def test_report_counts_no_read_from_outside_the_root(tmp_path):
    # fractions.Fraction loads numbers.Rational, but the standard library
    # is not under the root, so the alias stays unread
    module = "from fractions import Fraction\n\nRational = Fraction\n"
    assert _flagged(tmp_path, module, "Fraction(1, 2) + 1\n") == {"mod.Rational"}
