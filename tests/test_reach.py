"""tools/reach.py names each function of a package that its traffic never
runs, and fails on one that its keep-list does not name.  The report runs
here on a small module written to a temporary directory, never on the
real traffic."""

import importlib.util
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = ("def used():\n"
          "    return Box()\n"
          "\n"
          "\n"
          "class Box:\n"
          "    def unused(self):\n"
          "        return 0\n")


@pytest.mark.parametrize("kept, code, lines", [
    ({}, 1, ["mod.Box.unused: UNREACHED, and not in the keep-list"]),
    ({"mod.Box.unused": "why"}, 0, ["mod.Box.unused: kept, why"]),
    ({"mod.Box.unused": "why", "mod.used": "stale", "mod.gone": "stale"}, 1,
     ["mod.Box.unused: kept, why", "mod.gone: in the keep-list, but gone",
      "mod.used: in the keep-list, but it ran"]),
], ids=["unkept", "kept", "stale-keep"])
def test_report_names_each_function_the_traffic_never_runs(tmp_path, kept, code, lines):
    (tmp_path / "mod.py").write_text(MODULE)

    def traffic():
        runpy.run_path(str(tmp_path / "mod.py"))["used"]()

    got_code, text = reach.report(tmp_path, traffic, kept)
    assert (got_code, text.splitlines()) == (code, [*lines, "1 of 2 functions ran"])
