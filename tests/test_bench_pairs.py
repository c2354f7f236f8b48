"""tools/bench_pairs.py records from source only: it refuses a checkout that
holds cached bytecode, and its runs write none.  Its verdict on each
end-to-end metric follows the pairs and the bound.

Each recording test builds throwaway checkouts under tmp_path whose
perfbench/run.py is a stub that prints one result line; no benchmark runs.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# imports a module from the checkout's src/, as the real run.py does
STUB_RUN = """\
import json, os, sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import probe
if probe.REFERENCE is not None:
    print(f"  reference_ms {probe.REFERENCE} ms")
print(json.dumps({"metrics": {"ops_per_s": {"value": probe.OPS, "unit": "1/s"}},
                  "correct": True, "failed": 0, "attempted": 1}))
"""


def checkout(root: Path, ops: float, reference: float | None = None) -> Path:
    """A checkout whose run.py reports `ops` and, unless None, the machine
    speed `reference` in a reference_ms line, as perfbench/run.py does."""
    (root / "src").mkdir(parents=True)
    (root / "src" / "probe.py").write_text(f"OPS = {ops}\nREFERENCE = {reference}\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.25}],
        "per_layer": []}))
    return root


def record(parent: Path, change: Path, out: Path) -> subprocess.CompletedProcess:
    # the caller's environment must not be what keeps the bytecode away
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", str(parent),
         "--change", str(change), "--out", str(out), "--workloads", "stub",
         "--seeds", "1", "2", "--seconds", "0.1"],
        capture_output=True, text=True, timeout=120, env=env)


@pytest.mark.parametrize("side, cached", [
    ("parent", "src/pkg/__pycache__"),
    ("change", "src/pkg/__pycache__/mod.cpython-311.pyc"),
    ("change", "src/stray.pyc"),
])
def test_refuses_a_checkout_with_cached_bytecode(tmp_path, side, cached):
    sides = {name: checkout(tmp_path / name, 1.0) for name in ("parent", "change")}
    path = sides[side] / cached
    if path.suffix == ".pyc":
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
    else:
        path.mkdir(parents=True)
    out = tmp_path / "BENCH_0.json"
    proc = record(sides["parent"], sides["change"], out)
    assert proc.returncode == 2
    assert proc.stdout == ""
    # a file inside __pycache__ is named by its directory
    named = sides[side] / cached.partition("__pycache__")[0]
    assert proc.stderr.startswith(f"error: cached bytecode in {named}")
    assert path.exists()
    assert not out.exists()


def test_runs_write_no_bytecode(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0)
    change = checkout(tmp_path / "change", 2.0)
    out = tmp_path / "BENCH_0.json"
    proc = record(parent, change, out)
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(out.read_text())["workloads"]["stub"]
    assert entry["metrics"]["ops_per_s"]["wins"] == {"change": 2, "parent": 0, "ties": 0}
    assert ("stub ops_per_s: parent 1 [1, 1] -> change 2, change won 2/2: gain"
            in proc.stderr.splitlines())
    for side in (parent, change):
        assert not [p for p in (side / "src").rglob("*")
                    if p.name == "__pycache__" or p.suffix == ".pyc"]
    # runs that print no machine speed get no speed line
    assert "reference_ms" not in entry
    assert "reference_ms" not in proc.stderr


def test_prints_machine_speed_next_to_the_verdict(tmp_path):
    parent = checkout(tmp_path / "parent", 1.0, reference=0.4)
    change = checkout(tmp_path / "change", 1.0, reference=0.55)
    out = tmp_path / "BENCH_0.json"
    proc = record(parent, change, out)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[-2:] == [
        "stub ops_per_s: parent 1 [1, 1] -> change 1, change won 0/2: within bound",
        "stub reference_ms (machine speed, lower is faster): "
        "parent 0.4 [0.4, 0.4], change 0.55 [0.55, 0.55]"]
    speed = json.loads(out.read_text())["workloads"]["stub"]["reference_ms"]
    assert (speed["parent"]["values"], speed["change"]["values"]) == ([0.4, 0.4], [0.55, 0.55])


def summary(parent, change, better="lower"):
    """A made-up metric summary of paired runs, as `summarize` writes it."""
    sign = 1 if better == "higher" else -1
    wins = {"change": 0, "parent": 0, "ties": 0}
    for p, c in zip(parent, change):
        d = sign * (c - p)
        wins["change" if d > 0 else "parent" if d < 0 else "ties"] += 1
    return {"better": better, "parent": bench_pairs.spread(parent),
            "change": bench_pairs.spread(change), "wins": wins}


PARENT = [1.30, 1.32, 1.34, 1.35, 1.36, 1.38, 1.40, 1.42, 1.44, 1.46]


@pytest.mark.parametrize("parent, change, better, want", [
    # 10/10 wins, medians 0.2 apart against a parent spread of 0.07
    (PARENT, [v - 0.2 for v in PARENT], "lower", "gain"),
    (PARENT, [v + 0.2 for v in PARENT], "higher", "gain"),
    # 9/10 wins is enough; a tie counts for neither side
    (PARENT, [v - 0.2 for v in PARENT[:9]] + [1.46], "lower", "gain"),
    (PARENT, [v - 0.2 for v in PARENT[:8]] + [1.44, 1.46], "lower", "within bound"),
    # 10/10 wins inside the parent's spread is no gain
    (PARENT, [v - 0.01 for v in PARENT], "lower", "within bound"),
    # the median 30% worse against a 25% bound, whatever the spread
    (PARENT, [v * 1.3 for v in PARENT], "lower", "worse"),
    (PARENT, [v * 0.7 for v in PARENT], "higher", "worse"),
    (PARENT, [v * 1.2 for v in PARENT], "lower", "within bound"),
    # a spread wider than the bound on either side
    ([1.0, 1.0, 1.5, 1.5, 2.0], [1.0, 1.0, 1.5, 1.5, 2.0], "lower", "unresolved"),
    (PARENT, [1.0, 1.0, 1.35, 1.7, 1.7, 1.35, 1.0, 1.7, 1.35, 1.35], "lower", "unresolved"),
    # unless every run of the change is better than every parent run
    ([2.0, 2.0, 3.0, 3.0, 4.0], [1.0, 1.0, 1.5, 1.5, 1.9], "lower", "gain"),
    ([1.0, 2.0, 3.0, 3.0, 3.0], [3.5] * 5, "higher", "within bound"),
    ([1.0, 2.0, 3.0, 3.0, 3.0], [3.5] * 4 + [2.9], "higher", "unresolved"),
])
def test_verdict(parent, change, better, want):
    assert bench_pairs.verdict(summary(parent, change, better), 0.25) == want
