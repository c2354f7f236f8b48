"""tools/bench_pairs.py records from source only: it refuses a checkout that
holds cached bytecode, and its runs write none.

Each test builds throwaway checkouts under tmp_path whose perfbench/run.py
is a stub that prints one result line; no benchmark runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# imports a module from the checkout's src/, as the real run.py does
STUB_RUN = """\
import json, os, sys
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
import probe
print(json.dumps({"metrics": {"ops_per_s": {"value": probe.OPS, "unit": "1/s"}},
                  "correct": True, "failed": 0, "attempted": 1}))
"""


def checkout(root: Path, ops: float) -> Path:
    (root / "src").mkdir(parents=True)
    (root / "src" / "probe.py").write_text(f"OPS = {ops}\n")
    (root / "perfbench").mkdir()
    (root / "perfbench" / "run.py").write_text(STUB_RUN)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "end_to_end": [{"name": "ops_per_s", "better": "higher"}], "per_layer": []}))
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
    for side in (parent, change):
        assert not [p for p in (side / "src").rglob("*")
                    if p.name == "__pycache__" or p.suffix == ".pyc"]
