"""Record alternating parent/change benchmark pairs into a BENCH_<n>.json file.

Runs ``perfbench/run.py`` in two source checkouts, a parent and a change,
once per seed and workload, alternating which side runs first.  For every
metric it writes each side's median and quartiles, how many pairs each side
won (by the metric's ``better`` direction in the change's BENCHMARK.json),
the two git SHAs and the Python version.  For untraced runs it also keeps
the machine speed each run measured, the ``reference_ms`` line that run.py
prints (the median time of its fixed reference kernel), per run and per
side.  Standard library only.

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_7.json \\
        --workloads struct-ops coeff-session cli-oneshot --seeds 1 2 3 --seconds 20
    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_7.json \\
        --workloads struct-ops --seeds 1 2 3 --trace 1

Each invocation adds (or replaces) one entry per workload, keyed
``<workload>`` or ``<workload>+trace``, so untraced and traced pairs can
share a file; the SHAs and Python version must match the file's.

Cached bytecode changes what a run measures (start-up and import time read
lower with a warm ``__pycache__``), so the tool exits 2 before running
anything when either side's ``src/`` holds a ``__pycache__`` directory or a
``.pyc`` file, naming it; it deletes nothing.  Its runs set
``PYTHONDONTWRITEBYTECODE=1``, so no cache appears while it records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900
RUN_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def git_sha(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def directions(checkout: Path) -> dict[str, str]:
    """Metric name -> "higher" or "lower", from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def cached_bytecode(checkout: Path) -> list[Path]:
    """Every __pycache__ directory and .pyc file under the checkout's src/."""
    return sorted(path for path in (checkout / "src").rglob("*")
                  if path.name == "__pycache__" or path.suffix == ".pyc")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one perfbench run in `checkout`, plus the
    `reference_ms` it printed, if any, under that key."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, env=RUN_ENV)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        fields = line.split()
        if fields[:1] == ["reference_ms"]:
            result["reference_ms"] = float(fields[1])
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per metric: both sides' spread, the wins per side and the median ratio."""
    out = {}
    for name, first in runs["parent"][0]["metrics"].items():
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        sign = {"higher": 1, "lower": -1}.get(better.get(name), 0)
        wins = {"change": 0, "parent": 0, "ties": 0}
        for p, c in zip(parent, change):
            d = sign * (c - p)
            wins["change" if d > 0 else "parent" if d < 0 else "ties"] += 1
        base = statistics.median(parent)
        out[name] = {
            "unit": first["unit"],
            "better": better.get(name),
            "parent": spread(parent),
            "change": spread(change),
            "wins": wins,
            "change_over_parent": statistics.median(change) / base if base else None,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in sides.values():
        cached = cached_bytecode(checkout)
        if cached:
            print(f"error: cached bytecode in {cached[0]}; remove every __pycache__ "
                  f"under {checkout / 'src'} before recording", file=sys.stderr)
            return 2
    head = {"parent_sha": git_sha(sides["parent"]), "change_sha": git_sha(sides["change"]),
            "python": platform.python_version()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {**head, "workloads": {}}
    if {k: doc.get(k) for k in head} != head:
        print(f"error: {args.out} was recorded for {[doc.get(k) for k in head]}, "
              f"not {list(head.values())}", file=sys.stderr)
        return 2
    better = directions(sides["change"])

    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        order = []
        for i, seed in enumerate(args.seeds):
            pair = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(f"{pair[0]} first")
            for side in pair:
                result = run_once(sides[side], workload, seed, args.seconds, args.trace)
                runs[side].append(result)
                ops = result["metrics"].get("ops_per_s", {}).get("value")
                print(f"{workload} seed {seed} {side}: correct {result['correct']} "
                      f"ops_per_s {ops}", file=sys.stderr, flush=True)
        key = workload + ("+trace" if args.trace else "")
        doc["workloads"][key] = {
            "workload": workload,
            "trace": bool(args.trace),
            "seconds": args.seconds,
            "seeds": args.seeds,
            "order": order,
            "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
            "metrics": summarize(runs, better),
        }
        if all("reference_ms" in r for rs in runs.values() for r in rs):
            doc["workloads"][key]["reference_ms"] = {
                side: spread([r["reference_ms"] for r in rs]) for side, rs in runs.items()}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
