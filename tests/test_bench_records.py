"""Every committed BENCH_*.json is a complete record of parent/change pairs.

The files are written by tools/bench_pairs.py; this reads them and runs no
benchmark.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDE_KEYS = {"median", "q1", "q3", "values"}


def test_bench_records_parse_and_are_complete():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json committed"
    for path in records:
        doc = json.loads(path.read_text())
        assert {"parent_sha", "change_sha", "python", "workloads"} <= doc.keys(), path
        assert doc["workloads"], path
        for key, entry in doc["workloads"].items():
            assert {"seeds", "order", "correct", "metrics"} <= entry.keys(), (path, key)
            assert entry["metrics"], (path, key)
            for name, metric in entry["metrics"].items():
                where = (path.name, key, name)
                for side in ("parent", "change"):
                    assert SIDE_KEYS <= metric[side].keys(), where
                    assert len(metric[side]["values"]) == len(entry["seeds"]), where
                    assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"], where
                assert {"change", "parent", "ties"} == metric["wins"].keys(), where
                assert sum(metric["wins"].values()) == len(entry["seeds"]), where


def test_bench_records_keep_machine_speed():
    # from BENCH_9.json on, every untraced entry keeps the reference-kernel
    # time of each run on both sides
    records = [path for path in ROOT.glob("BENCH_*.json")
               if int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1)) >= 9]
    for path in records:
        for key, entry in json.loads(path.read_text())["workloads"].items():
            if entry.get("trace"):
                continue
            speed = entry.get("reference_ms")
            assert speed, (path.name, key)
            for side in ("parent", "change"):
                assert SIDE_KEYS <= speed[side].keys(), (path.name, key, side)
                assert len(speed[side]["values"]) == len(entry["seeds"]), (path.name, key)
                assert all(v > 0 for v in speed[side]["values"]), (path.name, key)
