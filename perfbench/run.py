"""exactcomb benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a source checkout (it needs src/exactcomb):

    python3 perfbench/run.py --workload coeff-session --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics from a separate traced pass.  `--workload all` runs every
workload both ways.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, pin_to_one_cpu  # noqa: E402
from workloads import DECK_LEN, WORKLOADS  # noqa: E402

# A run repeats one fixed list of operations in REPETITIONS fresh
# processes; see end_to_end for how the tries are combined.  The list is
# whole decks (see workloads.py); its length
# is --seconds times the rate below, which was measured at the commit that
# introduced the benchmark (CPython 3.11, 2 cores) so that the timed work
# of a run adds up to about --seconds.  Parent and change thus run
# identical operations.
REPETITIONS = 5
# set-up is timed on every repetition and on this many extra starts before
# each one, which stop as soon as they are ready; see end_to_end
SETUP_PROBES = 2
DECKS_PER_SECOND = {"cli-oneshot": 0.3, "coeff-session": 400.0, "struct-ops": 0.65}
INTERPRETER_SAMPLES = 7
IMPORT_TIMER = ("import time; t = time.perf_counter(); import exactcomb; "
                "print(time.perf_counter() - t)")
# the whole run must end within 180 s, whatever a slow commit does
RUN_BUDGET_S = 150

COUNTING_FAMILIES = (
    "binomial", "multiset_coeff", "gentile_coeff", "stirling2", "cycle_count",
    "bell", "touchard", "derangement_fixed", "surjection_count", "gergonne",
    "alternating_convolution", "graph_count",
)
CLI_KINDS = ("coeff", "table", "enumerate", "verify", "poset")


class RunError(RuntimeError):
    pass


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of the sorted sample (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def merge(reps: list[dict]) -> dict:
    """Attempted and failed operations over worker results.  Operations
    that a worker never ran, because it hit its wall limit, count as both."""
    unrun = sum(r["planned"] - len(r["kinds"]) for r in reps)
    return {"attempted": sum(r["planned"] for r in reps),
            "failed": sum(len(r["failures"]) for r in reps) + unrun}


class Bench:
    def __init__(self, root: Path, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.tmp_root = root / ".perfbench_tmp"
        self.out_dir = root / ".perfbench_out"
        self.started = 0.0

    def worker(self, workload: str, tmp: Path, *extra: str, check: bool = False,
               share: int = 1, probe: bool = False) -> tuple[float, dict]:
        """Start a worker; return (seconds until it was ready, its result).
        The worker may use 1/share of what is left of the run's time budget.
        A probe stops once it is ready and has timed the reference kernel."""
        wall_limit = max(5.0, (RUN_BUDGET_S - (perf_counter() - self.started)) / share)
        decks = max(1, round(DECKS_PER_SECOND[workload] * self.seconds / REPETITIONS))
        ops = 0 if probe else decks * DECK_LEN[workload]
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--ops", str(ops), "--check", str(int(check)),
               "--wall-limit", str(wall_limit), "--tmp", str(tmp), *extra]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=self.root)
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - t0
            rest, _ = proc.communicate(timeout=wall_limit + 30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RunError(f"worker for {workload} failed with exit code {proc.returncode}")
        return setup_s, json.loads(rest.strip().splitlines()[-1])

    def interpreter_ms(self) -> tuple[float, float]:
        """Medians of the wall time of a bare `python -c pass`, and of the
        time `import exactcomb` takes inside a fresh interpreter."""
        bare, imports = [], []
        for _ in range(INTERPRETER_SAMPLES):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=self.root,
                           check=True, timeout=60)
            bare.append((perf_counter() - t0) * 1000)
            out = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=self.env,
                                 cwd=self.root, check=True, timeout=60,
                                 capture_output=True, text=True).stdout
            imports.append(float(out) * 1000)
        return statistics.median(bare), statistics.median(imports)

    def end_to_end(self, workload: str, tmp: Path) -> tuple[dict, dict]:
        setups, reps = [], []
        for i in range(REPETITIONS):
            for _ in range(SETUP_PROBES):
                setup_s, probe = self.worker(workload, tmp, probe=True)
                setups.append((setup_s, probe["setup_ref_s"]))
            # the repetitions compute the same answers, so only the first
            # checks them; the others run no oracle code, and give the memory
            setup_s, res = self.worker(workload, tmp, check=i == 0, share=REPETITIONS - i)
            setups.append((setup_s, res["setup_ref_s"]))
            reps.append(res)

        # every time is scaled to the reference speed (see speed.py): a
        # start by the speed measured right after it, an operation by the
        # speed around it.  All repetitions run the same operations, so each
        # operation's time is the median of its REPETITIONS tries.
        def op_ms(scaled: bool) -> list[float]:
            tries = [[t * REFERENCE_S / ref if scaled else t
                      for t, ref in zip(r["latencies"], r["local_ref_s"])] for r in reps]
            return [statistics.median(op) * 1000 for op in zip(*tries)]

        scaled_ms, raw_ms = op_ms(True), op_ms(False)
        unchecked = reps[1:]
        if workload == "cli-oneshot":
            rss_mb = statistics.median(r["children_rss_kb"] for r in unchecked) / 1024
        else:
            rss_mb = statistics.median(r["rss_kb"] for r in unchecked) / 1024
        metrics = {
            "setup_s": (statistics.median(s * REFERENCE_S / ref for s, ref in setups), "s"),
            "ops_per_s": (len(scaled_ms) * 1000 / sum(scaled_ms), "1/s"),
            "latency_p50_ms": (quantile(scaled_ms, 0.5), "ms"),
            "latency_p90_ms": (quantile(scaled_ms, 0.9), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        merged = merge(reps)
        extra = {"fail_ratio": (merged["failed"] / merged["attempted"], "ratio"),
                 "operations": (len(scaled_ms), "count"), "repetitions": (REPETITIONS, "count"),
                 "setups": (len(setups), "count")}
        if len(scaled_ms) >= 1000:
            extra["latency_p99_ms"] = (quantile(scaled_ms, 0.99), "ms")
        # the same figures unscaled, as this machine measured them
        extra["unscaled_setup_s"] = (statistics.median(s for s, _ in setups), "s")
        extra["unscaled_ops_per_s"] = (len(raw_ms) * 1000 / sum(raw_ms), "1/s")
        extra["unscaled_latency_p50_ms"] = (quantile(raw_ms, 0.5), "ms")
        extra["unscaled_latency_p90_ms"] = (quantile(raw_ms, 0.9), "ms")
        extra["reference_ms"] = (statistics.median(r["ref_s"] for r in reps) * 1000, "ms")
        extra["empty_op_ms"] = (statistics.median(r["empty_op_s"] for r in reps) * 1000, "ms")
        if workload != "cli-oneshot":
            extra["ready_rss_mb"] = (
                statistics.median(r["ready_rss_kb"] for r in unchecked) / 1024, "MB")
        return metrics, {"res": merged, "extra": extra}

    def per_layer(self, workload: str, tmp: Path) -> tuple[dict, dict]:
        interp, import_ms = self.interpreter_ms()
        # untraced, traced, untraced: the traced pass is compared with the
        # mean of the passes around it, each pass's time scaled by its
        # reference time (see speed.py)
        _, before = self.worker(workload, tmp, check=True, share=3)
        self.out_dir.mkdir(exist_ok=True)
        spans = self.out_dir / f"spans-{workload}-{self.seed}.jsonl"
        _, res = self.worker(workload, tmp, "--spans", str(spans), check=True, share=2)
        _, after = self.worker(workload, tmp, check=True)
        layers, counters = res["layers"], res["counters"]

        def calls(name):
            return layers.get(name, (0, 0.0))[0]

        def busy(name):
            return layers.get(name, (0, 0.0))[1]

        m: dict[str, tuple[float, str]] = {}
        for fam in COUNTING_FAMILIES:
            m[f"counting.{fam}.calls"] = (calls("counting." + fam), "count")
            m[f"counting.{fam}.busy_s"] = (busy("counting." + fam), "s")
        for fam, hm in res["cache"].items():
            # 0 when the function has no cache_info or saw no lookups
            ratio = hm[0] / (hm[0] + hm[1]) if hm and sum(hm) else 0.0
            m[f"counting.{fam}.cache_hit_ratio"] = (ratio, "ratio")
        for op in ("mul", "pow", "compose"):
            m[f"series.{op}.calls"] = (calls("series." + op), "count")
            m[f"series.{op}.busy_s"] = (busy("series." + op), "s")
        m["recursive_matrix.table.calls"] = (calls("recursive_matrix.table"), "count")
        m["recursive_matrix.table.busy_s"] = (busy("recursive_matrix.table"), "s")
        m["recursive_matrix.table.entries"] = (
            counters.get("recursive_matrix.table.entries", 0), "count")
        for op in ("build", "mobius", "invert", "delta_check", "sieve"):
            m[f"poset_mobius.{op}.calls"] = (calls("poset_mobius." + op), "count")
            m[f"poset_mobius.{op}.busy_s"] = (busy("poset_mobius." + op), "s")
        m["poset_mobius.mobius.pairs"] = (counters.get("poset_mobius.mobius.pairs", 0), "count")
        m["cli.interpreter_ms"] = (interp, "ms")
        m["cli.import_ms"] = (import_ms, "ms")
        for kind in CLI_KINDS:
            lat = [x for k, x in zip(res["kinds"], res["latencies"]) if k == "cli." + kind]
            m[f"cli.{kind}.p50_ms"] = (quantile(lat, 0.5) * 1000 if lat else 0.0, "ms")
        m["cli.stdout_bytes"] = (counters.get("cli.stdout_bytes", 0), "B")
        enum_s = busy("enumeration.enumerate")
        m["enumeration.lines_per_s"] = (
            counters.get("enumeration.lines", 0) / enum_s if enum_s else 0.0, "1/s")
        m["verify.checks"] = (counters.get("verify.checks", 0), "count")
        m["verify.busy_s"] = (busy("verify.run_suites"), "s")
        pre, traced, post = (sum(t / ref for t, ref in zip(r["latencies"], r["local_ref_s"]))
                             for r in (before, res, after))
        m["trace.overhead_ratio"] = (2 * traced / (pre + post), "ratio")
        merged = merge([before, res, after])
        extra = {"fail_ratio": (merged["failed"] / merged["attempted"], "ratio"),
                 "operations": (len(res["kinds"]), "count")}
        return m, {"res": merged, "extra": extra, "spans": spans}

    def run(self, workload: str, trace: bool) -> tuple[dict, dict]:
        self.started = perf_counter()
        self.tmp_root.mkdir(exist_ok=True)
        tmp = self.tmp_root / f"{workload}-{os.getpid()}"
        tmp.mkdir()
        try:
            if trace:
                return self.per_layer(workload, tmp)
            return self.end_to_end(workload, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            try:
                self.tmp_root.rmdir()
            except OSError:
                pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "exactcomb" / "__init__.py").is_file():
        print("error: run from the root of an exactcomb checkout (src/exactcomb not found)",
              file=sys.stderr)
        return 2

    pin_to_one_cpu()
    bench = Bench(root, args.seed, args.seconds)
    print(f"python {sys.version.split()[0]}  git {git_sha(root)}  nproc {os.cpu_count()}  "
          f"seed {args.seed}  seconds {args.seconds:g}")
    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]

    out: dict[str, dict] = {}
    attempted = failed = 0
    for workload, trace in plan:
        try:
            metrics, info = bench.run(workload, trace)
        except (RunError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        res, extra = info["res"], info["extra"]
        attempted += res["attempted"]
        failed += res["failed"]
        title = "per-layer (traced pass)" if trace else "end-to-end"
        print(f"== {workload}: {title}")
        for name, (value, unit) in {**metrics, **extra}.items():
            print(f"  {name:42s} {value:>16.6g} {unit}")
        if trace:
            print(f"  spans written to {info['spans'].relative_to(root)}")
        prefix = "" if len(plan) == 1 else f"{workload}/"
        for name, (value, unit) in metrics.items():
            out[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
