"""One pass of one workload, in a fresh interpreter started by run.py.

The worker imports exactcomb, builds its first input and prints "ready";
run.py times set-up as the span from starting this interpreter to that
line.  It times the reference kernel of speed.py a few times, which
gives the machine's speed at set-up; then it runs --ops operations back
to back (one closed-loop client), with --check 1 checks every answer after
its timing ends, and between operations times bursts of the reference
kernel (see speed.py).  It prints one JSON line with the raw measurements,
and for each operation the machine's speed around it.  With --ops 0 it
stops after the first reference tries: run.py uses that to time extra
set-ups.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from time import perf_counter

import exactcomb  # noqa: F401  (the import is part of the timed set-up)

import speed
from tracing import Recorder, Tracer
from workloads import MAKERS


def peak_rss_kb() -> int:
    """Peak resident memory of this process alone.  On Linux a process
    started by vfork inherits its parent's peak in ru_maxrss, so run.py's
    own memory could show there; VmHWM counts only this process's pages."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# reference tries right after "ready": the machine's speed at set-up
SETUP_REFERENCE_TRIES = 30


def _noop(*args):
    return None


def empty_op_s(samples: int = 2001) -> float:
    """Median time of an untraced direct op that does nothing: the
    harness's own share of every direct op's latency."""
    times = []
    fn, args = _noop, (1, 2)
    for _ in range(samples):
        t0 = perf_counter()
        try:
            answer, error = fn(*args), None
        except Exception as exc:
            answer, error = None, exc
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def _cache_hits(fn) -> list[int] | None:
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return [ci.hits, ci.misses]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True, help="operations to run")
    ap.add_argument("--wall-limit", type=float, required=True,
                    help="stop early after this many seconds of wall time")
    ap.add_argument("--tmp", required=True, help="directory for generated input files")
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="check answers against the oracles (0: time only)")
    ap.add_argument("--spans", default="", help="trace: write spans here as JSON lines")
    args = ap.parse_args()

    stats: dict = {}
    ops = MAKERS[args.workload](args.seed, args.tmp, stats)
    op = next(ops)
    ready_rss_kb = peak_rss_kb()
    print("ready", flush=True)
    bursts = speed.Bursts()
    setup_ref_s = statistics.median(bursts.take(SETUP_REFERENCE_TRIES))
    if args.ops == 0:
        ops.close()
        print(json.dumps({"setup_ref_s": setup_ref_s}))
        return 0

    rec = Tracer() if args.spans else Recorder()
    started = perf_counter()
    kinds: list[str] = []
    latencies: list[float] = []
    failures: list[str] = []
    busy = 0.0
    starts: list[float] = []
    while True:
        if op.direct is not None and not rec.tracing:
            # a single library call: time it alone
            fn, fargs = op.direct
            t0 = perf_counter()
            try:
                answer, error = fn(*fargs), None
            except Exception as exc:  # a failed operation is counted, never fatal
                answer, error = None, exc
            dt = perf_counter() - t0
        else:
            t0 = perf_counter()
            rec.begin_op(op.kind)
            try:
                answer, error = op.run(rec), None
            except Exception as exc:
                answer, error = None, exc
            rec.end_op()
            dt = perf_counter() - t0
        busy += dt
        starts.append(t0)
        kinds.append(op.kind)
        latencies.append(dt)
        if error is not None:
            ok = False
        elif args.check:
            try:
                ok = op.check(answer)
            except Exception:
                ok = False
                traceback.print_exc()
        else:
            ok = True
        if not ok:
            failures.append(f"{op.label}: {error!r}" if error else op.label)
            print(f"FAILED {failures[-1]}", file=sys.stderr)
        if len(kinds) >= args.ops or perf_counter() - started > args.wall_limit:
            break
        if perf_counter() - bursts.ends[-1] >= speed.EVERY_S:
            bursts.take()
        op = next(ops)
    ops.close()
    bursts.take()

    if len(kinds) < args.ops:
        print(f"TRUNCATED after {len(kinds)} of {args.ops} operations: wall limit "
              f"{args.wall_limit:g} s", file=sys.stderr)

    result = {
        "planned": args.ops,
        "kinds": kinds,
        "latencies": latencies,
        "failures": failures,
        "busy_s": busy,
        "rss_kb": peak_rss_kb(),
        "ready_rss_kb": ready_rss_kb,
        "children_rss_kb": stats.get("children_rss_kb", 0),
        "empty_op_s": empty_op_s(),
        "setup_ref_s": setup_ref_s,
        "ref_s": statistics.median(t for burst in bursts.tries for t in burst),
        "local_ref_s": [bursts.around(t0, t0 + dt) for t0, dt in zip(starts, latencies)],
    }
    if rec.tracing:
        from exactcomb import counting

        rec.write(args.spans)
        result["layers"] = rec.layer_totals()
        result["counters"] = dict(rec.counters)
        result["cache"] = {
            "binomial": _cache_hits(counting.binomial),
            "multiset_coeff": _cache_hits(counting.multiset_coeff),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
