"""Runs the cli-oneshot commands on behalf of a worker.

It reads one JSON request per line on stdin, {"argv": [...], "timeout": s},
runs the command, and answers with one JSON line {"code", "stdout",
"maxrss_kb"}, where maxrss_kb is the peak memory of the largest command so
far.  It exits when stdin closes.  It imports nothing heavy and holds no
inputs, so its own memory stays far below any command's.  That matters
because Linux hands a child started by vfork the peak memory of its parent:
a command started by the worker itself would report the worker's peak
instead of its own.
"""

import json
import resource
import subprocess
import sys

for line in sys.stdin:
    req = json.loads(line)
    try:
        proc = subprocess.run(req["argv"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=req["timeout"])
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, ""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"code": code, "stdout": out, "maxrss_kb": peak}), flush=True)
