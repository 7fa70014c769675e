"""Starts fresh processes on request; reports wall time and peak memory of each.

Reads one JSON request per stdin line, {"cmd": [...], "out": path, "err": path,
"timeout": seconds}, and answers each with one JSON line {"seconds",
"returncode", "maxrss_kb"}.  A child still running at its timeout is killed.

A child's ru_maxrss also counts the memory of the process that spawned it
(the child starts as a copy of it until exec), so cold jobs are started from
this small process rather than from the benchmark, which holds inputs and a
warm restime.
"""

import json
import os
import subprocess
import sys
import threading
import time

for line in sys.stdin:
    req = json.loads(line)
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        # set before cancelling, so a timer firing now finds the child finished
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    reply = {"seconds": seconds, "returncode": proc.returncode, "maxrss_kb": usage.ru_maxrss}
    print(json.dumps(reply), flush=True)
