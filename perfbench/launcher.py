"""Spawn CLI children from a small process and report each one's own rusage.

Linux carries the parent's resident set into a forked child's ``ru_maxrss``
(the child starts as a copy of the parent's memory), so a child forked from
the harness, which holds numpy, scipy and two rankreg copies, would report at
least the harness's size.  This process imports only the standard library;
the harness sends it one JSON request per line on stdin and reads one JSON
reply per line on stdout.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies):
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"],
                                    cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"code": proc.returncode, "seconds": elapsed,
                                  "maxrss_kb": usage.ru_maxrss}) + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
