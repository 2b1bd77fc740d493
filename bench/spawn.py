"""Run one command; print its wall time and its own resource usage as JSON.

Usage: python3 bench/spawn.py TIMEOUT_S STDERR_PATH ARGV...

The benchmark starts every measured child through this small process.
Linux carries the peak RSS of the process a child was forked from into
the child's ``ru_maxrss``, so a child forked from the benchmark itself
would report at least the benchmark's own peak.  ``os.wait4`` gives the
usage of this one child; RUSAGE_CHILDREN would give the largest RSS of
every child reaped so far.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list) -> int:
    timeout, stderr_path, command = float(argv[0]), argv[1], argv[2:]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
