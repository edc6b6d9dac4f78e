"""Run one command; report its wall time and rusage as the last stderr line.

Usage: python3 spawn.py TIMEOUT_S PROGRAM [ARG ...]

A process created by fork or vfork keeps in ``ru_maxrss``, across exec,
the peak of the address space it replaced.  Started straight from the
benchmark, every child would report at least the benchmark's own peak
(numpy, parsed CSVs).  This small process is the one the child
replaces, so the child's ``ru_maxrss`` is its own.  Stdout and stderr
pass through unchanged; the report line is JSON with ``rc``, ``wall_s``,
``cpu_s`` and ``maxrss_kb``.  The child is killed after TIMEOUT_S.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    timeout = int(sys.argv[1])
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:])
    signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(timeout)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    signal.alarm(0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    sys.stderr.write("\n" + json.dumps({
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
