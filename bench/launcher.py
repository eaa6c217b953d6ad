"""Starts the benchmark's child processes and reports what each one cost.

    python3 bench/launcher.py < requests > replies

Each request is one JSON line: ``argv``, ``cwd``, ``cpu`` (or null) and the
files that take the child's ``stdout`` and ``stderr``. The launcher runs the
child pinned to ``cpu``, waits for it, and answers with one JSON line: wall
seconds from spawn to exit, the child's peak resident set in MB, and its exit
code. It stops at the end of its input.

The kernel's peak resident set of a child (``ru_maxrss``) also counts the
memory of the process it was started from. The benchmark grows to hundreds
of MB while it builds and checks large problems, so it starts its children
from this small process instead, which holds no output in memory.
"""
import json
import os
import subprocess
import sys
import time


def main() -> None:
    cpus = os.sched_getaffinity(0)
    for line in sys.stdin:
        request = json.loads(line)
        cpu = request["cpu"]
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            try:
                start = time.perf_counter()
                proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                os.sched_setaffinity(0, cpus)
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
