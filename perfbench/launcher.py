"""Spawns benchmark child processes on request and reports their rusage.

A child's ru_maxrss also counts the memory of the process that spawned it,
so children are started from this small process instead of from the
benchmark, whose memory grows with the workload. It imports nothing
beyond os, sys and time.

The machine this benchmark was written on switches between a fast and a
slow state per CPU, about 1.6x apart, every few seconds. So this process
pins itself, and with it every child, to one CPU and times a fixed
calibration loop there after each child. The caller scales each child's
wall time by the calibration times around it.

Protocol, one line each way per child: read "stdout-path<TAB>stderr-path<TAB>argv...",
write "pid <pid>", then "done <exit code> <ru_maxrss KiB> <wall s>
<calibration s before> <calibration s after>". Stdin of the child is
/dev/null. Closing our stdin ends the loop.
"""

import os
import sys
import time

WRITE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _calibration_clauses():
    """600 fixed 3-literal clauses over 200 variables, from an LCG."""
    state = 12345
    occurrences = {}
    for _ in range(600):
        clause = []
        for _ in range(3):
            state = (state * 1103515245 + 12345) % 2147483648
            var = state % 200 + 1
            clause.append(var if state & 1024 else -var)
        for lit in clause:
            occurrences.setdefault(lit, []).append(tuple(clause))
    return occurrences


def calibrate(occurrences) -> float:
    """Time a fixed clause-scanning loop, work of the kind a checker does."""
    start = time.perf_counter()
    for rep in range(75):
        value = {}
        for var in range(1, 201):
            value[var] = (var * 7 + rep) % 3 == 0
            for clause in occurrences.get(-var if value[var] else var, ()):
                for lit in clause:
                    current = value.get(abs(lit))
                    if current is not None and current == (lit > 0):
                        break
    return time.perf_counter() - start


def main():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    occurrences = _calibration_clauses()
    before = calibrate(occurrences)
    for line in sys.stdin:
        out_path, err_path, *argv = line.rstrip("\n").split("\t")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, WRITE, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, WRITE, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        sys.stdout.write("pid %d\n" % pid)
        sys.stdout.flush()
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        after = calibrate(occurrences)
        sys.stdout.write(
            "done %d %d %r %r %r\n"
            % (os.waitstatus_to_exitcode(status), usage.ru_maxrss, wall, before, after)
        )
        sys.stdout.flush()
        before = after


main()
