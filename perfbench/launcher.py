"""Start the benchmark's child processes and report their resource usage.

    python3 perfbench/launcher.py

Reads one JSON request a line on standard input:
``{"cmd": [...], "out": PATH, "err": PATH, "limit_s": SECONDS}``, runs the
command with its standard output and error written from offset 0 of the
two files, and answers one JSON line with the exit code, wall time, CPU
time and peak resident memory from ``os.wait4``, and the byte counts
written.  A child still running after ``limit_s`` is killed.  Exits at the
end of its input.

Children are started from this small process, not from ``run.py``,
because a child started with vfork (as ``subprocess`` and ``posix_spawn``
do) inherits its parent's peak resident memory in ``ru_maxrss``: the memory
``run.py`` uses while it checks outputs would show up as the program's.
The capture files are never truncated, since freeing megabytes of blocks
per operation costs tens of milliseconds.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time


def main() -> int:
    fds: dict[str, int] = {}

    def capture(path: str) -> int:
        if path not in fds:
            fds[path] = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        os.lseek(fds[path], 0, os.SEEK_SET)
        return fds[path]

    for line in sys.stdin:
        req = json.loads(line)
        out, err = capture(req["out"]), capture(req["err"])
        t0 = time.perf_counter()
        pid = os.posix_spawnp(req["cmd"][0], req["cmd"], os.environ,
                              file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
        timer = threading.Timer(req["limit_s"], os.kill, (pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        reply = {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "out_len": os.lseek(out, 0, os.SEEK_CUR),
            "err_len": os.lseek(err, 0, os.SEEK_CUR),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    for fd in fds.values():
        os.close(fd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
