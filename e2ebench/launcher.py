"""Job launcher: a small process that starts and times each measured job.

Linux folds the peak RSS of the address space a child is spawned from into
the child's ``ru_maxrss``, so a job started straight from the benchmark
would report the benchmark's own peak (inputs, references, spans) whenever
that is larger.  Jobs are started from this process instead, which imports
next to nothing and stays small.

Protocol: one JSON request per line on stdin, ``[argv, stdout_path,
stderr_path, timeout_s]``; one JSON reply per line on stdout with the exit
code, wall and CPU seconds, peak RSS in KiB and the monotonic spawn time.
The launcher exits when stdin closes; on SIGTERM it kills and reaps the
running job first.
"""

import json
import os
import signal
import sys
import time


def run(argv, out_path, err_path, timeout_s):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    spawned = time.monotonic()
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)

    def stop(*_):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        sys.exit(1)

    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.signal(signal.SIGTERM, stop)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "spawned": spawned,
    }


def main() -> None:
    while True:
        line = sys.stdin.readline()
        if not line:
            return
        sys.stdout.write(json.dumps(run(*json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
