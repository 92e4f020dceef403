"""Start benchmark commands on request and report each one's resource use.

Reads one JSON request per line on stdin,
    {"argv": [...], "cwd": "...", "env": {...}, "stderr": "path", "timeout": s},
runs it to its end and writes one JSON line per request to stdout,
    {"code": exit code, "wall": s, "cpu": user + system s, "rss_mb": MiB}.

It is a separate small process because Linux carries the spawning process's
resident-set high-water mark into the child's ru_maxrss across exec; spawned
from here, a child's peak RSS is its own, not that of bench/run.py.
"""
import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    start = time.perf_counter()
    with open(request["stderr"], "wb") as err:
        proc = subprocess.Popen(request["argv"], cwd=request["cwd"], env=request["env"],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
    timer = threading.Timer(request["timeout"], proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
