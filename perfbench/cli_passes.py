"""Run the csv_ingest CLI passes from a process that holds almost no memory.

    python perfbench/cli_passes.py SECONDS MIN_PASSES CMD...

On Linux a child's peak RSS, as ``wait4`` reports it, is at least the peak
of the process that spawned it, because the child shares that process's
memory until it calls exec.  ``run.py`` has built large inputs by the time
the CLI runs, so the passes are spawned from here, where only the standard
library is loaded.  CMD runs once as an untimed warm-up, then until SECONDS
have passed and at least MIN_PASSES times.  Prints one JSON line: the
warm-up and the passes, each with wall seconds, exit code, last stdout line
and peak RSS in MB.
"""

import json
import os
import subprocess
import sys
import time


def one_pass(cmd: list[str]) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", errors="replace").strip().splitlines()
    return {
        "seconds": time.perf_counter() - start,
        "exit": proc.returncode,
        "stdout": lines[-1] if lines else "",
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def main(argv: list[str]) -> None:
    seconds, min_passes, cmd = float(argv[1]), int(argv[2]), argv[3:]
    warm = one_pass(cmd)
    runs, start = [], time.perf_counter()
    while time.perf_counter() - start < seconds or len(runs) < min_passes:
        runs.append(one_pass(cmd))
    print(json.dumps({"warm": warm, "runs": runs}))


if __name__ == "__main__":
    main(sys.argv)
