"""Job launcher: runs each requested command as a child, one at a time, and
reports its output, exit code, wall time and peak RSS.

It runs as its own small process, started before the benchmark imports ccodes
or runs a check. Linux charges a child the high-water RSS of the process that
spawned it, so children of the benchmark process itself would report that
process's peak (it runs brute-force checks in-process); children of this
launcher report their own.

Protocol: one JSON request per stdin line, {"argv": [...], "env": {...},
"cwd": "..."}; one JSON reply per stdout line, {"out", "err" (latin-1 text),
"rc", "seconds", "rss_mb"}. The launcher exits when stdin closes.
"""

import json
import os
import selectors
import subprocess
import sys
import time

JOB_TIMEOUT_S = 60


def spawn(argv, env, cwd) -> dict:
    """Run argv to completion; wall time from start to reaping, peak RSS via wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                proc.kill()  # keep draining: the pipes close when it dies
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = (b"".join(chunks[f.fileno()]).decode("latin-1") for f in (proc.stdout, proc.stderr))
    proc.stdout.close()
    proc.stderr.close()
    return {"out": out, "err": err, "rc": proc.returncode, "seconds": seconds,
            "rss_mb": usage.ru_maxrss / 1024}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(spawn(req["argv"], req["env"], req["cwd"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
