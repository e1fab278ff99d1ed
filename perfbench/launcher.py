"""Starts commands for a parent process with a large heap.

    python launcher.py

A child's peak RSS (``ru_maxrss``) counts its parent's resident memory at
the moment the child starts.  The ``cold_cli`` worker holds the speed
probe's table (``speed.py``), so it starts its units' children through
this small process, which it starts before building the table.

Reads one JSON request per line on standard input, ``{"cmd": [...],
"cwd": DIR}``, runs the command to completion and answers with one JSON
line: ``returncode``, ``stdout``, ``stderr``, and ``peak_rss_mb``, the
largest peak RSS of the commands run so far.  Exits at end of input.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        proc = subprocess.run(request["cmd"], cwd=request["cwd"],
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=120)
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps({
            "returncode": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "peak_rss_mb": peak / 1024.0}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
