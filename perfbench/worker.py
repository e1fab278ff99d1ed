"""One workload process: set up, then run timed units in a closed loop.

    python worker.py --root DIR --workload NAME --seed N --out FILE
                     --spawned T --run-end T [--setup-only] [--traced]

``T`` values are ``time.monotonic()`` readings.  On Linux that clock is
shared by every process, so the parent passes the instant it spawned this
process and the deadline of the run.  The process always runs its first
unit, and each further unit if the slowest unit so far would still end
before the deadline.  With ``--setup-only`` it sets up and runs no unit.
Units are numbered 0, 1, ...; the number decides the input of each (the
corpus document), so two processes of one run see the same inputs in the
same order.

The process pins itself, and so its children, to one CPU.  The speed
probe (``speed.py``) runs from the start of set-up to the last unit, so
every time is also reported at the reference speed.

Writes one JSON object to FILE; with ``--traced`` also the raw spans to
FILE with the suffix ``.spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import spans
import speed
from workloads import EXPECTED_SPANS, WORKLOADS, Launcher


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--run-end", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    return parser.parse_args()


def main() -> int:
    args = _arguments()
    # one CPU for this process and its children: the speed probe measures
    # the CPU the units run on, and a cold unit's child stays on it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    kind = WORKLOADS[args.workload]
    launcher = None if kind.in_process else Launcher()
    probe = speed.Probe()
    probe.start()
    tracer = spans.Tracer() if args.traced else None
    if tracer is not None and kind.in_process:
        # before the workload's own hooks, so those wrap the traced layers
        tracer.install()
    workload = kind(args.root, args.out.parent, args.seed, launcher)
    if tracer is not None and not kind.in_process:
        workload.traced = True
    child_dumps: list[dict] = []

    # the probe's own set-up is not the workload's
    setup_end = time.perf_counter()
    setup_s = time.monotonic() - args.spawned - probe.build_s
    setup_ref_s = probe.at_reference(probe.ready, setup_end, setup_s)
    units: list[tuple[float, float]] = []
    failed = 0
    problems: list[str] = []
    while not args.setup_only:
        slowest = max((end - start for start, end in units), default=0.0)
        if units and time.monotonic() + slowest > args.run_end:
            break
        index = len(units)
        inputs = workload.prepare(index)
        unit_problems: list[str] = []
        start = time.perf_counter()
        try:
            if tracer is not None and workload.in_process:
                with tracer.unit(index):
                    outcome = workload.run(inputs)
            else:
                outcome = workload.run(inputs)
        except Exception:
            unit_problems.append(traceback.format_exc())
        units.append((start, time.perf_counter()))
        if not unit_problems:
            try:
                unit_problems = workload.check(inputs, outcome)
            except Exception:
                unit_problems.append(traceback.format_exc())
            if tracer is not None and not workload.in_process:
                dump = json.loads(workload.spans.read_text())
                for record in dump["spans"]:
                    record[4] = index
                child_dumps.append(dump)
        if unit_problems:
            failed += 1
            problems.extend(unit_problems)
    probe.stop()

    samples = [end - start for start, end in units]
    if launcher is None:
        # the probe's table is resident in this process, not the program's
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 \
            - probe.table_mb
    else:
        launcher.close()
        peak = launcher.peak_rss_mb
    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "samples": samples,
        "ref_samples": [probe.at_reference(start, end, end - start)
                        for start, end in units],
        "failed": failed,
        "peak_rss_mb": peak,
        "probe": probe.summary(),
    }
    if tracer is not None and samples:
        dumps = [tracer.dump()] if workload.in_process else child_dumps
        args.out.with_suffix(".spans.json").write_text(json.dumps(dumps))
        try:
            result["layers"], fired, result["coverage"] = spans.summarize(
                dumps, samples, workload.closure_tolerance)
        except ValueError as err:
            problems.append(f"traced run does not close: {err}")
        else:
            missed = sorted(EXPECTED_SPANS[args.workload] - set(fired))
            if missed:
                problems.append(f"wrappers that never fired: {missed}")
    result["problems"] = problems
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
