"""The verifier's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/``
there.  Each workload runs in fresh worker processes (``worker.py``),
one after another, with every ``REPRO_*`` variable unset and
``workers=1`` pinned.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  Four workers only set up;
a fifth sets up and runs units until the run ends.  ``setup_s`` is the
median of the five set-up times, ``verdict_s_p50`` the median unit time
of the fifth; both are at the reference speed of the speed probe
(``speed.py``), and the ``#`` summary line also gives them in wall time.

``--trace 1`` reports the per-layer metrics.  It first times three
``python -c "import repro.cli"`` processes (``import_s``), then gives
half of the remaining time to an untraced worker and half to a traced
one; ``trace_overhead_share`` compares their units pairwise, as both run
the same inputs in the same order.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Worker processes per end-to-end run: the number of set-up samples.
SETUP_SAMPLES = 5
IMPORT_PROBES = 3
#: ``verdict_s_p90`` needs ten samples beyond it.
P90_MIN_SAMPLES = 100
#: Every process of a run is killed this many seconds after the run began.
HARD_LIMIT_S = 170.0


def _environment(scratch: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # whatever the program puts in a temporary directory stays in the checkout
    env["TMPDIR"] = str(scratch)
    return env


def _wait(proc: subprocess.Popen, began: float) -> int:
    """Wait for *proc*, started in a session of its own; past the hard
    limit, kill it with every process it started."""
    try:
        return proc.wait(timeout=max(1.0, began + HARD_LIMIT_S
                                     - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def _worker(args, scratch: Path, env: dict, began: float, index: int,
            run_end: float, *, setup_only: bool = False,
            traced: bool = False) -> dict:
    out = scratch / f"worker{index}.json"
    log = scratch / f"worker{index}.log"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out), "--run-end", repr(run_end)]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd.append("--traced")
    with open(log, "w") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        code = _wait(proc, began)
    if code != 0:
        raise RuntimeError(f"worker {index} exited with {code}:\n"
                           + log.read_text()[-4000:])
    return json.loads(out.read_text())


def _import_probe(env: dict, began: float) -> float:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import repro.cli"],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            start_new_session=True)
    if _wait(proc, began) != 0:
        raise RuntimeError("python -c 'import repro.cli' failed")
    return time.perf_counter() - start


def _whole_passes(samples: list[float], cycle: int) -> list[float]:
    """The samples of the whole passes over the inputs, so that every run
    times the same mix; all of them if there is no whole pass."""
    return samples[:len(samples) // cycle * cycle or None]


def _pass_median(samples: list[float], cycle: int) -> float:
    """Median over passes of the mean seconds per unit in each pass.

    With one input per pass (``cycle`` 1) this is the median unit time.
    The corpus documents differ in cost by a factor of 30, and the median
    document falls between two of them 34 and 44 ms long, so the median
    unit time jumped between those from run to run; a pass's mean does
    not.
    """
    return statistics.median(statistics.fmean(samples[i:i + cycle])
                             for i in range(0, len(samples), cycle))


def _p90(samples: list[float]) -> str:
    if len(samples) < P90_MIN_SAMPLES:
        return f"p90=none (n={len(samples)})"
    return (f"verdict_s_p90={statistics.quantiles(samples, n=10)[-1]:.6f} "
            f"(n={len(samples)})")


def _with_units(values: dict[str, float], trace: int) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must list
    exactly these metrics for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(units)}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


def run(args) -> dict:
    scratch = ROOT / ".perfbench" / args.workload
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = _environment(scratch)
    began = time.monotonic()
    run_end = began + args.seconds

    if args.trace:
        probes = [_import_probe(env, began) for _ in range(IMPORT_PROBES)]
        middle = (time.monotonic() + run_end) / 2
        # the traced worker repeats the untraced worker's inputs
        workers = [_worker(args, scratch, env, began, 0, middle),
                   _worker(args, scratch, env, began, 1, run_end,
                           traced=True)]
    else:
        workers = [_worker(args, scratch, env, began, index, run_end,
                           setup_only=True)
                   for index in range(SETUP_SAMPLES - 1)]
        workers.append(_worker(args, scratch, env, began,
                               SETUP_SAMPLES - 1, run_end))

    attempted = sum(len(w["samples"]) for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    for problem in problems[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)

    summary = (f"# perfbench workload={args.workload} seed={args.seed} "
               f"trace={args.trace} python={platform.python_version()} "
               f"cores_available={len(os.sched_getaffinity(0))} "
               f"units={attempted} failed={failed} "
               f"failed_share={failed / max(attempted, 1):.4f} "
               f"probe_median_s={workers[-1]['probe']['median_s']:.6f}")
    if args.trace:
        untraced, traced = workers
        if not untraced["samples"] or "layers" not in traced:
            raise RuntimeError("the traced run timed no unit on one side:\n"
                               + "\n".join(problems[:3]))
        values = dict(traced["layers"])
        values["import_s"] = statistics.median(probes)
        # unit i of both workers ran the same input
        values["trace_overhead_share"] = statistics.median(
            t / u for t, u in zip(traced["ref_samples"],
                                  untraced["ref_samples"])) - 1.0
        summary += f" root_span_coverage={traced['coverage']:.4f}"
    else:
        main_worker = workers[-1]
        cycle = WORKLOADS[args.workload].cycle
        samples = _whole_passes(main_worker["ref_samples"], cycle)
        values = {
            "setup_s": statistics.median(w["setup_ref_s"] for w in workers),
            "verdict_s_p50": _pass_median(samples, cycle),
            "peak_rss_mb": main_worker["peak_rss_mb"],
        }
        wall = _whole_passes(main_worker["samples"], cycle)
        summary += (
            f" {_p90(samples)} wall_verdict_s_p50="
            f"{_pass_median(wall, cycle):.6f} wall_setup_s="
            f"{statistics.median(w['setup_s'] for w in workers):.6f}")
    print(summary)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": _with_units(values, args.trace)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in ("src/repro/cli.py", "examples/specs/auction.dws")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the verifier, missing "
              f"{missing} under {ROOT}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
