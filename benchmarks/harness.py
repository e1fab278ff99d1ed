"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` module reproduces one experiment row set from
DESIGN.md's per-experiment index (the paper has no numbered tables; the
experiments demonstrate its theorems and examples).  Benchmarks run under
``pytest benchmarks/ --benchmark-only``; each records wall time via the
``benchmark`` fixture and *asserts the expected verdicts*, so a benchmark
run doubles as an end-to-end correctness check.  The measured rows are
printed so EXPERIMENTS.md can be regenerated from the output.

Each recorded row also lands in a metrics *trajectory* file
(``BENCH_<experiment>.json`` under ``REPRO_BENCH_METRICS_DIR``, default
``benchmarks/metrics/``): a JSON list, appended to on every run, whose
entries carry the row plus the full ``VerifierStats`` snapshot
(per-phase seconds, rule-cache counters, per-worker breakdowns -- see
:mod:`repro.obs`).  Comparing entries across commits turns the
benchmark log into a regression trajectory for each phase, not just
the headline wall time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Row:
    """One reported experiment row."""

    experiment: str
    case: str
    verdict: str
    expected: str
    states: int
    seconds: float

    def render(self) -> str:
        ok = "ok" if self.verdict == self.expected else "MISMATCH"
        return (f"[{self.experiment}] {self.case:42s} "
                f"{self.verdict:9s} (expected {self.expected}; {ok}) "
                f"states={self.states:<7d} {self.seconds:.3f}s")


def report(row: Row) -> None:
    """Print a row (visible with pytest -s or in the captured log)."""
    print(row.render(), file=sys.stderr)


def repro_seed(default: int = 0) -> int:
    """The global reproducibility seed, from the ``REPRO_SEED`` env var.

    Benchmarks and the randomized synthetic families draw their seeds
    from here so a run is reproducible end to end: ``REPRO_SEED=7
    pytest benchmarks/`` replays the exact same compositions, sweeps,
    and fuzz cases.  Every metrics entry records the seed it ran under.
    """
    raw = os.environ.get("REPRO_SEED", "").strip()
    if raw:
        return int(raw)
    return default


def metrics_dir() -> Path:
    """Directory of the ``BENCH_*.json`` metrics trajectory files.

    Created on first access: the trajectory directory is part of the
    harness contract (ROADMAP/CI reference it), so a fresh checkout
    must not silently drop metrics because the directory is absent.
    """
    raw = os.environ.get("REPRO_BENCH_METRICS_DIR", "").strip()
    path = (Path(raw) if raw
            else Path(__file__).resolve().parent / "metrics")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError:  # pragma: no cover - read-only checkout
        pass
    return path


def snapshot_metrics(experiment: str, case: str, result,
                     extra: dict | None = None) -> None:
    """Append one metrics entry to ``BENCH_<experiment>.json``.

    The entry pairs the row identity with the result's full
    ``VerifierStats`` dict (phase seconds/counts, rule-cache counters,
    per-worker breakdowns).  The file is a JSON list ordered by append
    time -- a trajectory across benchmark runs.  Failures to write
    (read-only checkout, etc.) are ignored: metrics must never fail a
    benchmark.
    """
    from repro.obs.metrics import SCHEMA as METRICS_SCHEMA

    entry = {
        "schema": METRICS_SCHEMA,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "experiment": experiment,
        "case": case,
        "verdict": result.verdict,
        "repro_seed": repro_seed(),
        "stats": result.stats.to_dict(),
    }
    if extra:
        entry.update(extra)
    try:
        directory = metrics_dir()
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{experiment}.json"
        entries = []
        if path.exists():
            try:
                entries = json.loads(path.read_text())
            except (OSError, ValueError):
                entries = []
        if not isinstance(entries, list):
            entries = []
        entries.append(entry)
        path.write_text(json.dumps(entries, indent=2, default=str) + "\n")
    except OSError:  # pragma: no cover - filesystem-dependent
        pass


def record(experiment: str, case: str, result, expected_satisfied: bool
           ) -> Row:
    """Build + print a row from a VerificationResult and assert verdict."""
    expected = "SATISFIED" if expected_satisfied else "VIOLATED"
    row = Row(
        experiment=experiment,
        case=case,
        verdict=result.verdict,
        expected=expected,
        states=result.stats.system_states,
        seconds=result.stats.wall_seconds,
    )
    report(row)
    snapshot_metrics(experiment, case, result)
    assert result.verdict == expected, row.render()
    return row


def cores_available() -> int:
    """CPU cores this process may use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def bench_workers(default: int = 4) -> int:
    """Worker count for the parallel speedup rows."""
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if raw:
        return max(1, int(raw))
    return default


def record_speedup(experiment: str, case: str, seq_result, par_result,
                   workers: int) -> float:
    """Print a sequential-vs-parallel row and return the speedup factor.

    Asserts the two sweeps agree on verdict and aggregated node counts
    (the determinism contract of the parallel engine); wall-clock
    speedup is only reported -- on a single-core box the pool cannot
    beat the sequential sweep, so any pass/fail threshold must be
    applied by the caller after checking :func:`cores_available`.
    """
    assert par_result.verdict == seq_result.verdict, (
        f"[{experiment}] {case}: verdict diverged "
        f"seq={seq_result.verdict} par={par_result.verdict}"
    )
    assert (par_result.stats.product_nodes_visited
            == seq_result.stats.product_nodes_visited), (
        f"[{experiment}] {case}: node counts diverged"
    )
    seq_s = seq_result.stats.wall_seconds
    par_s = par_result.stats.wall_seconds
    speedup = seq_s / par_s if par_s > 0 else float("inf")
    snapshot_metrics(experiment, f"{case} [seq]", seq_result)
    snapshot_metrics(experiment, f"{case} [par x{workers}]", par_result,
                     extra={"workers": workers, "speedup": speedup})
    print(
        f"[{experiment}] {case:42s} {seq_result.verdict:9s} "
        f"seq={seq_s:.3f}s par={par_s:.3f}s x{workers} workers "
        f"speedup={speedup:.2f} (cores={cores_available()})",
        file=sys.stderr,
    )
    return speedup
