"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` module reproduces one experiment row set from
DESIGN.md's per-experiment index (the paper has no numbered tables; the
experiments demonstrate its theorems and examples).  Benchmarks run under
``pytest benchmarks/ --benchmark-only``; each records wall time via the
``benchmark`` fixture and *asserts the expected verdicts*, so a benchmark
run doubles as an end-to-end correctness check.  The measured rows are
printed so EXPERIMENTS.md can be regenerated from the output.
Performance across commits is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass


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
    and fuzz cases.
    """
    raw = os.environ.get("REPRO_SEED", "").strip()
    if raw:
        return int(raw)
    return default


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
    print(
        f"[{experiment}] {case:42s} {seq_result.verdict:9s} "
        f"seq={seq_s:.3f}s par={par_s:.3f}s x{workers} workers "
        f"speedup={speedup:.2f} (cores={cores_available()})",
        file=sys.stderr,
    )
    return speedup
