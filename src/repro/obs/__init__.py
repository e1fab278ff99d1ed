"""Observability: the metrics registry and the phase timers.

A zero-dependency measurement substrate for the verifier pipeline:

* :mod:`repro.obs.metrics` -- a process-local registry of counters,
  gauges, and fixed-bucket histograms, importable from anywhere in
  ``repro`` without circular-import risk (this package imports nothing
  from the rest of the library);
* :mod:`repro.obs.phases` -- exclusive ("self-time") phase timers wired
  through the pipeline: when phases nest, time spent in a child is
  *not* double-counted in the parent, so per-phase seconds sum to the
  total instrumented wall time.

``repro profile``, ``--stats``, ``--metrics-json`` and the benchmarks
read these two.  :mod:`repro.obs.bench`, the regression sentinel over
``benchmarks/metrics/BENCH_*.json``, is imported only by ``repro bench
check``.

The registry is per process.  The forked children of ``workers > 1``
start from a clean slate (:func:`reset_for_worker`) and ship their
registry snapshot back inside a shard fragment; the parent folds it in
(see :func:`repro.verifier.run_local_shards`).
"""

from .metrics import (
    DEFAULT_TIME_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry,
    REGISTRY, counter, counters_snapshot, diff_numeric, gauge, histogram,
    merge_numeric, merge_registry_snapshot,
)
from .phases import (
    PHASE_EXPAND, PHASE_FO_EVAL, PHASE_IB_CHECK, PHASE_LINT,
    PHASE_RULE_FIRE, PHASE_SEARCH, PHASE_SWEEP, PHASE_TRANSLATE,
    PHASE_VALUATIONS, lint_phase, phase, phase_counts, phase_seconds,
)


def reset_for_worker() -> None:
    """Start a fresh per-process observability slate (forked child).

    Forked children inherit the parent's registry contents and its
    open phase timers; both are cleared so the child's numbers are its
    own.
    """
    REGISTRY.reset()
    from . import phases as _phases
    _phases._local.stack = []


__all__ = [
    "Counter", "DEFAULT_TIME_BUCKETS", "Gauge", "Histogram",
    "MetricsRegistry", "PHASE_EXPAND", "PHASE_FO_EVAL", "PHASE_IB_CHECK",
    "PHASE_LINT", "PHASE_RULE_FIRE", "PHASE_SEARCH", "PHASE_SWEEP",
    "PHASE_TRANSLATE", "PHASE_VALUATIONS", "REGISTRY", "counter",
    "counters_snapshot", "diff_numeric", "gauge", "histogram",
    "lint_phase", "merge_numeric", "merge_registry_snapshot", "phase",
    "phase_counts", "phase_seconds", "reset_for_worker",
]
