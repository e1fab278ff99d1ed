"""Observability: metrics, structured tracing, and phase profiling.

A zero-dependency measurement substrate for the verifier pipeline:

* :mod:`repro.obs.metrics` -- a process-local registry of counters,
  gauges, and fixed-bucket histograms, importable from anywhere in
  ``repro`` without circular-import risk (this package imports nothing
  from the rest of the library);
* :mod:`repro.obs.trace` -- a structured span/instant event stream
  written as JSONL, thread- and fork-safe, and a strict no-op while
  disabled (one module-global boolean check);
* :mod:`repro.obs.phases` -- exclusive ("self-time") phase timers wired
  through the pipeline: when phases nest, time spent in a child is
  *not* double-counted in the parent, so per-phase seconds sum to the
  total instrumented wall time;
* :mod:`repro.obs.ledger` -- the distributed run ledger: per-run ids
  stamped into every trace event, shared by forked children and
  remote shards, and a stitcher that reassembles many JSONL streams
  into one causally-ordered trace;
* :mod:`repro.obs.live` -- the live progress plane: heartbeat records
  under a well-known run directory, read by ``repro top``;
* :mod:`repro.obs.export` -- Chrome trace-event (Perfetto) and
  Prometheus text exposition converters;
* :mod:`repro.obs.bench` -- the bench regression sentinel gating
  ``benchmarks/metrics/BENCH_*.json`` trajectories.

The registry and trace sink are per process.  The forked children of
``workers > 1`` start from a clean slate (:func:`reset_for_worker`) and
ship their registry snapshot back inside a shard fragment; the parent
folds it in (see :func:`repro.verifier.run_local_shards`).
"""

from .bench import (
    BenchCheckReport, Regression, check_directory, check_entries,
    load_trajectories,
)
from .export import (
    chrome_trace_document, chrome_trace_events, convert_trace_files,
    extract_registry_snapshot, render_prometheus,
)
from .ledger import (
    RunContext, Span, StitchedTrace, begin_run, current_run,
    current_run_id, end_run, new_run_id, set_shard, stitch,
)
from .live import (
    NULL_PROGRESS, NullProgress, ProgressPlane, campaign_progress,
    heartbeats_enabled, latest_run, list_runs, read_progress,
    render_progress, run_dir, runs_root, sweep_progress,
)
from .metrics import (
    COMPAT_SCHEMAS, DEFAULT_TIME_BUCKETS, Counter, Gauge, Histogram,
    MetricsRegistry,
    REGISTRY, counter, counters_snapshot, diff_numeric, gauge, histogram,
    merge_counters, merge_numeric, merge_registry_snapshot,
)
from .phases import (
    LINT_PHASE_PREFIX, PHASE_EXPAND, PHASE_FO_EVAL, PHASE_IB_CHECK,
    PHASE_LINT, PHASE_RULE_FIRE, PHASE_SEARCH, PHASE_SWEEP,
    PHASE_TRANSLATE, PHASE_VALUATIONS, lint_phase, phase, phase_counts,
    phase_seconds, phase_snapshot,
)
from .trace import (
    configure_tracing, instant, set_stamp, stamp, trace_path,
    tracing_enabled,
)


def reset_for_worker() -> None:
    """Start a fresh per-process observability slate (forked child).

    Forked children inherit the parent's registry contents, its open
    phase timers and its trace sink; the registry and the phase stack
    are cleared so the child's numbers are its own, while the trace
    configuration is kept (the sink reopens the JSONL file on first use
    in the new pid, so child spans land in the same file as the
    parent's).
    """
    REGISTRY.reset()
    from . import phases as _phases, trace as _trace
    _phases._local.stack = []
    _trace.reopen_in_child()


__all__ = [
    "BenchCheckReport", "COMPAT_SCHEMAS", "Counter",
    "DEFAULT_TIME_BUCKETS", "Gauge", "Histogram",
    "LINT_PHASE_PREFIX", "MetricsRegistry", "NULL_PROGRESS",
    "NullProgress", "PHASE_EXPAND",
    "PHASE_FO_EVAL", "PHASE_IB_CHECK", "PHASE_LINT", "PHASE_RULE_FIRE",
    "PHASE_SEARCH", "PHASE_SWEEP", "PHASE_TRANSLATE",
    "PHASE_VALUATIONS", "ProgressPlane", "REGISTRY", "Regression",
    "RunContext", "Span", "StitchedTrace", "begin_run",
    "campaign_progress", "check_directory", "check_entries",
    "chrome_trace_document", "chrome_trace_events",
    "configure_tracing", "convert_trace_files", "counter",
    "counters_snapshot", "current_run", "current_run_id",
    "diff_numeric", "end_run", "extract_registry_snapshot", "gauge",
    "heartbeats_enabled", "histogram", "instant",
    "latest_run", "lint_phase", "list_runs", "load_trajectories",
    "merge_counters",
    "merge_numeric", "merge_registry_snapshot", "new_run_id", "phase",
    "phase_counts", "phase_seconds",
    "phase_snapshot", "read_progress", "render_progress",
    "render_prometheus", "reset_for_worker", "run_dir", "runs_root",
    "set_shard", "set_stamp", "stamp", "stitch", "sweep_progress",
    "trace_path", "tracing_enabled",
]
