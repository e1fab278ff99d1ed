"""A process-local metrics registry: counters, gauges, histograms.

The registry is deliberately tiny and dependency-free so every layer of
the pipeline (FO evaluation, rule firing, translation, search) can
record into it without import cycles or measurable overhead: a counter
increment is one attribute add, and nothing allocates on the hot path
after the first ``counter(name)`` lookup.

Snapshots are plain JSON-able dicts with a versioned ``schema`` tag, so
they can be shipped across process boundaries (shard fragments carry
them to ``repro merge-shards`` and from forked children to their
parent) and merged numerically.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping

#: Version tag stamped on every registry snapshot; merges accept only
#: this one.
SCHEMA = "repro.metrics/2"

#: Default histogram boundaries for durations in seconds (upper bounds;
#: one overflow bucket is implied past the last boundary).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-set value (e.g. a cache size or a high-water mark)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """Fixed-boundary histogram of observations.

    ``boundaries`` are inclusive upper bounds; observations above the
    last boundary land in the implicit overflow bucket, so
    ``len(counts) == len(boundaries) + 1``.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count")

    def __init__(self, name: str,
                 boundaries: tuple[float, ...] = DEFAULT_TIME_BUCKETS
                 ) -> None:
        if tuple(sorted(boundaries)) != tuple(boundaries):
            raise ValueError(f"histogram boundaries not sorted: {boundaries}")
        self.name = name
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(boundaries) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1

    def snapshot(self) -> dict:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Get-or-create store of named metrics plus the phase accumulators.

    ``phase_seconds``/``phase_counts`` are written by
    :mod:`repro.obs.phases`; they live here so one ``snapshot()`` /
    ``reset()`` covers everything a process measured.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self.phase_seconds: dict[str, float] = {}
        self.phase_counts: dict[str, int] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  boundaries: tuple[float, ...] = DEFAULT_TIME_BUCKETS
                  ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, boundaries)
        return h

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self.phase_seconds.clear()
        self.phase_counts.clear()

    def snapshot(self) -> dict:
        """A JSON-able snapshot of everything recorded in this registry."""
        return {
            "schema": SCHEMA,
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
            "phases": {
                name: {
                    "seconds": self.phase_seconds[name],
                    "count": self.phase_counts.get(name, 0),
                }
                for name in sorted(self.phase_seconds)
            },
        }


#: The process-global registry.  Forked children reset it on start
#: (:func:`repro.obs.reset_for_worker`) so their numbers are private.
REGISTRY = MetricsRegistry()


def counters_snapshot() -> dict[str, int]:
    """Current value of every counter in this process's registry.

    Snapshot before and after a unit of work and :func:`diff_numeric`
    the two for the unit's counter deltas.
    """
    return {name: c.value for name, c in REGISTRY._counters.items()}


def merge_registry_snapshot(snapshot: Mapping,
                            registry: MetricsRegistry = REGISTRY) -> None:
    """Fold a ``repro.metrics/2`` snapshot into *registry*.

    The one metrics merge: the parent of ``--workers N`` folds each
    child's snapshot into its own registry, ``repro merge-shards`` folds
    the merged fragments into its own, and
    :func:`repro.verifier.merge_metrics_snapshots` folds N snapshots into
    a fresh registry.  Counters and phases add, and every counter a
    snapshot lists is listed after the fold, zero-valued ones included.
    Gauges take the maximum (they are high-water marks or sizes
    of per-process structures, where "largest seen anywhere" is the
    honest merge).  Histograms add bucket-wise when boundaries agree;
    otherwise the first boundaries seen are kept and the snapshot's
    histogram is skipped (mismatched boundaries cannot be combined
    losslessly).
    """
    schema = snapshot.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"cannot merge metrics snapshot with schema {schema!r}; "
            f"expected {SCHEMA!r}"
        )
    for name, value in snapshot.get("counters", {}).items():
        registry.counter(name).inc(value)
    for name, value in snapshot.get("gauges", {}).items():
        registry.gauge(name).set_max(value)
    for name, snap in snapshot.get("histograms", {}).items():
        hist = registry.histogram(name, tuple(snap["boundaries"]))
        if hist.boundaries != tuple(snap["boundaries"]):
            continue
        for i, count in enumerate(snap["counts"]):
            hist.counts[i] += count
        hist.total += snap["sum"]
        hist.count += snap["count"]
    for name, entry in snapshot.get("phases", {}).items():
        merge_numeric(registry.phase_seconds, {name: entry["seconds"]})
        merge_numeric(registry.phase_counts, {name: entry["count"]})


def merge_numeric(into: dict, extra: Mapping) -> dict:
    """Sum *extra*'s numeric values into *into*, key by key (in place).

    Used to aggregate deltas (phase seconds, cache counters) from
    several units or processes.
    """
    for key, value in extra.items():
        into[key] = into.get(key, 0) + value
    return into


def diff_numeric(after: Mapping, before: Mapping) -> dict:
    """Per-key numeric difference ``after - before`` (non-zero keys only)."""
    out = {}
    for key, value in after.items():
        delta = value - before.get(key, 0)
        if delta:
            out[key] = delta
    return out


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str,
              boundaries: tuple[float, ...] = DEFAULT_TIME_BUCKETS
              ) -> Histogram:
    return REGISTRY.histogram(name, boundaries)
