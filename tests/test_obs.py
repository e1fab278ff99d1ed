"""Tests for the observability layer (repro.obs).

The golden-schema tests pin down the external format -- the
``repro.metrics/2`` registry snapshot -- so downstream tooling can rely
on it; they are marked ``obs`` and run in tier-1.
"""

import json
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_TIME_BUCKETS, Histogram, REGISTRY, counter, diff_numeric,
    gauge, histogram, merge_numeric, phase, phase_counts, phase_seconds,
    reset_for_worker,
)
from repro.obs import metrics as metrics_mod


@pytest.fixture(autouse=True)
def _clean_obs():
    """A hermetic registry around every test."""
    REGISTRY.reset()
    yield
    REGISTRY.reset()


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        c = counter("t.hits")
        c.inc()
        c.inc(4)
        assert counter("t.hits") is c
        assert c.value == 5

    def test_gauge_set_and_set_max(self):
        g = gauge("t.depth")
        g.set(3)
        g.set_max(2)
        assert g.value == 3
        g.set_max(7)
        assert g.value == 7

    def test_histogram_bucketing(self):
        h = Histogram("t.h", boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 3.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        # boundaries are inclusive upper bounds; 100.0 overflows
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.0)

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("t.bad", boundaries=(2.0, 1.0))

    def test_default_time_buckets_sorted(self):
        assert tuple(sorted(DEFAULT_TIME_BUCKETS)) == DEFAULT_TIME_BUCKETS

    def test_reset_clears_everything(self):
        counter("t.c").inc()
        gauge("t.g").set(1)
        histogram("t.h").observe(0.1)
        with phase("search"):
            pass
        REGISTRY.reset()
        snap = REGISTRY.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["phases"] == {}

    def test_merge_and_diff_numeric(self):
        into = {"a": 1, "b": 2.5}
        merge_numeric(into, {"a": 2, "c": 1})
        assert into == {"a": 3, "b": 2.5, "c": 1}
        delta = diff_numeric({"a": 3, "b": 2.5, "c": 1}, {"a": 1, "b": 2.5})
        assert delta == {"a": 2, "c": 1}

    def test_reset_for_worker_clears_registry(self):
        counter("t.c").inc()
        reset_for_worker()
        assert REGISTRY.snapshot()["counters"] == {}


@pytest.mark.obs
class TestMetricsSnapshotSchema:
    """Golden schema of the repro.metrics/2 registry snapshot."""

    def test_top_level_keys(self):
        snap = REGISTRY.snapshot()
        assert set(snap) == {
            "schema", "counters", "gauges", "histograms", "phases",
        }
        assert snap["schema"] == "repro.metrics/2"
        assert snap["schema"] == metrics_mod.SCHEMA

    def test_snapshot_is_json_able_and_sorted(self):
        counter("z.last").inc()
        counter("a.first").inc(2)
        histogram("h.times").observe(0.002)
        with phase("expand"):
            pass
        snap = REGISTRY.snapshot()
        # round-trips through JSON without a default= hook
        assert json.loads(json.dumps(snap)) == snap
        assert list(snap["counters"]) == ["a.first", "z.last"]
        hist = snap["histograms"]["h.times"]
        assert set(hist) == {"boundaries", "counts", "sum", "count"}
        assert len(hist["counts"]) == len(hist["boundaries"]) + 1
        assert set(snap["phases"]["expand"]) == {"seconds", "count"}


class TestPhaseTimers:
    def test_nested_phases_are_exclusive(self):
        """A child's time is not double-counted in its parent."""
        with phase("search"):
            time.sleep(0.02)
            with phase("expand"):
                time.sleep(0.04)
            time.sleep(0.02)
        seconds = phase_seconds()
        assert seconds["expand"] >= 0.04
        assert seconds["search"] >= 0.04
        # parent self-time excludes the child's 0.04s sleep
        assert seconds["search"] < 0.04 + 0.04
        total = sum(seconds.values())
        assert total == pytest.approx(0.08, abs=0.04)

    def test_phase_counts(self):
        for _ in range(3):
            with phase("rule-fire"):
                pass
        assert phase_counts()["rule-fire"] == 3

    def test_reentrant_same_phase(self):
        with phase("fo-eval"):
            with phase("fo-eval"):
                pass
        assert phase_counts()["fo-eval"] == 2
        assert phase_seconds()["fo-eval"] >= 0

    def test_phase_stack_is_thread_local(self):
        errors = []

        def work():
            try:
                with phase("search"):
                    time.sleep(0.01)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert phase_counts()["search"] == 4

    def test_exception_still_closes_phase(self):
        with pytest.raises(RuntimeError):
            with phase("search"):
                raise RuntimeError("boom")
        # a later phase works and the stack is balanced again
        with phase("expand"):
            pass
        assert phase_counts() == {"search": 1, "expand": 1}

