"""Merge semantics of metrics snapshots.

``repro.obs.metrics.merge_registry_snapshot`` is the one fold: into the
live registry (a ``--workers`` child's snapshot, ``repro
merge-shards``) or, through ``repro.verifier.shards.
merge_metrics_snapshots``, into a fresh one (the N-way merge of shard
fragments).  Counters and phases add, zero-valued counters included;
gauges take the max; histogram buckets add position-wise when
boundaries agree.  Only ``repro.metrics/2`` snapshots merge.  A
hypothesis property closes the loop: splitting one observation stream
across shards and merging must reproduce the unsharded histogram
exactly, bucket by bucket.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import REGISTRY
from repro.obs.metrics import Histogram, SCHEMA, merge_registry_snapshot
from repro.verifier.shards import merge_metrics_snapshots

BOUNDS = (0.001, 0.01, 0.1, 1.0)


@pytest.fixture(autouse=True)
def _clean_registry():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _snap(schema=SCHEMA, counters=None, gauges=None, histograms=None,
          phases=None):
    return {
        "schema": schema,
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
        "phases": phases or {},
    }


def _hist_snap(values, bounds=BOUNDS):
    h = Histogram("h", bounds)
    for v in values:
        h.observe(v)
    return h.snapshot()


class TestMergeRegistrySnapshot:
    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            merge_registry_snapshot(_snap(schema="repro.metrics/99"))

    def test_rejects_metrics_v1(self):
        with pytest.raises(ValueError):
            merge_registry_snapshot(_snap(schema="repro.metrics/1",
                                          counters={"c": 1}))
        assert REGISTRY.snapshot()["counters"] == {}

    def test_zero_counters_are_kept(self):
        merge_registry_snapshot(_snap(counters={"c": 0, "d": 2}))
        assert REGISTRY.snapshot()["counters"] == {"c": 0, "d": 2}

    def test_histogram_buckets_add_positionwise(self):
        merge_registry_snapshot(_snap(histograms={
            "h": _hist_snap([0.0005, 0.05, 0.05])}))
        merge_registry_snapshot(_snap(histograms={
            "h": _hist_snap([0.05, 5.0])}))
        merged = REGISTRY.snapshot()["histograms"]["h"]
        # buckets: <=0.001, <=0.01, <=0.1, <=1.0, overflow
        assert merged["counts"] == [1, 0, 3, 0, 1]
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(0.0005 + 3 * 0.05 + 5.0)

    def test_mismatched_boundaries_skipped(self):
        merge_registry_snapshot(_snap(histograms={
            "h": _hist_snap([0.05])}))
        merge_registry_snapshot(_snap(histograms={
            "h": _hist_snap([0.05], bounds=(0.5, 1.0))}))
        merged = REGISTRY.snapshot()["histograms"]["h"]
        assert merged["boundaries"] == list(BOUNDS)
        assert merged["count"] == 1  # the incompatible snapshot dropped

    def test_gauges_take_max_counters_and_phases_add(self):
        merge_registry_snapshot(_snap(
            counters={"c": 2}, gauges={"g": 5},
            phases={"search": {"seconds": 1.0, "count": 2}}))
        merge_registry_snapshot(_snap(
            counters={"c": 3}, gauges={"g": 4},
            phases={"search": {"seconds": 0.5, "count": 1}}))
        snap = REGISTRY.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 5
        assert snap["phases"]["search"] == {"seconds": 1.5, "count": 3}


class TestMergeMetricsSnapshots:
    def test_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            merge_metrics_snapshots([_snap(schema="other/1")])

    def test_merged_doc_carries_current_schema(self):
        merged = merge_metrics_snapshots([
            _snap(counters={"c": 1}), _snap(counters={"c": 1, "z": 0}),
        ])
        assert merged["schema"] == SCHEMA
        assert merged["counters"] == {"c": 2, "z": 0}

    def test_rejects_metrics_v1(self):
        with pytest.raises(ValueError):
            merge_metrics_snapshots([
                _snap(counters={"c": 1}),
                _snap(schema="repro.metrics/1", counters={"c": 1}),
            ])

    def test_leaves_the_process_registry_alone(self):
        merge_metrics_snapshots([_snap(counters={"c": 1})])
        assert REGISTRY.snapshot()["counters"] == {}

    def test_histograms_add_and_keys_sort(self):
        merged = merge_metrics_snapshots([
            _snap(histograms={"z": _hist_snap([0.05]),
                              "a": _hist_snap([0.5])}),
            _snap(histograms={"z": _hist_snap([0.05, 0.05])}),
        ])
        assert list(merged["histograms"]) == ["a", "z"]
        assert merged["histograms"]["z"]["counts"] == [0, 0, 3, 0, 0]
        assert merged["histograms"]["z"]["count"] == 3

    def test_mismatched_boundaries_keep_first(self):
        merged = merge_metrics_snapshots([
            _snap(histograms={"h": _hist_snap([0.05])}),
            _snap(histograms={"h": _hist_snap([9.0], bounds=(1.0, 2.0))}),
        ])
        assert merged["histograms"]["h"]["boundaries"] == list(BOUNDS)
        assert merged["histograms"]["h"]["count"] == 1


values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    max_size=30,
)


class TestShardingRoundTrip:
    @given(values=values_strategy, n_shards=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_sharded_merge_equals_unsharded(self, values, n_shards):
        """Observations split across shards merge back losslessly."""
        whole = _hist_snap(values)
        shards = [
            _snap(histograms={"h": _hist_snap(values[i::n_shards])},
                  counters={"c": len(values[i::n_shards])})
            for i in range(n_shards)
        ]
        merged = merge_metrics_snapshots(shards)
        assert merged["histograms"]["h"]["counts"] == whole["counts"]
        assert merged["histograms"]["h"]["count"] == whole["count"]
        assert (merged["histograms"]["h"]["sum"]
                == pytest.approx(whole["sum"]))
        assert merged["counters"]["c"] == len(values)
