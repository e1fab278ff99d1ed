"""Tests for the run ledger (repro.obs.ledger): run-id lifecycle,
cross-process propagation, and trace stitching.

The stitch tests build JSONL streams by hand -- different files,
different pids, deliberately skewed monotonic clocks -- and assert the
``stream-start`` anchors put everything back on one wall-clock axis
with the driver/worker hierarchy intact.
"""

import json

import pytest

from repro.obs import REGISTRY, configure_tracing
from repro.obs import ledger
from repro.obs import trace as trace_mod


@pytest.fixture(autouse=True)
def _clean_ledger(monkeypatch):
    monkeypatch.delenv(ledger.RUN_ID_ENV, raising=False)
    REGISTRY.reset()
    configure_tracing(None)
    ledger.end_run()
    yield
    configure_tracing(None)
    ledger.end_run()
    REGISTRY.reset()


class TestRunLifecycle:
    def test_no_run_by_default(self):
        assert ledger.current_run() is None
        assert ledger.current_run_id() is None

    def test_begin_mints_sortable_id(self):
        ctx = ledger.begin_run()
        assert ctx.run_id.startswith("r-")
        assert ledger.current_run_id() == ctx.run_id
        # fresh ids do not collide
        other = ledger.begin_run()
        assert other.run_id != ctx.run_id

    def test_begin_adopts_env_id(self, monkeypatch):
        monkeypatch.setenv(ledger.RUN_ID_ENV, "r-envtest-01")
        ctx = ledger.begin_run()
        assert ctx.run_id == "r-envtest-01"

    def test_explicit_id_beats_env(self, monkeypatch):
        monkeypatch.setenv(ledger.RUN_ID_ENV, "r-envtest-01")
        ctx = ledger.begin_run(run_id="r-explicit-02")
        assert ctx.run_id == "r-explicit-02"

    def test_end_run_clears_context_and_stamp(self):
        ledger.begin_run()
        ledger.end_run()
        assert ledger.current_run() is None
        assert trace_mod.stamp() == {}

    def test_metrics_snapshot_carries_run_id(self):
        snap = REGISTRY.snapshot()
        assert "run" not in snap
        ctx = ledger.begin_run()
        snap = REGISTRY.snapshot()
        assert snap["run"] == ctx.run_id

    def test_set_shard_restamps(self):
        ctx = ledger.begin_run(run_id="r-shardtest")
        assert ctx.shard is None
        ctx = ledger.set_shard((1, 4))
        assert ctx.shard == (1, 4)
        assert trace_mod.stamp() == {"run": "r-shardtest", "shard": "1/4"}

    def test_set_shard_without_run_is_noop(self):
        assert ledger.set_shard((0, 2)) is None


class TestStampPropagation:
    def test_events_carry_run_stamp(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ctx = ledger.begin_run(run_id="r-stamp-01")
        configure_tracing(str(path))
        trace_mod.instant("note")
        configure_tracing(None)
        events = [json.loads(line)
                  for line in path.read_text().splitlines() if line]
        assert all(ev["run"] == "r-stamp-01" for ev in events)
        assert ctx.stamp() == {"run": "r-stamp-01"}

    def test_worker_stamp_has_index(self):
        ctx = ledger.begin_run(run_id="r-w", role="worker", worker=3,
                               shard=(0, 2))
        assert ctx.stamp() == {"run": "r-w", "worker": 3, "shard": "0/2"}


def _write_stream(path, pid, wall0, events, run="r-stitch",
                  worker=None, append=False):
    """A hand-built repro.trace/2 stream: anchor + events.

    *events* are (ts, ph, name) with ts in the stream's private
    monotonic clock; the anchor maps ts=0.0 to epoch *wall0*.
    """
    lines = []
    anchor = {"ts": 0.0, "pid": pid, "tid": pid, "ph": "I",
              "name": "stream-start", "run": run,
              "args": {"schema": trace_mod.SCHEMA, "wall": wall0}}
    if worker is not None:
        anchor["worker"] = worker
    lines.append(anchor)
    for ts, ph, name in events:
        ev = {"ts": ts, "pid": pid, "tid": pid, "ph": ph, "name": name,
              "run": run}
        if worker is not None:
            ev["worker"] = worker
        lines.append(ev)
    mode = "a" if append else "w"
    with open(path, mode) as fh:
        for ev in lines:
            fh.write(json.dumps(ev) + "\n")


class TestStitch:
    def test_clock_alignment_across_files(self, tmp_path):
        # driver's monotonic clock starts at 1000, worker's at 5 --
        # only the wall anchors can order them correctly
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_stream(a, pid=10, wall0=100.0,
                      events=[(2.0, "B", "search"), (6.0, "E", "search")])
        _write_stream(b, pid=20, wall0=103.0, worker=0,
                      events=[(5.0, "B", "task"), (6.0, "E", "task")])
        stitched = ledger.stitch([a, b])
        walls = {(e["pid"], e["name"], e["ph"]): e["wall"]
                 for e in stitched.events}
        assert walls[(10, "search", "B")] == pytest.approx(102.0)
        assert walls[(20, "task", "B")] == pytest.approx(108.0)
        # causal order interleaves the two files on the wall axis
        order = [(e["pid"], e["name"], e["ph"]) for e in stitched.events
                 if e["name"] != "stream-start"]
        assert order == [(10, "search", "B"), (10, "search", "E"),
                         (20, "task", "B"), (20, "task", "E")]

    def test_processes_and_run_ids(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        _write_stream(a, pid=10, wall0=50.0,
                      events=[(1.0, "B", "search"), (2.0, "E", "search")])
        _write_stream(b, pid=20, wall0=50.5, worker=1,
                      events=[(1.0, "I", "note")])
        stitched = ledger.stitch([a, b])
        assert stitched.run_ids == ("r-stitch",)
        assert stitched.driver_pids() == [10]
        assert stitched.worker_pids() == [20]
        assert stitched.processes[20]["worker"] == 1

    def test_corrupt_lines_counted_not_fatal(self, tmp_path):
        a = tmp_path / "a.jsonl"
        _write_stream(a, pid=10, wall0=1.0,
                      events=[(1.0, "I", "ok")])
        with open(a, "a") as fh:
            fh.write('{"ts": 2.0, "pid": 10, "tid": 10, "ph": "I", "na')
            fh.write("\nnot json at all\n")
            fh.write('[1, 2, 3]\n')  # json, but not an event dict
        stitched = ledger.stitch([a])
        assert stitched.corrupt_lines == 3
        assert {e["name"] for e in stitched.events} == {
            "stream-start", "ok"}

    def test_forest_nests_and_force_closes(self, tmp_path):
        a = tmp_path / "a.jsonl"
        _write_stream(a, pid=10, wall0=0.0,
                      events=[(1.0, "B", "search"),
                              (2.0, "B", "expand"),
                              (3.0, "E", "expand"),
                              (4.0, "B", "expand")])  # never closed
        stitched = ledger.stitch([a])
        (root,) = stitched.roots
        assert root.name == "search"
        assert [c.name for c in root.children] == ["expand", "expand"]
        assert root.children[0].duration == pytest.approx(1.0)
        # killed mid-span: force-closed at the stream's last timestamp
        assert root.children[1].end == pytest.approx(4.0)
        assert root.end == pytest.approx(4.0)

    def test_driver_forest_sorts_before_workers(self, tmp_path):
        a = tmp_path / "a.jsonl"
        _write_stream(a, pid=30, wall0=0.0, worker=1,
                      events=[(1.0, "B", "task"), (2.0, "E", "task")])
        _write_stream(a, pid=10, wall0=0.5,
                      events=[(1.0, "B", "search"), (2.0, "E", "search")],
                      append=True)
        stitched = ledger.stitch([a])
        assert [s.name for s in stitched.roots] == ["search", "task"]
        assert stitched.roots[1].worker == 1

    def test_unanchored_stream_borrows_file_anchor(self, tmp_path):
        # a pre-/2 worker stream in the same file as an anchored driver
        a = tmp_path / "a.jsonl"
        _write_stream(a, pid=10, wall0=200.0,
                      events=[(1.0, "I", "drv")])
        with open(a, "a") as fh:
            fh.write(json.dumps({"ts": 3.0, "pid": 99, "tid": 99,
                                 "ph": "I", "name": "old"}) + "\n")
        stitched = ledger.stitch([a])
        wall = {e["name"]: e["wall"] for e in stitched.events}
        assert wall["old"] == pytest.approx(203.0)

    def test_file_with_no_anchor_keeps_raw_ts(self, tmp_path):
        a = tmp_path / "a.jsonl"
        with open(a, "w") as fh:
            fh.write(json.dumps({"ts": 7.0, "pid": 1, "tid": 1,
                                 "ph": "I", "name": "bare"}) + "\n")
        stitched = ledger.stitch([a])
        assert stitched.events[0]["wall"] == pytest.approx(7.0)
        assert stitched.run_ids == ()
