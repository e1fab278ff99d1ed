"""Tests for the live progress plane (repro.obs.live): heartbeat
writing, gating, and the reader side `repro top` consumes."""

import json
import os

import pytest

from repro.obs import ledger, live


@pytest.fixture(autouse=True)
def _runs_root(tmp_path, monkeypatch):
    monkeypatch.setenv(live.RUN_DIR_ENV, str(tmp_path / "runs"))
    monkeypatch.delenv(live.HEARTBEAT_ENV, raising=False)
    monkeypatch.delenv(ledger.RUN_ID_ENV, raising=False)
    ledger.end_run()
    yield
    ledger.end_run()


class TestGating:
    def test_no_run_no_heartbeats(self):
        progress = live.sweep_progress(10)
        assert progress is live.NULL_PROGRESS
        assert not progress.enabled

    def test_active_run_enables(self):
        ledger.begin_run(run_id="r-live-01")
        progress = live.sweep_progress(10)
        assert progress.enabled
        progress.finish()

    def test_env_kill_switch(self, monkeypatch):
        ledger.begin_run(run_id="r-live-02")
        for value in ("0", "false", "off", "no"):
            monkeypatch.setenv(live.HEARTBEAT_ENV, value)
            assert live.sweep_progress(10) is live.NULL_PROGRESS
        monkeypatch.setenv(live.HEARTBEAT_ENV, "1")
        assert live.sweep_progress(10).enabled

    def test_unwritable_root_degrades(self, monkeypatch):
        ledger.begin_run(run_id="r-live-03")
        monkeypatch.setenv(live.RUN_DIR_ENV, "/proc/definitely/not/ok")
        assert live.sweep_progress(10) is live.NULL_PROGRESS

    def test_null_progress_accepts_all_calls(self):
        p = live.NULL_PROGRESS
        p.advance(3, violated=1)
        p.set_info(workers=4)
        p.tick(force=True)
        p.finish("cancelled")


class TestHeartbeatRecords:
    def _plane(self, total=20, kind="sweep"):
        ledger.begin_run(run_id="r-hb-01")
        return live._make(kind, total)

    def test_record_schema(self):
        progress = self._plane()
        progress.advance(5, violated=2)
        progress.set_info(workers=4, spec=None)
        progress.finish()
        record = live.read_progress("r-hb-01")
        assert record["schema"] == live.HEARTBEAT_SCHEMA
        assert record["run"] == "r-hb-01"
        assert record["kind"] == "sweep"
        assert record["status"] == "done"
        assert record["pid"] == os.getpid()
        assert record["total"] == 20
        assert record["done"] == 5
        assert record["counters"] == {"violated": 2}
        # None-valued info fields are dropped, not rendered as "None"
        assert record["info"] == {"workers": 4}
        assert record["elapsed"] > 0

    def test_eta_needs_progress_and_total(self):
        progress = self._plane(total=10)
        first = live.read_progress("r-hb-01")
        assert first["rate"] is None and first["eta_seconds"] is None
        progress.advance(5)
        progress.tick(force=True)
        running = live.read_progress("r-hb-01")
        assert running["rate"] > 0
        assert running["eta_seconds"] >= 0
        progress.finish()
        assert live.read_progress("r-hb-01")["eta_seconds"] is None

    def test_heartbeat_history_appends(self):
        progress = self._plane()
        progress.advance(1)
        progress.tick(force=True)
        progress.finish()
        lines = (live.run_dir("r-hb-01") / "heartbeat.jsonl"
                 ).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) >= 3  # creation + forced tick + finish
        assert records[-1]["status"] == "done"
        dones = [r["done"] for r in records]
        assert dones == sorted(dones)

    def test_rate_limit_suppresses_writes(self):
        progress = self._plane()
        progress.interval = 3600.0
        before = (live.run_dir("r-hb-01")
                  / "heartbeat.jsonl").read_text().count("\n")
        for _ in range(50):
            progress.advance(1)
        after = (live.run_dir("r-hb-01")
                 / "heartbeat.jsonl").read_text().count("\n")
        assert after == before  # all inside the interval window
        progress.finish()  # finish always writes
        assert (live.run_dir("r-hb-01")
                / "heartbeat.jsonl").read_text().count("\n") == after + 1


class TestReaders:
    def test_list_runs_newest_first(self):
        ledger.begin_run(run_id="r-old")
        live.sweep_progress(5).finish()
        ledger.begin_run(run_id="r-new")
        plane = live.sweep_progress(5)
        plane.advance(1)
        plane.finish()
        runs = live.list_runs()
        assert [r["run"] for r in runs][0] == "r-new"
        assert {r["run"] for r in runs} == {"r-old", "r-new"}
        assert live.latest_run() == "r-new"

    def test_missing_run_reads_none(self):
        assert live.read_progress("r-nope") is None
        assert live.list_runs() == []
        assert live.latest_run() is None

    def test_render_progress(self):
        record = {
            "schema": live.HEARTBEAT_SCHEMA, "run": "r-render", "kind":
            "sweep", "status": "running", "pid": 123, "total": 10,
            "done": 5, "elapsed": 2.0, "rate": 2.5, "eta_seconds": 2.0,
            "started": 0.0, "updated": 0.0,
            "counters": {"violated": 1}, "info": {"workers": 4},
        }
        import time as time_mod
        record["updated"] = time_mod.time()
        text = live.render_progress(record)
        assert "r-render" in text
        assert "50.0%" in text
        assert "5/10" in text
        assert "workers=4" in text
        assert "violated=1" in text
        assert "stale" not in text
        record["updated"] -= 100
        assert "stale" in live.render_progress(record)

    def test_bar_width(self):
        assert live._bar(0, None) == "-" * 30
        assert live._bar(5, 10, width=10) == "#####-----"
        assert live._bar(99, 10, width=10) == "#" * 10
