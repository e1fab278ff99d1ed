"""Tests for the observability CLI surface: `repro top`, `repro trace
convert`, `repro metrics export`, `repro bench check` -- plus the
end-to-end acceptance path: a sharded verify with local shards whose
traces stitch into one Chrome document under one run id.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import ledger, live

SPEC = """
peer S {
    database items/1
    input pick/1
    out flat msg/1
    input pick(x) <- items(x)
    send  msg(x)  <- pick(x)
}
peer R {
    state got/1
    in flat msg/1
    insert got(x) <- ?msg(x)
}
database S {
    items: ("a",)
}
property safety:
    forall x: G( R.got(x) -> S.items(x) )
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "relay.dws"
    path.write_text(SPEC)
    return str(path)


@pytest.fixture(autouse=True)
def _clean(tmp_path, monkeypatch):
    monkeypatch.setenv(live.RUN_DIR_ENV, str(tmp_path / "runs"))
    monkeypatch.delenv(ledger.RUN_ID_ENV, raising=False)
    ledger.end_run()
    yield
    ledger.end_run()


def _bench_entry(wall, recorded_at):
    return {
        "schema": "repro.metrics/1",
        "recorded_at": recorded_at,
        "experiment": "e1",
        "case": "c1",
        "verdict": "SATISFIED",
        "stats": {"wall_seconds": wall, "system_states": 40},
    }


class TestTopCommand:
    def test_once_without_runs_exits_1(self, capsys):
        assert main(["top", "--once"]) == 1
        assert "no runs under" in capsys.readouterr().out

    def test_once_renders_heartbeat(self, capsys):
        ledger.begin_run(run_id="r-top-01")
        live.sweep_progress(10).finish()
        ledger.end_run()
        assert main(["top", "--once"]) == 0
        out = capsys.readouterr().out
        assert "r-top-01" in out
        assert "[sweep]" in out

    def test_run_filter(self, capsys):
        for run_id in ("r-top-a", "r-top-b"):
            ledger.begin_run(run_id=run_id)
            live.sweep_progress(5).finish()
            ledger.end_run()
        assert main(["top", "--once", "--run", "r-top-a"]) == 0
        out = capsys.readouterr().out
        assert "r-top-a" in out and "r-top-b" not in out


class TestTraceConvertCommand:
    def test_missing_input_is_an_error(self, tmp_path, capsys):
        assert main(["trace", "convert",
                     str(tmp_path / "nope.jsonl")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_default_output_swaps_suffix(self, spec_file, tmp_path,
                                         capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["verify", spec_file, "--trace", str(trace),
                     "--run-id", "r-cli-01"]) == 0
        assert main(["trace", "convert", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "r-cli-01" in out
        doc = json.loads((tmp_path / "t.chrome.json").read_text())
        assert doc["otherData"]["run_ids"] == ["r-cli-01"]
        assert doc["traceEvents"]

    def test_warns_on_mixed_runs_and_corruption(self, spec_file,
                                                tmp_path, capsys):
        t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["verify", spec_file, "--trace", str(t1),
              "--run-id", "r-mix-1"])
        main(["verify", spec_file, "--trace", str(t2),
              "--run-id", "r-mix-2"])
        with open(t1, "a") as fh:
            fh.write('{"torn...\n')
        out_file = tmp_path / "mixed.chrome.json"
        assert main(["trace", "convert", str(t1), str(t2),
                     "--output", str(out_file)]) == 0
        err = capsys.readouterr().err
        assert "2 different runs" in err
        assert "corrupt" in err


class TestMetricsExportCommand:
    def test_exports_metrics_json_document(self, spec_file, tmp_path,
                                           capsys):
        metrics = tmp_path / "m.json"
        main(["verify", spec_file, "--metrics-json", str(metrics),
              "--run-id", "r-pm-01"])
        assert main(["metrics", "export", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert 'repro_run_info{run="r-pm-01"} 1' in out
        assert any(line.endswith("_total " + line.split()[-1])
                   for line in out.splitlines()
                   if not line.startswith("#"))
        assert "repro_phase_seconds_total" in out

    def test_output_file(self, spec_file, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        main(["verify", spec_file, "--metrics-json", str(metrics)])
        out_file = tmp_path / "m.prom"
        assert main(["metrics", "export", str(metrics),
                     "--output", str(out_file)]) == 0
        assert "repro_" in out_file.read_text()

    def test_rejects_non_metrics_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/1"}')
        assert main(["metrics", "export", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestBenchCheckCommand:
    def test_passes_on_stable_history(self, tmp_path, capsys):
        (tmp_path / "BENCH_e1.json").write_text(json.dumps([
            _bench_entry(1.0, "2026-01-01T00:00:00+0000"),
            _bench_entry(1.05, "2026-01-02T00:00:00+0000"),
        ]))
        assert main(["bench", "check",
                     "--metrics-dir", str(tmp_path)]) == 0
        assert "bench check: OK" in capsys.readouterr().out

    def test_fails_on_planted_2x(self, tmp_path, capsys):
        (tmp_path / "BENCH_e1.json").write_text(json.dumps([
            _bench_entry(1.0, "2026-01-01T00:00:00+0000"),
            _bench_entry(1.0, "2026-01-02T00:00:00+0000"),
            _bench_entry(2.0, "2026-01-09T00:00:00+0000"),
        ]))
        assert main(["bench", "check",
                     "--metrics-dir", str(tmp_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        (tmp_path / "BENCH_e1.json").write_text(json.dumps([
            _bench_entry(1.0, "2026-01-01T00:00:00+0000"),
            _bench_entry(1.0, "2026-01-02T00:00:00+0000"),
        ]))
        assert main(["bench", "check", "--metrics-dir", str(tmp_path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.bench-check/1"
        assert doc["ok"] is True

    def test_empty_dir_is_an_error(self, tmp_path, capsys):
        assert main(["bench", "check",
                     "--metrics-dir", str(tmp_path)]) == 2

    def test_committed_trajectory_passes(self, capsys):
        metrics_dir = (Path(__file__).parent.parent
                       / "benchmarks" / "metrics")
        if not metrics_dir.is_dir():
            pytest.skip("no committed trajectory")
        assert main(["bench", "check",
                     "--metrics-dir", str(metrics_dir)]) == 0


@pytest.mark.obs
class TestShardedRunStitches:
    """The PR's acceptance path: shards + workers -> one Chrome trace."""

    def test_two_shards_four_workers_one_run(self, spec_file, tmp_path,
                                             capsys, monkeypatch):
        # each shard runs as its own process (as it would on its own
        # machine), correlated only by the exported REPRO_RUN_ID
        env = dict(os.environ)
        env[ledger.RUN_ID_ENV] = "r-accept-01"
        env["PYTHONPATH"] = str(
            Path(__file__).parent.parent / "src")
        traces, fragments = [], []
        for i in range(2):
            trace = tmp_path / f"shard{i}.jsonl"
            frag = tmp_path / f"shard{i}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "verify", spec_file,
                 "--workers", "4", "--shard", f"{i}/2",
                 "--shard-output", str(frag), "--trace", str(trace)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            traces.append(trace)
            fragments.append(frag)
            doc = json.loads(frag.read_text())
            assert doc["run_id"] == "r-accept-01"

        merged_file = tmp_path / "merged.json"
        assert main(["merge-shards", str(fragments[0]),
                     str(fragments[1]), "--output",
                     str(merged_file)]) == 0
        merged = json.loads(merged_file.read_text())
        assert merged["run_ids"] == ["r-accept-01"]
        assert merged["metrics"]["schema"] in (
            "repro.metrics/1", "repro.metrics/2")

        out_file = tmp_path / "run.chrome.json"
        assert main(["trace", "convert", str(traces[0]), str(traces[1]),
                     "--output", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())  # validates as JSON
        assert doc["otherData"]["run_ids"] == ["r-accept-01"]

        events = [ev for ev in doc["traceEvents"] if ev["ph"] != "M"]
        assert all(ev["args"]["run"] == "r-accept-01" for ev in events
                   if "args" in ev and "run" in ev.get("args", {}))
        meta = [ev for ev in doc["traceEvents"]
                if ev["name"] == "process_name"]
        labels = [ev["args"]["name"] for ev in meta]
        # the driver/worker/shard hierarchy is visible in the track
        # names: both shards' drivers plus their pool workers
        assert sum(1 for lab in labels if "driver" in lab) == 2
        assert any("shard 0/2" in lab for lab in labels)
        assert any("shard 1/2" in lab for lab in labels)
        worker_pids = {ev["pid"] for ev in events
                       if ev.get("args", {}).get("worker") is not None}
        driver_pids = {ev["pid"] for ev in meta} - worker_pids
        if len({ev["pid"] for ev in events}) > 2:
            # fork workers joined the trace as their own processes
            assert worker_pids
        # spans from every pid balance in the converted document
        per_pid = {}
        for ev in events:
            if ev["ph"] in ("B", "E"):
                per_pid.setdefault(ev["pid"], []).append(ev["ph"])
        for pid, phs in per_pid.items():
            assert phs.count("B") == phs.count("E"), pid
        assert driver_pids
