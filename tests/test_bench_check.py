"""Tests for the bench regression sentinel (repro.obs.bench) and its
command, ``repro bench check``.

The committed ``benchmarks/metrics`` trajectory must pass clean (that
is the CI gate's steady state), and a planted 2x ``wall_seconds`` entry
must trip it (that is the gate's reason to exist).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.bench import (
    DEFAULT_MAX_WALL_RATIO, DEFAULT_MIN_WALL_SECONDS, check_directory,
    check_entries, load_trajectories,
)

METRICS_DIR = Path(__file__).parent.parent / "benchmarks" / "metrics"


def _entry(case="c1", wall=1.0, recorded_at="2026-01-01T00:00:00+0000",
           verdict="SATISFIED", experiment="e1", **stats):
    base = {"valuations_checked": 8, "system_states": 40,
            "product_nodes_visited": 120, "nba_states_total": 3,
            "wall_seconds": wall}
    base.update(stats)
    return {
        "schema": "repro.metrics/1",
        "recorded_at": recorded_at,
        "experiment": experiment,
        "case": case,
        "verdict": verdict,
        "stats": base,
    }


def _dir_with(tmp_path, entries, name="BENCH_e1.json"):
    (tmp_path / name).write_text(json.dumps(entries))
    return tmp_path


class TestLoading:
    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_trajectories(tmp_path)

    def test_entries_stamped_with_origin(self, tmp_path):
        _dir_with(tmp_path, [_entry(), _entry()])
        rows = load_trajectories(tmp_path)
        assert [r["_origin"] for r in rows] == [
            ("BENCH_e1.json", 0), ("BENCH_e1.json", 1)]

    def test_non_list_file_raises(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text('{"not": "a list"}')
        with pytest.raises(ValueError):
            load_trajectories(tmp_path)


class TestSentinel:
    def test_stable_history_passes(self, tmp_path):
        d = _dir_with(tmp_path, [
            _entry(wall=1.0, recorded_at="2026-01-01T00:00:00+0000"),
            _entry(wall=1.1, recorded_at="2026-01-02T00:00:00+0000"),
            _entry(wall=0.9, recorded_at="2026-01-03T00:00:00+0000"),
        ])
        report = check_directory(d)
        assert report.ok
        assert report.entries == 3
        assert report.groups_checked == 1
        assert report.groups_new == 0

    def test_planted_2x_wall_fires(self, tmp_path):
        d = _dir_with(tmp_path, [
            _entry(wall=1.0, recorded_at="2026-01-01T00:00:00+0000"),
            _entry(wall=1.0, recorded_at="2026-01-02T00:00:00+0000"),
            _entry(wall=2.0, recorded_at="2026-01-03T00:00:00+0000"),
        ])
        report = check_directory(d)
        assert not report.ok
        (reg,) = report.regressions
        assert reg.metric == "wall_seconds"
        assert reg.baseline == 1.0
        assert reg.latest == 2.0
        assert "2.00x" in reg.message

    def test_newest_by_recorded_at_not_file_position(self, tmp_path):
        # the slow entry sits first in the file but is newest by stamp
        d = _dir_with(tmp_path, [
            _entry(wall=5.0, recorded_at="2026-01-09T00:00:00+0000"),
            _entry(wall=1.0, recorded_at="2026-01-01T00:00:00+0000"),
            _entry(wall=1.0, recorded_at="2026-01-02T00:00:00+0000"),
        ])
        assert not check_directory(d).ok

    def test_noise_floor_absorbs_fast_cases(self, tmp_path):
        # 3x ratio but only 2ms absolute: jitter, not regression
        d = _dir_with(tmp_path, [
            _entry(wall=0.001, recorded_at="2026-01-01T00:00:00+0000"),
            _entry(wall=0.003, recorded_at="2026-01-02T00:00:00+0000"),
        ])
        assert check_directory(d).ok
        assert not check_directory(d, min_wall_seconds=0.0001).ok

    def test_ratio_threshold_is_tunable(self, tmp_path):
        d = _dir_with(tmp_path, [
            _entry(wall=1.0, recorded_at="2026-01-01T00:00:00+0000"),
            _entry(wall=1.4, recorded_at="2026-01-02T00:00:00+0000"),
        ])
        assert check_directory(d).ok  # 1.4x < default 1.5x
        assert not check_directory(d, max_wall_ratio=1.2).ok

    def test_baseline_is_median_not_worst(self, tmp_path):
        # one historic outlier must not mask a regression
        d = _dir_with(tmp_path, [
            _entry(wall=1.0, recorded_at="2026-01-01T00:00:00+0000"),
            _entry(wall=9.0, recorded_at="2026-01-02T00:00:00+0000"),
            _entry(wall=1.0, recorded_at="2026-01-03T00:00:00+0000"),
            _entry(wall=2.5, recorded_at="2026-01-04T00:00:00+0000"),
        ])
        report = check_directory(d)
        assert not report.ok
        assert report.regressions[0].baseline == 1.0

    def test_exact_metric_drift_fires(self, tmp_path):
        d = _dir_with(tmp_path, [
            _entry(recorded_at="2026-01-01T00:00:00+0000"),
            _entry(recorded_at="2026-01-02T00:00:00+0000",
                   system_states=41),
        ])
        report = check_directory(d)
        assert not report.ok
        (reg,) = report.regressions
        assert reg.metric == "system_states"
        assert (reg.baseline, reg.latest) == (40, 41)

    def test_noisy_history_skips_exact_check(self, tmp_path):
        # earlier entries disagree (e.g. a worker-count change):
        # no single expected value, so no drift verdict
        d = _dir_with(tmp_path, [
            _entry(recorded_at="2026-01-01T00:00:00+0000",
                   system_states=40),
            _entry(recorded_at="2026-01-02T00:00:00+0000",
                   system_states=44),
            _entry(recorded_at="2026-01-03T00:00:00+0000",
                   system_states=99),
        ])
        assert check_directory(d).ok

    def test_verdict_flip_fires(self, tmp_path):
        d = _dir_with(tmp_path, [
            _entry(recorded_at="2026-01-01T00:00:00+0000"),
            _entry(recorded_at="2026-01-02T00:00:00+0000",
                   verdict="VIOLATED"),
        ])
        report = check_directory(d)
        (reg,) = report.regressions
        assert reg.metric == "verdict"
        assert "flipped" in reg.message

    def test_single_entry_groups_are_new(self, tmp_path):
        d = _dir_with(tmp_path, [
            _entry(case="brand-new"),
            _entry(case="seen", recorded_at="2026-01-01T00:00:00+0000"),
            _entry(case="seen", recorded_at="2026-01-02T00:00:00+0000"),
        ])
        report = check_directory(d)
        assert report.ok
        assert report.groups_new == 1
        assert report.groups_checked == 1

    def test_entries_without_stats_are_tolerated(self):
        rows = [
            {"experiment": "e", "case": "c", "_origin": ("f", 0),
             "recorded_at": "2026-01-01T00:00:00+0000"},
            {"experiment": "e", "case": "c", "_origin": ("f", 1),
             "recorded_at": "2026-01-02T00:00:00+0000"},
        ]
        assert check_entries(rows).ok

    def test_report_serializes(self, tmp_path):
        d = _dir_with(tmp_path, [
            _entry(wall=1.0, recorded_at="2026-01-01T00:00:00+0000"),
            _entry(wall=4.0, recorded_at="2026-01-02T00:00:00+0000"),
        ])
        report = check_directory(d)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "repro.bench-check/1"
        assert doc["ok"] is False
        assert doc["regressions"][0]["metric"] == "wall_seconds"
        rendered = report.render()
        assert "REGRESSION" in rendered
        assert "1 regression(s)" in rendered


@pytest.mark.skipif(not METRICS_DIR.is_dir(),
                    reason="no committed trajectory")
class TestCommittedTrajectory:
    def test_committed_trajectory_is_clean(self):
        """The repo's own BENCH_*.json must pass the default gate."""
        report = check_directory(METRICS_DIR,
                                 max_wall_ratio=DEFAULT_MAX_WALL_RATIO,
                                 min_wall_seconds=DEFAULT_MIN_WALL_SECONDS)
        assert report.ok, report.render()
        assert report.entries > 0


def _bench_entry(wall, recorded_at):
    return {
        "schema": "repro.metrics/1",
        "recorded_at": recorded_at,
        "experiment": "e1",
        "case": "c1",
        "verdict": "SATISFIED",
        "stats": {"wall_seconds": wall, "system_states": 40},
    }


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
