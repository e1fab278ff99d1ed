"""Tests for the command-line interface (python -m repro)."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.spec.dsl import load_properties

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
property liveness:
    forall x: G( S.pick(x) -> F R.got(x) )
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "relay.dws"
    path.write_text(SPEC)
    return str(path)


class TestLoadProperties:
    def test_both_found(self):
        props = load_properties(SPEC)
        assert set(props) == {"safety", "liveness"}
        assert props["safety"].startswith("forall x:")

    def test_multiline_body_merged(self):
        props = load_properties(SPEC)
        assert "F R.got(x)" in props["liveness"]

    def test_duplicate_rejected(self):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            load_properties("property a: G true\nproperty a: G true")


class TestVerifyCommand:
    def test_single_property_ok(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "safety"])
        out = capsys.readouterr().out
        assert code == 0
        assert "safety: SATISFIED" in out

    def test_failing_property_exit_code(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "liveness"])
        out = capsys.readouterr().out
        assert code == 1
        assert "liveness: VIOLATED" in out

    def test_all_properties(self, spec_file, capsys):
        code = main(["verify", spec_file])
        out = capsys.readouterr().out
        assert code == 1  # liveness fails
        assert "safety: SATISFIED" in out

    def test_fair_perfect_flips_liveness(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "liveness",
                     "--perfect", "--fair"])
        out = capsys.readouterr().out
        assert code == 0
        assert "liveness: SATISFIED" in out

    def test_counterexample_printed(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "liveness",
                     "--counterexample"])
        out = capsys.readouterr().out
        assert code == 1
        assert "counterexample to:" in out

    def test_unknown_property(self, spec_file, capsys):
        code = main(["verify", spec_file, "--property", "nosuch"])
        assert code == 2

    def test_no_properties_declared(self, tmp_path, capsys):
        path = tmp_path / "bare.dws"
        path.write_text(SPEC.split("property", 1)[0])
        assert main(["verify", str(path)]) == 2


class TestCheckCommand:
    def test_clean_spec(self, spec_file, capsys):
        assert main(["check", spec_file]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violating_spec(self, tmp_path, capsys):
        path = tmp_path / "bad.dws"
        path.write_text("""
        peer P {
            database d/1
            state s/1
            out flat q/1
            insert s(x) <- d(x)
            send q(x) <- s(x)
        }
        """)
        assert main(["check", str(path)]) == 1


class TestSimulateCommand:
    def test_prints_steps(self, spec_file, capsys):
        code = main(["simulate", spec_file, "--steps", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("step") == 6

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.dws"
        path.write_text("peer P { junk }")
        assert main(["check", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestAuctionSpecProperties:
    def test_shipped_spec_verifies_via_cli(self, capsys):
        spec = str(Path(__file__).parent.parent / "examples" / "specs"
                   / "auction.dws")
        assert main(["verify", spec]) == 0


@pytest.mark.obs
class TestObservabilityFlags:
    def test_verify_writes_metrics_json(self, spec_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["verify", spec_file, "--property", "safety",
                     "--metrics-json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro.metrics/2"
        assert payload["command"] == "verify"
        assert payload["registry"]["schema"] == "repro.metrics/2"
        (entry,) = payload["results"]
        assert entry["property"] == "safety"
        assert entry["verdict"] == "SATISFIED"
        assert entry["stats"]["phase_seconds"]
        assert entry["stats"]["rule_cache"].get("misses", 0) > 0

    def test_verify_writes_trace_jsonl(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code = main(["verify", spec_file, "--property", "safety",
                     "--trace", str(out)])
        assert code == 0
        events = [json.loads(line)
                  for line in out.read_text().splitlines() if line]
        assert events[0]["name"] == "stream-start"
        # CLI entry points open a run-ledger context, so every event is
        # stamped with the run id
        assert all(ev.get("run") for ev in events)
        names = {ev["name"] for ev in events}
        assert {"search", "expand"} <= names
        # tracing is switched back off after main() returns
        from repro.obs import tracing_enabled
        assert not tracing_enabled()

    def test_check_accepts_metrics_json(self, spec_file, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["check", spec_file,
                     "--metrics-json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "check"
        assert payload["results"][0]["violations"] == []

    def test_simulate_accepts_trace(self, spec_file, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["simulate", spec_file, "--steps", "3",
                     "--trace", str(out)]) == 0
        assert out.exists()


class TestProfileCommand:
    def test_profile_spec_file(self, spec_file, capsys):
        code = main(["profile", spec_file, "--property", "safety"])
        out = capsys.readouterr().out
        assert code == 0
        assert "safety: SATISFIED" in out
        assert "total (wall)" in out
        assert "(other)" in out
        assert "search" in out

    def test_profile_library_target(self, capsys):
        code = main(["profile", "loan",
                     "--property", "bank_policy_pointwise"])
        out = capsys.readouterr().out
        assert code == 0
        assert "bank_policy_pointwise: SATISFIED" in out
        assert "rule cache:" in out

    def test_profile_phase_rows_sum_to_wall(self, spec_file, capsys):
        assert main(["profile", spec_file, "--property", "safety"]) == 0
        out = capsys.readouterr().out
        import re
        rows = {}
        for line in out.splitlines():
            m = re.match(r"\s+(.+?)\s+(?:\d+|-)?\s*(\d+\.\d+)s\s+"
                         r"\d+\.\d+%\s*$", line)
            if m:
                rows[m.group(1).strip()] = float(m.group(2))
        wall = rows.pop("total (wall)")
        assert rows, "no phase rows parsed"
        # rows are exclusive self-times plus the uninstrumented
        # remainder, so up to per-row rounding they sum to the wall
        assert sum(rows.values()) == pytest.approx(
            wall, abs=0.002 * (len(rows) + 1))

    def test_profile_unknown_library(self, capsys):
        assert main(["profile", "nosuchlib"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_workers_counts_every_child(self, capsys, tmp_path):
        """Both children's work reaches the profile and --metrics-json."""
        from repro.obs import phase_counts

        out_json = tmp_path / "m.json"
        before = phase_counts().get("expand", 0)
        code = main(["profile", "loan", "--workers", "2",
                     "--property", "letter_needs_application",
                     "--metrics-json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        # the children's phases were folded into this process's registry
        assert phase_counts()["expand"] - before == 410
        assert "workers=2" in out
        # each child explores the graph once: 205 states, twice
        assert "expansions: 410 of 205 distinct states" in out
        payload = json.loads(out_json.read_text())
        assert payload["command"] == "profile"
        (entry,) = payload["results"]
        stats = entry["stats"]
        assert stats["workers"] == 2
        assert stats["phase_counts"]["expand"] == 410
        assert [row["order"] for row in stats["per_task"]] == [0, 1]
