"""Tests for ``repro lint`` (exit codes, output formats, pre-flight)."""

import json

import pytest

from repro.cli import main

CLEAN_SPEC = """
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

DEFECT_SPEC = """
peer A {
    state s/1
    in flat q/1
    insert s(x) <- ?q(x)
    send r(x) <- ?q(x)
}
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.dws"
    path.write_text(CLEAN_SPEC)
    return str(path)


@pytest.fixture
def defect_file(tmp_path):
    path = tmp_path / "defect.dws"
    path.write_text(DEFECT_SPEC)
    return str(path)


class TestExitCodes:
    def test_clean_library_target_exits_zero(self, capsys):
        assert main(["lint", "loan"]) == 0
        out = capsys.readouterr().out
        assert "DWV401" in out
        assert "0 error(s)" in out

    def test_clean_file_exits_zero(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0

    def test_error_diagnostics_exit_one(self, defect_file, capsys):
        assert main(["lint", defect_file]) == 1
        assert "DWV301" in capsys.readouterr().out

    def test_unparseable_spec_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.dws"
        path.write_text("peer A {\n    this is not a declaration\n}\n")
        assert main(["lint", str(path)]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert main(["lint", "no/such/spec.dws"]) == 2

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.dws"
        # unreachable state: a warning, not an error
        path.write_text("""
peer A {
    state s/1
    state never/1
    in flat q/1
    insert s(x) <- ?q(x) & never(x)
}
""")
        assert main(["lint", str(path)]) == 0
        assert main(["lint", str(path), "--strict"]) == 1


class TestFormats:
    def test_json_shape(self, clean_file, capsys):
        assert main(["lint", clean_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/1"
        assert payload["target"] == clean_file
        assert payload["passes"] == [
            "structure", "ib", "rules", "reachability", "channels",
            "flow", "provenance", "decidability"]
        assert "cost_hints" not in payload
        assert "composition" in payload["classifications"]

    def test_sarif_to_output_file(self, clean_file, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        assert main(["lint", clean_file, "--format", "sarif",
                     "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-lint"

    def test_text_reports_classification(self, capsys):
        main(["lint", "travel"])
        out = capsys.readouterr().out
        assert "decidable (Theorem 3.4, PSPACE)" in out

    def test_metrics_json(self, clean_file, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        main(["lint", clean_file, "--metrics-json", str(metrics)])
        payload = json.loads(metrics.read_text())
        assert payload["schema"] == "repro.metrics/2"
        [entry] = payload["results"]
        assert entry["target"] == clean_file
        assert entry["passes"][-1] == "decidability"


class TestSemanticsFlags:
    def test_perfect_channels_flip_classification(self, clean_file,
                                                  capsys):
        assert main(["lint", clean_file, "--perfect"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 3.7" in out
        assert "DWV402" in out


class TestVerifyPreflight:
    def test_verify_warns_on_undecidable_configuration(self, clean_file,
                                                       capsys):
        code = main(["verify", clean_file, "--property", "safety",
                     "--perfect"])
        err = capsys.readouterr().err
        assert code == 0
        assert "Theorem 3.7" in err
        assert "repro lint" in err

    def test_verify_silent_when_decidable(self, clean_file, capsys):
        main(["verify", clean_file, "--property", "safety"])
        assert "warning" not in capsys.readouterr().err


class TestMultiTarget:
    def test_text_sections_per_target(self, clean_file, capsys):
        assert main(["lint", clean_file, "loan"]) == 0
        out = capsys.readouterr().out
        assert f"== {clean_file} ==" in out
        assert "== loan ==" in out

    def test_json_wraps_targets(self, clean_file, capsys):
        assert main(["lint", clean_file, "loan", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/1"
        assert [t["target"] for t in payload["targets"]] == \
            [clean_file, "loan"]

    def test_sarif_one_run_per_target(self, clean_file, capsys):
        assert main(["lint", clean_file, "loan",
                     "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["runs"]) == 2
        for run in doc["runs"]:
            for result in run["results"]:
                assert result["partialFingerprints"]["reproLint/v1"]

    def test_bad_target_does_not_mask_good_ones(self, clean_file, capsys):
        assert main(["lint", clean_file, "no/such.dws"]) == 2
        captured = capsys.readouterr()
        assert "0 error(s)" in captured.out
        assert "no/such.dws" in captured.err

    def test_exit_is_max_over_targets(self, clean_file, defect_file,
                                      capsys):
        assert main(["lint", clean_file, defect_file]) == 1


class TestGithubFormat:
    def test_annotations_stream(self, defect_file, capsys):
        assert main(["lint", defect_file, "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error title=DWV301::" in out

    def test_clean_target_emits_notices_only(self, capsys):
        assert main(["lint", "loan", "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::notice title=DWV401::" in out
        assert "::error" not in out

    def test_newlines_are_escaped(self, tmp_path, capsys):
        path = tmp_path / "warn.dws"
        path.write_text(CLEAN_SPEC)
        main(["lint", str(path), "--format", "github"])
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("::"):
                assert "\n" not in line


class TestCacheFlag:
    def test_warm_run_is_byte_identical_and_all_hits(
            self, clean_file, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["lint", clean_file, "--cache", "--cache-dir", cache_dir]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "doc-misses=1" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "doc-hits=1" in second.err
        assert "peer-misses=0" in second.err

    def test_no_cache_is_the_default(self, clean_file, capsys):
        assert main(["lint", clean_file]) == 0
        assert "lint-cache:" not in capsys.readouterr().err

    def test_cache_respects_semantics_flags(self, clean_file, tmp_path,
                                            capsys):
        cache_dir = str(tmp_path / "cache")
        main(["lint", clean_file, "--cache", "--cache-dir", cache_dir])
        capsys.readouterr()
        code = main(["lint", clean_file, "--perfect", "--cache",
                     "--cache-dir", cache_dir])
        captured = capsys.readouterr()
        assert code == 0
        assert "doc-misses=1" in captured.err
        assert "Theorem 3.7" in captured.out
