"""The scenario factory: generator, oracle harness, shrinker, CLI.

The load-bearing test is the *mutation* one: a deliberately buggy
verify hook (the seed engine's verdicts flipped) must be caught by the
engine-differential oracle and shrunk to a minimized, replayable
``.dws`` reproducer.  A fuzzer whose oracles cannot catch a planted bug
is just a random-spec pretty-printer.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.analysis import classify
from repro.cli import main
from repro.fuzz import (
    THEOREM_ROWS, fuzz, generate, minimize, run_case, shrink,
)
from repro.fuzz.seed_engine import verify_seed
from repro.ltlfo.parser import parse_ltlfo
from repro.spec.dsl import compositions_equal, load_document

ALL_ROWS = sorted(THEOREM_ROWS)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("row", ALL_ROWS)
def test_generator_hits_requested_row(row):
    """Every generated spec classifies into the theorem row it targets."""
    for seed in range(6):
        spec = generate(seed, row)
        sentences = [parse_ltlfo(text, spec.composition.schema)
                     for text in spec.properties.values()]
        classification = classify(spec.composition, sentences,
                                  spec.semantics)
        assert spec.matches_classification(classification), (
            f"seed {seed} row {row}: {classification.describe()}"
        )


def test_generator_rejects_unknown_row():
    with pytest.raises(ValueError, match="unknown theorem row"):
        generate(0, "9.9")


def test_generated_spec_is_replayable_text():
    spec = generate(3, "3.4")
    text = spec.to_dws()
    assert f"seed={spec.seed}" in text
    comp, dbs, props = load_document(text)
    assert compositions_equal(spec.composition, comp)
    assert dbs == spec.databases
    assert props == spec.properties


# -- oracle harness ----------------------------------------------------------


def test_fuzz_smoke_zero_violations():
    """A small campaign across two rows passes the whole oracle stack."""
    report = fuzz(count=4, seed=11, rows=("3.4", "3.7"))
    assert report.ok, report.summary()
    assert sum(1 for o in report.outcomes if o.verified) == 4
    assert "0 oracle violation(s)" in report.summary()


def test_unverifiable_row_runs_static_oracles_only():
    """Row 3.6 (undecidable, unbounded queues) is never swept."""
    spec = generate(0, "3.6")
    outcome = run_case(spec)
    assert outcome.ok, outcome.violations
    assert not outcome.verified


def _flip_seed_verdicts(comp, prop, dbs, **kwargs):
    """A planted engine bug on the reference side: the seed engine
    reports violations as satisfied (dropping the counterexample)."""
    result = verify_seed(comp, prop, dbs, **kwargs)
    if not result.satisfied:
        return dataclasses.replace(
            result, satisfied=True, counterexample=None)
    return result


def test_mutation_caught_and_shrunk(tmp_path):
    """The differential oracle catches a planted seed-engine bug and
    the shrinker produces a minimized .dws reproducer."""
    report = fuzz(count=2, seed=0, rows=("3.4",),
                  corpus_dir=tmp_path, verify_hook=_flip_seed_verdicts)
    assert not report.ok, "planted bug escaped the oracle stack"
    failing = report.failures[0]
    assert "engine-differential" in failing.oracles_failed()

    # the corpus holds a minimized, replayable reproducer
    assert report.corpus_files
    for path in report.corpus_files:
        text = Path(path).read_text()
        comp, dbs, props = load_document(text)
        assert comp.peers and props
        assert "engine-differential" in text  # violation noted in header

    # minimization is strict: no smaller spec still trips the oracle
    minimized = minimize(failing, verify_hook=_flip_seed_verdicts)
    original = failing.spec
    orig_rules = sum(len(p.rules) for p in original.composition.peers)
    mini_rules = sum(len(p.rules) for p in minimized.composition.peers)
    assert len(minimized.composition.peers) <= len(
        original.composition.peers)
    assert mini_rules < orig_rules
    assert len(minimized.properties) == 1


def test_shrink_respects_predicate():
    """The shrinker never returns a spec the predicate rejects."""
    spec = generate(1, "3.4")
    minimized = shrink(spec, lambda s: len(s.composition.peers) >= 2)
    assert len(minimized.composition.peers) == 2


# -- CLI ---------------------------------------------------------------------


def test_cli_fuzz_smoke(tmp_path, capsys):
    code = main(["fuzz", "--count", "2", "--seed", "5", "--row", "3.4",
                 "--corpus", str(tmp_path),
                 "--metrics-json", str(tmp_path / "report.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 oracle violation(s)" in out
    assert (tmp_path / "report.json").exists()


def test_cli_fuzz_seed_from_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SEED", "5")
    code = main(["fuzz", "--count", "1", "--row", "3.7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed 5" in out


def test_cli_fuzz_rejects_unknown_row(capsys):
    code = main(["fuzz", "--row", "9.9"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown theorem row" in err


def test_cli_fuzz_rejects_bad_count(capsys):
    code = main(["fuzz", "--count", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--count" in err
