"""One exploration per run: CLI property batches against solo runs.

In process (one worker, sharded or not), ``repro verify`` and ``repro
profile`` give every distinct verification domain one
:class:`SharedExploration` and pass it to each property's ``verify()``
call; with ``--workers N`` each local shard does the same in its
child.  Sharing must not show in any result: for every property the
verdict, the decisive valuation, the lasso,
``valuations_checked`` and ``product_nodes_visited`` equal a solo
``verify()`` over the same domain.  ``system_states`` is not compared
(a shared exploration reports its own size, and a solo lazy search may
stop early), as in ``tests/test_engine_differential.py``.

Two further properties are pinned: each distinct state of each domain
is expanded exactly once per run (the ``expand`` phase count equals the
states of the completed graphs), and a caller-supplied exploration
keeps its graph and per-state caches for the next property.

The inputs are ``examples/specs/auction.dws`` (two properties, one
domain), ``repro profile loan`` (a library batch over a fixed domain
with valuation candidates), and ``tests/fixtures/batch.dws``: a VIOLATED
property sorted before SATISFIED ones, a VIOLATED one found on the
graph an earlier property froze, and one property whose extra constant
gives it a domain and an exploration of its own.
"""

from pathlib import Path

import pytest

import repro.cli as cli
from repro.fo.formulas import relations
from repro.library import loan
from repro.ltlfo.parser import parse_ltlfo
from repro.obs import phase_counts
from repro.runtime import validate_lasso
from repro.spec import DECIDABLE_DEFAULT
from repro.spec.dsl import load_document
from repro.verifier import (
    SharedExploration, TransitionCache, canonical_valuations,
    property_engines, verification_domain, verify, verify_all,
)

ROOT = Path(__file__).resolve().parents[1]
AUCTION = ROOT / "examples" / "specs" / "auction.dws"
BATCH = Path(__file__).resolve().parent / "fixtures" / "batch.dws"


@pytest.fixture
def calls(monkeypatch):
    """Every ``verify`` call the CLI makes: (args, kwargs, result)."""
    recorded = []
    inner = cli.verify

    def spy(*args, **kwargs):
        result = inner(*args, **kwargs)
        recorded.append((args, kwargs, result))
        return result

    monkeypatch.setattr(cli, "verify", spy)
    return recorded


def run_cli(argv):
    """``repro`` *argv* in process: (exit code, states expanded)."""
    before = phase_counts().get("expand", 0)
    code = cli.main(argv)
    return code, phase_counts().get("expand", 0) - before


def distinct_states(composition, databases, domain, semantics) -> int:
    """States of the full reachable graph, from a fresh exploration."""
    exploration = SharedExploration(TransitionCache(
        composition, databases, domain.values, semantics))
    assert exploration.complete()
    return len(exploration.interner)


def check_batch(calls, expansions, *, own_domains: bool) -> dict:
    """Compare every captured call with a solo run; the explorations.

    Returns ``{domain: exploration}``.  With *own_domains* each
    property's domain must be its own ``verification_domain``.
    """
    explorations = {}
    for args, kwargs, result in calls:
        composition, sentence, databases = args
        domain, engine = kwargs["domain"], kwargs["engine"]
        semantics = kwargs["semantics"]
        assert isinstance(engine, SharedExploration)
        if own_domains:
            assert domain == verification_domain(composition, [sentence],
                                                 databases)
        # one exploration per distinct domain, never across domains
        assert explorations.setdefault(domain, engine) is engine

        solo = verify(composition, sentence, databases, semantics=semantics,
                      domain=domain, fair_scheduling=kwargs["fair_scheduling"],
                      valuation_candidates=kwargs["valuation_candidates"],
                      workers=1, engine="shared")
        label = str(sentence)
        assert result.satisfied == solo.satisfied, label
        assert result.stats.valuations_checked == \
            solo.stats.valuations_checked, label
        assert result.stats.product_nodes_visited == \
            solo.stats.product_nodes_visited, label
        if solo.counterexample is None:
            assert result.counterexample is None, label
            continue
        assert result.counterexample.valuation == \
            solo.counterexample.valuation, label
        assert result.counterexample.lasso == solo.counterexample.lasso, \
            label
        assert validate_lasso(composition, databases, domain.values,
                              result.counterexample.lasso,
                              semantics=semantics) == [], label

    assert len(set(map(id, explorations.values()))) == len(explorations)
    composition, _sentence, databases = calls[0][0]
    semantics = calls[0][1]["semantics"]
    per_domain = {
        domain: distinct_states(composition, databases, domain, semantics)
        for domain in explorations
    }
    for domain, engine in explorations.items():
        assert engine.states_expanded == per_domain[domain]
    assert expansions == sum(per_domain.values())
    return explorations


def test_auction_shares_one_exploration(calls, capsys):
    code, expansions = run_cli(["verify", "--workers", "1", str(AUCTION)])
    assert code == 0
    assert [r.satisfied for _a, _k, r in calls] == [True, True]
    explorations = check_batch(calls, expansions, own_domains=True)
    assert len(explorations) == 1


def test_batch_fixture_splits_on_the_extra_constant(calls, capsys):
    code, expansions = run_cli(["verify", "--workers", "1", str(BATCH)])
    assert code == 1
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "delivered", "got_from_items", "never_got_z", "nothing_arrives"]
    assert [r.satisfied for _a, _k, r in calls] == [
        False, True, True, False]
    explorations = check_batch(calls, expansions, own_domains=True)
    assert len(explorations) == 2
    z_domain = calls[2][1]["domain"]
    assert "z" in z_domain.constants
    assert all("z" not in d.constants for d in explorations
               if d != z_domain)


def test_profile_loan_matches_solo_runs(calls, capsys):
    code, expansions = run_cli(["profile", "loan", "--workers", "1"])
    assert code == 0
    assert all(kwargs["valuation_candidates"] == loan.STANDARD_CANDIDATES
               for _a, kwargs, _r in calls)
    explorations = check_batch(calls, expansions, own_domains=False)
    assert len(explorations) == 1
    out = capsys.readouterr()
    assert "expansions: 205 of 205 distinct states (1.00 per state)" \
        in out.out
    assert "warning:" not in out.err


def test_profile_flags_per_shard_exploration(capsys):
    """Two local shards explore the graph once each: ratio 2.00."""
    assert cli.main(["profile", "loan", "--workers", "2"]) == 0
    out = capsys.readouterr()
    assert "expansions: 410 of 205 distinct states (2.00 per state)" \
        in out.out
    assert "warning: states were expanded 2.00 times each" in out.err


def test_profile_shard_shares_one_exploration(capsys, tmp_path):
    """A shard walks one graph for every property, like the whole sweep."""
    assert cli.main(["profile", "loan", "--shard", "0/2", "--shard-output",
                     str(tmp_path / "shard.json")]) == 0
    out = capsys.readouterr()
    assert "expansions: 205 of 205 distinct states (1.00 per state)" \
        in out.out
    assert "warning:" not in out.err


def batch_sentences():
    composition, databases, properties = load_document(BATCH.read_text())
    return composition, databases, {
        name: parse_ltlfo(text, composition.schema)
        for name, text in sorted(properties.items())
    }


def test_supplied_exploration_keeps_rows_and_extension_memo():
    composition, databases, sentences = batch_sentences()
    sentence = sentences["got_from_items"]
    [(domain, engine)] = property_engines(composition, [sentence],
                                          databases)
    result = verify(composition, sentence, databases, domain=domain,
                    engine=engine)
    assert result.satisfied
    # the graph (every interned state's successor row) and each payload
    # relation set's extension ids, by key projection, stay for the next
    # property
    assert len(engine._succ) == len(engine.interner)
    for payload in sentence.fo_payloads():
        rels = tuple(sorted(relations(payload)))
        assert engine.shared.extension_memo(rels).by_projection, rels


def test_property_engines_share_per_domain():
    composition, databases, by_name = batch_sentences()
    sentences = list(by_name.values())
    plan = property_engines(composition, sentences, databases)
    engines = [engine for _domain, engine in plan]
    assert all(isinstance(e, SharedExploration) for e in engines)
    assert engines[0] is engines[1] is engines[3]
    assert engines[2] is not engines[0]
    assert [d for d, _e in plan] == [
        verification_domain(composition, [s], databases)
        for s in sentences]


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_all_valuation_candidates(workers):
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    props = [loan.PROPERTY_BANK_POLICY_POINTWISE,
             loan.PROPERTY_LETTER_NEEDS_APPLICATION]
    batch = verify_all(composition, props, databases, domain=domain,
                       valuation_candidates=loan.STANDARD_CANDIDATES,
                       workers=workers)
    for prop, result in zip(props, batch):
        solo = verify(composition, prop, databases, domain=domain,
                      valuation_candidates=loan.STANDARD_CANDIDATES,
                      workers=1)
        sentence = parse_ltlfo(prop, composition.schema)
        assert result.satisfied and solo.satisfied
        assert result.stats.valuations_checked == \
            solo.stats.valuations_checked < \
            len(canonical_valuations(sentence.variables, domain))
        assert result.stats.product_nodes_visited == \
            solo.stats.product_nodes_visited


def test_verify_all_expands_each_state_once():
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    before = phase_counts().get("expand", 0)
    verify_all(composition, [loan.PROPERTY_BANK_POLICY_POINTWISE,
                             loan.PROPERTY_LETTER_NEEDS_APPLICATION],
               databases, domain=domain,
               valuation_candidates=loan.STANDARD_CANDIDATES, workers=1)
    expansions = phase_counts().get("expand", 0) - before
    assert expansions == distinct_states(composition, databases, domain,
                                         DECIDABLE_DEFAULT)
