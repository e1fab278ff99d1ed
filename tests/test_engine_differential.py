"""Differential testing of the verifier vs the per-valuation reference.

:func:`repro.verifier.verify`, over its shared exploration
(``repro.verifier.graph``), must be observationally identical to the
per-valuation reference engine (:func:`repro.fuzz.seed_engine.
verify_seed`): interning preserves successor order, initial-state order,
and Büchi target order, so for every case the two engines agree on

* the verdict,
* the decisive counterexample valuation and its lasso (which must also
  replay as a legal run through the operational semantics,
  :func:`repro.runtime.validate_lasso`), and
* the search node counts (``product_nodes_visited``) -- node for node,
  not just in aggregate.

``system_states`` is deliberately NOT compared: freezing expands the
full reachable graph, while the reference's lazy product may prune (the
NBA can block before the composition frontier is exhausted).

Over a completed graph the verifier searches once per letter class and
charges every valuation its class's search, so E14's 180-valuation
sweep and every property of the libraries that ship
``STANDARD_CANDIDATES`` must also agree with the per-valuation reference
on the decisive order and ``nba_states_total``, and
``valuation_classes`` must count the searches run.

Alongside the library/synthetic grid, a hypothesis suite fuzzes the
sender/receiver database contents and property choice, and unit tests
pin the graph machinery itself (interner stability, completed rows,
budget fallback).  A last test keeps the reference out of the verifier.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.fuzz.seed_engine import SnapshotExploration, verify_seed
from repro.library import (
    dispatch, ecommerce, loan, payments, synthetic, travel,
)
from repro.obs import counters_snapshot
from repro.runtime import validate_lasso
from repro.spec import Composition, DECIDABLE_DEFAULT, PeerBuilder
from repro.verifier import SharedExploration, verification_domain, verify

from .test_letter_masks import WIDE_CANDIDATES


def sender_receiver_case(rows=(("a",), ("b",))):
    sender = (
        PeerBuilder("S")
        .database("items", 1)
        .input("pick", 1)
        .flat_out_queue("msg", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("msg", ["x"], "pick(x)")
        .build()
    )
    receiver = (
        PeerBuilder("R")
        .state("got", 1)
        .flat_in_queue("msg", 1)
        .insert_rule("got", ["x"], "?msg(x)")
        .build()
    )
    comp = Composition([sender, receiver])
    dbs = {"S": Instance({"items": list(rows)})}
    return comp, dbs


def _cases():
    """(label, composition, databases, property, candidates, expected)."""
    sr_comp, sr_dbs = sender_receiver_case()
    loan_comp = loan.loan_composition()
    loan_buggy = loan.loan_composition(buggy_officer=True)
    eco_comp = ecommerce.ecommerce_composition()
    travel_comp = travel.travel_composition()
    chain = synthetic.relay_chain(1)
    eco_cands = {"p": ("widget",), "card": ("visa", "amex")}
    travel_cands = {"f": ("fl1",), "d": ("rome",), "r": ("rm1",)}
    return [
        ("sr-safety", sr_comp, sr_dbs,
         "forall x: G( R.got(x) -> S.items(x) )", None, True),
        ("sr-liveness", sr_comp, sr_dbs,
         "forall x: G( S.pick(x) -> F R.got(x) )", None, False),
        ("loan-letter", loan_comp, loan.standard_database("fair"),
         loan.PROPERTY_LETTER_NEEDS_APPLICATION,
         loan.STANDARD_CANDIDATES, True),
        ("loan-buggy", loan_buggy, loan.standard_database("poor"),
         loan.PROPERTY_BANK_POLICY_POINTWISE,
         loan.STANDARD_CANDIDATES, False),
        ("ecommerce-auth", eco_comp, ecommerce.standard_database("good"),
         ecommerce.PROPERTY_SHIP_REQUIRES_AUTH, eco_cands, True),
        ("ecommerce-resolved", eco_comp,
         ecommerce.standard_database("good"),
         ecommerce.PROPERTY_ORDER_RESOLVED, eco_cands, False),
        ("travel-itinerary", travel_comp, travel.standard_database(),
         travel.PROPERTY_ITINERARY_CONFIRMED, travel_cands, True),
        ("travel-booking", travel_comp, travel.standard_database(),
         travel.PROPERTY_BOOKING_CONFIRMED, travel_cands, False),
        ("chain-safety", chain, synthetic.chain_databases(1),
         synthetic.chain_safety_property(1), None, True),
        ("chain-liveness", chain, synthetic.chain_databases(1),
         synthetic.chain_liveness_property(1), None, False),
    ]


CASES = _cases()


def run_differential(comp, dbs, prop, candidates, expected):
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    seed = verify_seed(comp, prop, dbs, domain=dom,
                       valuation_candidates=candidates)
    shared = verify(comp, prop, dbs, domain=dom,
                    valuation_candidates=candidates, workers=1)
    assert seed.satisfied == expected, seed.summary()
    assert shared.satisfied == seed.satisfied, (
        f"verdict diverged: seed={seed.verdict} shared={shared.verdict}"
    )
    assert shared.stats.valuations_checked == seed.stats.valuations_checked
    assert shared.stats.product_nodes_visited == \
        seed.stats.product_nodes_visited, (
            "nodes_visited diverged: "
            f"seed={seed.stats.product_nodes_visited} "
            f"shared={shared.stats.product_nodes_visited}"
        )
    if expected:
        assert seed.counterexample is None
        assert shared.counterexample is None
        return
    assert seed.counterexample is not None
    assert shared.counterexample is not None
    assert shared.counterexample.valuation == seed.counterexample.valuation
    assert shared.counterexample.lasso.prefix == \
        seed.counterexample.lasso.prefix
    assert shared.counterexample.lasso.cycle == \
        seed.counterexample.lasso.cycle
    problems = validate_lasso(comp, dbs, dom.values,
                              shared.counterexample.lasso,
                              semantics=DECIDABLE_DEFAULT)
    assert not problems, problems


@pytest.mark.parametrize(
    "label,comp,dbs,prop,candidates,expected",
    CASES, ids=[c[0] for c in CASES],
)
def test_engines_agree(label, comp, dbs, prop, candidates, expected):
    run_differential(comp, dbs, prop, candidates, expected)


def _class_cases():
    """(label, composition, databases, property, candidates): E14's
    sweep, then every property of loan, payments and dispatch."""
    loan_comp, loan_dbs = loan.loan_composition(), loan.standard_database(
        "fair")
    cases = [("e14-sweep", loan_comp, loan_dbs,
              loan.PROPERTY_LETTER_NEEDS_APPLICATION, WIDE_CANDIDATES)]
    for module, composition, databases in (
            (loan, loan_comp, loan_dbs),
            (payments, payments.payments_composition(),
             payments.standard_database()),
            (dispatch, dispatch.dispatch_composition(),
             dispatch.standard_database())):
        name = module.__name__.rsplit(".", 1)[1]
        for constant in sorted(vars(module)):
            # RECORDED_CATEGORIES_KNOWN is the credit-check composition's
            if (constant.startswith("PROPERTY_")
                    and constant != "PROPERTY_RECORDED_CATEGORIES_KNOWN"):
                cases.append((f"{name}-{constant[9:].lower()}", composition,
                              databases, getattr(module, constant),
                              module.STANDARD_CANDIDATES))
    return cases


CLASS_CASES = _class_cases()


def _verify_counting_searches(verifier, comp, dbs, prop, candidates):
    """The result of *verifier* and the ``search.runs`` it added."""
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    before = counters_snapshot().get("search.runs", 0)
    result = verifier(comp, prop, dbs, domain=dom,
                      valuation_candidates=candidates)
    return result, counters_snapshot()["search.runs"] - before


@pytest.mark.parametrize(
    "label,comp,dbs,prop,candidates",
    CLASS_CASES, ids=[c[0] for c in CLASS_CASES],
)
def test_class_sweep_matches_per_valuation_sweep(label, comp, dbs, prop,
                                                 candidates):
    seed, seed_runs = _verify_counting_searches(verify_seed, comp, dbs,
                                                prop, candidates)
    shared, shared_runs = _verify_counting_searches(verify, comp, dbs,
                                                    prop, candidates)
    assert shared.verdict == seed.verdict
    for field in ("decisive_order", "valuations_checked",
                  "product_nodes_visited", "nba_states_total"):
        assert getattr(shared.stats, field) == getattr(seed.stats, field), \
            field
    if seed.counterexample is None:
        assert shared.counterexample is None
    else:
        assert shared.counterexample.valuation == \
            seed.counterexample.valuation
        assert shared.counterexample.lasso == seed.counterexample.lasso
    # the reference searches every valuation; classes count searches run
    assert seed.stats.valuation_classes == seed_runs == \
        seed.stats.valuations_checked
    assert shared.stats.valuation_classes == shared_runs
    if label == "e14-sweep":
        # the lazily searched first valuation is filed under the one class
        assert shared.stats.valuation_classes == 1


SR_PROPERTIES = [
    "forall x: G( R.got(x) -> S.items(x) )",
    "forall x: G( S.pick(x) -> F R.got(x) )",
    "G( ~R.empty_msg -> F R.empty_msg )",
    "G R.empty_msg",
]


class TestHypothesisDifferential:
    """Random databases and properties: the engines must never diverge."""

    @settings(max_examples=12, deadline=None)
    @given(
        rows=st.sets(
            st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3
        ),
        prop_idx=st.integers(min_value=0, max_value=len(SR_PROPERTIES) - 1),
    )
    def test_random_database_and_property(self, rows, prop_idx):
        comp, _ = sender_receiver_case()
        dbs = {"S": Instance({"items": [(v,) for v in sorted(rows)]})}
        prop = SR_PROPERTIES[prop_idx]
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        seed = verify_seed(comp, prop, dbs, domain=dom)
        shared = verify(comp, prop, dbs, domain=dom)
        assert shared.satisfied == seed.satisfied
        assert shared.stats.product_nodes_visited == \
            seed.stats.product_nodes_visited
        if seed.counterexample is not None:
            assert shared.counterexample.valuation == \
                seed.counterexample.valuation
            assert shared.counterexample.lasso.cycle == \
                seed.counterexample.lasso.cycle

    @settings(max_examples=6, deadline=None)
    @given(relays=st.integers(min_value=0, max_value=2))
    def test_random_synthetic_chain(self, relays):
        comp = synthetic.relay_chain(relays)
        dbs = synthetic.chain_databases(relays)
        for prop in (synthetic.chain_safety_property(relays),
                     synthetic.chain_liveness_property(relays)):
            dom = verification_domain(comp, [], dbs, fresh_count=1)
            seed = verify_seed(comp, prop, dbs, domain=dom)
            shared = verify(comp, prop, dbs, domain=dom)
            assert shared.satisfied == seed.satisfied
            assert shared.stats.product_nodes_visited == \
                seed.stats.product_nodes_visited


class TestGraphMachinery:
    """Unit tests for the interner / memoized-graph substrate."""

    def _exploration(self, rows=(("a",), ("b",))):
        comp, dbs = sender_receiver_case(rows)
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        return comp, SharedExploration(comp, dbs, dom.values,
                                       DECIDABLE_DEFAULT)

    def test_interning_is_stable(self):
        _, engine = self._exploration()
        roots = engine.initial()
        for sid in roots:
            state = engine.interner.state_of(sid)
            assert engine.interner.intern(state) == sid

    def test_completed_rows_match_lazy(self):
        comp, engine = self._exploration()
        # force some lazy exploration first
        lazy = {sid: engine.successors_of(sid) for sid in engine.initial()}
        assert engine.complete()
        for sid, row in lazy.items():
            assert engine.successors_of(sid) == row
        # every row is the reference's successor list, interned in order
        reference = SnapshotExploration(comp, engine.databases,
                                        engine.domain, DECIDABLE_DEFAULT)
        assert tuple(map(engine.state_of, engine.initial())) == \
            reference.initial()
        for sid in range(len(engine.interner)):
            row = engine.successors_of(sid)
            assert tuple(map(engine.state_of, row)) == \
                reference.successors_of(engine.state_of(sid))

    def test_complete_is_idempotent(self):
        _, engine = self._exploration()
        assert engine.complete()
        expanded, rows = engine.states_expanded, dict(engine._succ)
        assert engine.complete()
        assert engine.states_expanded == expanded == len(engine.interner)
        assert engine._succ == rows

    def test_sweep_searches_every_valuation_when_completion_overruns(self):
        """The negated tautology blocks at the initial letter, so the
        first valuation's lazy search expands nothing and the run stays
        within a one-state budget; completing the graph overruns it, and
        the sweep then searches every valuation instead of classes."""
        from repro.verifier import SearchBudget
        comp, dbs = sender_receiver_case()
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        prop = "forall x: S.items(x) | ~S.items(x)"
        unbounded = verify(comp, prop, dbs, domain=dom)
        bounded = verify(comp, prop, dbs, domain=dom,
                         budget=SearchBudget(max_system_states=1))
        assert unbounded.satisfied and bounded.satisfied
        assert bounded.stats.valuations_checked == \
            unbounded.stats.valuations_checked > 2
        assert unbounded.stats.valuation_classes < \
            unbounded.stats.valuations_checked
        assert bounded.stats.valuation_classes == \
            bounded.stats.valuations_checked

    def test_complete_budget_fallback(self):
        from repro.errors import VerificationError
        from repro.verifier import SearchBudget
        comp, dbs = sender_receiver_case()
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        engine = SharedExploration(comp, dbs, dom.values, DECIDABLE_DEFAULT,
                                   budget=SearchBudget(max_system_states=3))
        assert engine.complete(strict=False) is False
        with pytest.raises(VerificationError):
            engine.complete(strict=True)


SRC = Path(__file__).resolve().parents[1] / "src"

#: Run by a fresh interpreter: what ``python -m repro verify`` loads.
_CLI_PROBE = """
import sys
import repro.cli
assert "repro.fuzz.seed_engine" not in sys.modules
"""


def test_the_reference_stays_out_of_the_verifier():
    """The CLI does not load the reference engine, and no module of
    ``repro`` outside ``repro.fuzz`` imports it, so a second engine can
    grow back neither into production nor into the CLI's import cost."""
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _CLI_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr

    importers = []
    for module in sorted((SRC / "repro").rglob("*.py")):
        if module.relative_to(SRC / "repro").parts[0] == "fuzz":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "",
                         *(alias.name for alias in node.names)]
            else:
                continue
            if any("seed_engine" in name for name in names):
                importers.append(str(module.relative_to(SRC)))
    assert importers == []
