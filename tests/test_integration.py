"""Cross-module integration tests: whole-pipeline sanity and consistency
properties that cut across the runtime, the verifier and the protocols."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.fuzz.seed_engine import SnapshotEvaluator
from repro.ltl import evaluate_on_word, lnot
from repro.ltlfo import parse_ltlfo
from repro.protocols import AgnosticProtocol, trace_of, verify_agnostic
from repro.runtime import reachable_states, simulate, snapshot_view
from repro.spec import (
    ChannelSemantics, DECIDABLE_DEFAULT, PERFECT_BOUNDED,
)
from repro.errors import VerificationError
from repro.obs import counters_snapshot
from repro.verifier import (
    SharedExploration, decode_letter, property_engines,
    verification_domain, verify,
)

DB = {"S": Instance({"items": [("a",)]})}
DOMAIN = ("a", "$f")


class TestVerifierVsSimulation:
    """Any simulated run must satisfy every verified property."""

    def test_verified_invariant_holds_on_random_runs(self, sender_receiver):
        prop = parse_ltlfo("forall x: G( R.got(x) -> S.items(x) )",
                           sender_receiver.schema)
        result = verify(sender_receiver, prop, DB)
        assert result.satisfied
        dom = verification_domain(sender_receiver, [prop], DB)
        payload = prop.fo_payloads()
        for seed in range(5):
            trace = simulate(sender_receiver, DB, dom.values, steps=15,
                             seed=seed)
            from repro.fo import evaluate
            for state in trace:
                view = snapshot_view(state, sender_receiver)
                for row in view["R.got"]:
                    assert row in view["S.items"]

    def test_counterexample_violates_on_word_level(self, sender_receiver):
        sentence = parse_ltlfo("forall x: G( S.pick(x) -> F R.got(x) )",
                               sender_receiver.schema)
        result = verify(sender_receiver, sentence, DB)
        assert not result.satisfied
        cex = result.counterexample
        from repro.fo.terms import Var
        valuation = {Var(k): v for k, v in cex.valuation.items()}
        body = sentence.instantiate(valuation)
        dom = verification_domain(sender_receiver, [sentence], DB)
        evaluator = SnapshotEvaluator(
            sender_receiver, dom.values,
            frozenset(a for a in _payloads(body)),
        )
        prefix = [decode_letter(evaluator.bits, evaluator.letter(s))
                  for s in cex.lasso.prefix]
        cycle = [decode_letter(evaluator.bits, evaluator.letter(s))
                 for s in cex.lasso.cycle]
        assert evaluate_on_word(lnot(body), prefix, cycle)


def _payloads(body):
    from repro.ltl import LAtom, lwalk
    return {n.ap for n in lwalk(body) if isinstance(n, LAtom)}


class TestSemanticsMonotonicity:
    def test_perfect_reachable_subset_of_lossy(self, sender_receiver):
        lossy = reachable_states(sender_receiver, DB, DOMAIN,
                                 semantics=DECIDABLE_DEFAULT)
        perfect = reachable_states(sender_receiver, DB, DOMAIN,
                                   semantics=PERFECT_BOUNDED)
        assert perfect <= lossy

    def test_bigger_queue_bound_superset(self, sender_receiver):
        k1 = reachable_states(
            sender_receiver, DB, DOMAIN,
            semantics=ChannelSemantics(lossy=False, queue_bound=1),
        )
        k2 = reachable_states(
            sender_receiver, DB, DOMAIN,
            semantics=ChannelSemantics(lossy=False, queue_bound=2),
        )
        # every 1-bounded state is also 2-bounded reachable
        assert len(k2) >= len(k1)


class TestProtocolVsLtlfoConsistency:
    def test_agnostic_protocol_matches_ltlfo_on_loan(self):
        """The agnostic G(getRating -> F rating) protocol of Example 4.1
        fails under lossy channels, like its LTL-FO counterpart."""
        from repro.library.loan import loan_composition, standard_database
        comp = loan_composition()
        dbs = standard_database("fair")
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        protocol = AgnosticProtocol.from_ltl("G( getRating -> F rating )")
        r = verify_agnostic(comp, protocol, dbs, domain=dom)
        assert not r.satisfied
        prefix, cycle = trace_of(r.counterexample.lasso, protocol)
        assert evaluate_on_word(lnot(protocol.ltl), prefix, cycle)

    def test_agnostic_protocol_holds_perfect_gated(self):
        """Under perfect channels the loan composition answers every
        rating request (the gated applicant applies once)."""
        from repro.library.loan import loan_composition, standard_database
        comp = loan_composition()
        dbs = standard_database("excellent")
        dom = verification_domain(comp, [], dbs, fresh_count=1)
        protocol = AgnosticProtocol.from_ltl(
            "G( rating -> (~rating U getRating) | F getRating ) | G ~rating"
        )
        # weaker sanity protocol: a rating is only ever enqueued after
        # some getRating was enqueued first
        protocol = AgnosticProtocol.from_ltl("(~rating U getRating) | G ~rating")
        r = verify_agnostic(comp, protocol, dbs, domain=dom,
                            semantics=PERFECT_BOUNDED)
        assert r.satisfied


class TestSuppliedExploration:
    """``verify(exploration=...)`` walks the caller's exploration, and
    refuses one built for other inputs."""

    def test_exploration_reused_across_properties(self, sender_receiver):
        """The first property explores the graph; the second, over the
        same exploration, expands no state."""
        dom = verification_domain(sender_receiver, [], DB)
        exploration = SharedExploration(sender_receiver, DB, dom.values,
                                        DECIDABLE_DEFAULT)
        expanded = []
        for prop in ("G true", "forall x: G( R.got(x) -> S.items(x) )"):
            before = counters_snapshot().get("product.states_expanded", 0)
            assert verify(sender_receiver, prop, DB, domain=dom,
                          exploration=exploration).satisfied
            expanded.append(
                counters_snapshot()["product.states_expanded"] - before)
        assert expanded == [exploration.states_expanded, 0]
        assert expanded[0] > 0

    def test_refuses_exploration_built_for_other_semantics(
            self, sender_receiver):
        sentence = parse_ltlfo("forall x: G( S.pick(x) -> F R.got(x) )",
                               sender_receiver.schema)
        dom = verification_domain(sender_receiver, [sentence], DB)
        perfect = verify(sender_receiver, sentence, DB,
                         semantics=PERFECT_BOUNDED, domain=dom,
                         fair_scheduling=True)
        assert perfect.satisfied
        [(_dom, lossy)] = property_engines(
            sender_receiver, [sentence], DB, DECIDABLE_DEFAULT, dom)
        with pytest.raises(VerificationError, match="semantics"):
            verify(sender_receiver, sentence, DB,
                   semantics=PERFECT_BOUNDED, domain=dom,
                   fair_scheduling=True, exploration=lossy)

    def test_refuses_exploration_built_for_other_domain(
            self, sender_receiver):
        prop = "forall x: G( R.got(x) -> S.items(x) )"
        two = verification_domain(sender_receiver, [], DB, fresh_count=2)
        three = verification_domain(sender_receiver, [], DB, fresh_count=3)
        [(_dom, exploration)] = property_engines(
            sender_receiver, [parse_ltlfo(prop, sender_receiver.schema)],
            DB, domain=two)
        with pytest.raises(VerificationError, match="domain values"):
            verify(sender_receiver, prop, DB, domain=three,
                   exploration=exploration)


class TestProcedureStats:
    """Protocol and modular results carry the statistics verify() does."""

    @staticmethod
    def _assert_sweep_stats(result, valuations):
        assert not result.satisfied
        stats = result.stats
        assert stats.phase_seconds.get("search", 0) > 0
        cache = stats.rule_cache
        assert cache.get("hits", 0) + cache.get("misses", 0) > 0
        # the decisive valuation's index in the sweep order
        by_name = [{var.name: value for var, value in valuation.items()}
                   for valuation in valuations]
        assert stats.decisive_order == by_name.index(
            result.counterexample.valuation)

    def test_aware_and_modular_results(self, sender_receiver, open_relay):
        from repro.fo import parse_fo
        from repro.ltl import latom, lglobally
        from repro.protocols import DataAwareProtocol, verify_aware
        from repro.verifier import canonical_valuations, verify_modular
        from repro.verifier.domain import VerificationDomain

        dbs = {"S": Instance({"items": [("a",), ("b",)]})}
        domain = verification_domain(sender_receiver, [], dbs)
        # only a message other than "a" violates: not the first valuation
        protocol = DataAwareProtocol(
            symbols={"m": parse_fo('S.msg(x) & ~(x = "a")',
                                   sender_receiver.schema)},
            ltl=lglobally(lnot(latom("m"))),
        )
        aware = verify_aware(sender_receiver, protocol, dbs, domain=domain)
        valuations = canonical_valuations(protocol.free_variables(), domain)
        self._assert_sweep_stats(aware, valuations)
        assert aware.stats.decisive_order > 0

        prop = parse_ltlfo('forall x: G( P1.seen(x) -> x = "a" )',
                           open_relay.schema)
        relay_domain = VerificationDomain(("a",), ("$f0",))
        modular = verify_modular(
            open_relay, prop, "G forall x: ?outbound(x) -> !inbound(x)",
            {"P0": Instance({"items": [("a",)]})}, domain=relay_domain,
            observer="recipient", valuation_candidates={"x": ("a", "$f0")})
        valuations = [
            v for v in canonical_valuations(prop.variables, relay_domain)
            if all(value in ("a", "$f0") for value in v.values())]
        self._assert_sweep_stats(modular, valuations)
        assert modular.stats.decisive_order > 0
