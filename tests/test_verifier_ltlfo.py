"""End-to-end tests of the LTL-FO verifier (Theorem 3.4's procedure)."""

import pytest

from repro.errors import InputBoundednessError, VerificationError
from repro.fo import Instance
from repro.spec import (
    ChannelSemantics, Composition, DECIDABLE_DEFAULT, PERFECT_BOUNDED,
    PeerBuilder,
)
from repro.verifier import (
    SearchBudget, verify, verify_all,
    verify_over_databases,
)

DB = {"S": Instance({"items": [("a",)]})}


class TestBasicVerdicts:
    def test_safety_holds(self, sender_receiver):
        r = verify(sender_receiver,
                   "forall x: G( R.got(x) -> S.items(x) )", DB)
        assert r.satisfied
        assert r.counterexample is None
        assert "SATISFIED" in r.summary()

    def test_liveness_fails_under_lossy(self, sender_receiver):
        r = verify(sender_receiver,
                   "forall x: G( S.pick(x) -> F R.got(x) )", DB)
        assert not r.satisfied
        assert r.counterexample is not None
        assert r.counterexample.valuation == {"x": "a"}

    def test_result_is_truthy_iff_satisfied(self, sender_receiver):
        good = verify(sender_receiver, "G true", DB)
        assert bool(good)

    def test_false_property(self, sender_receiver):
        r = verify(sender_receiver, "F false", DB)
        assert not r.satisfied


class TestCounterexamples:
    def test_counterexample_is_a_real_run(self, sender_receiver):
        from repro.runtime import successors
        from repro.verifier import verification_domain
        dom = verification_domain(sender_receiver, [], DB)
        r = verify(sender_receiver,
                   "forall x: G( S.pick(x) -> F R.got(x) )", DB,
                   domain=dom)
        lasso = r.counterexample.lasso
        states = lasso.states()
        # every consecutive pair is a legal transition
        for i in range(len(states) - 1):
            nxt = successors(sender_receiver, states[i], dom.values,
                             DECIDABLE_DEFAULT)
            assert states[i + 1] in nxt
        # and the cycle closes
        closing = successors(sender_receiver, states[-1], dom.values,
                             DECIDABLE_DEFAULT)
        assert lasso.cycle[0] in closing

    def test_counterexample_describe(self, sender_receiver):
        r = verify(sender_receiver,
                   "forall x: G( S.pick(x) -> F R.got(x) )", DB)
        text = r.counterexample.describe(sender_receiver)
        assert "counterexample" in text
        assert "step 0" in text


class TestDomainRestriction:
    def test_occurs_restriction_excludes_phantom_valuations(
            self, sender_receiver):
        # 'F ~R.got(x)' is trivially violated ONLY with x in Dom(rho);
        # for fresh x never occurring, the occurs-constraint blocks the
        # counterexample, so only x="a" (which can occur) is reported
        r = verify(sender_receiver, "forall x: G R.got(x)", DB)
        assert not r.satisfied
        assert r.counterexample.valuation["x"] == "a"

    def test_valuation_candidates_prune(self, sender_receiver):
        r = verify(sender_receiver,
                   "forall x: G( R.got(x) -> S.items(x) )", DB,
                   valuation_candidates={"x": ("a",)})
        assert r.stats.valuations_checked == 1


class TestConfigurationGuards:
    def test_unbounded_queues_rejected(self, sender_receiver):
        with pytest.raises(VerificationError):
            verify(sender_receiver, "G true", DB,
                   semantics=ChannelSemantics(queue_bound=None))

    def test_input_boundedness_enforced(self):
        peer = (
            PeerBuilder("P")
            .database("d", 1).state("s", 1).action("out", 1)
            .insert_rule("s", ["x"], "d(x)")
            .action_rule("out", ["x"], "exists y: s(y) & d(x)")
            .build()
        )
        comp = Composition([peer])
        with pytest.raises(InputBoundednessError):
            verify(comp, "G true", {"P": Instance({"d": [("a",)]})})

    def test_check_can_be_disabled(self):
        peer = (
            PeerBuilder("P")
            .database("d", 1).state("s", 1).action("out", 1)
            .insert_rule("s", ["x"], "d(x)")
            .action_rule("out", ["x"], "exists y: s(y) & d(x)")
            .build()
        )
        comp = Composition([peer])
        r = verify(comp, "G true", {"P": Instance({"d": [("a",)]})},
                   check_input_bounded=False)
        assert r.satisfied

    def test_budget_enforced(self, sender_receiver):
        with pytest.raises(VerificationError):
            verify(sender_receiver, "G true", DB,
                   budget=SearchBudget(max_system_states=1,
                                       max_product_nodes=2))


class TestSemanticsComparison:
    def test_perfect_channels_strengthen_guarantees(self, sender_receiver):
        # under perfect channels, a sent message is enqueued: whenever S
        # just sent (S.msg reads the last message), R's queue is nonempty
        prop = "forall x: G( S.!msg(x) -> ~R.empty_msg )"
        perfect = verify(sender_receiver, prop, DB,
                         semantics=PERFECT_BOUNDED)
        assert perfect.satisfied
        lossy = verify(sender_receiver, prop, DB,
                       semantics=DECIDABLE_DEFAULT)
        # under lossy semantics the message may never have been enqueued
        # ... but S.!msg reads the queue itself, so it is empty too; use
        # the sent-flag-free observable: the property still holds.
        assert lossy.satisfied


class TestFairScheduling:
    def test_liveness_holds_under_perfect_fair(self, sender_receiver):
        prop = "forall x: G( S.pick(x) -> F R.got(x) )"
        r = verify(sender_receiver, prop, DB, semantics=PERFECT_BOUNDED,
                   fair_scheduling=True)
        assert r.satisfied

    def test_liveness_fails_under_lossy_even_fair(self, sender_receiver):
        prop = "forall x: G( S.pick(x) -> F R.got(x) )"
        r = verify(sender_receiver, prop, DB, fair_scheduling=True)
        assert not r.satisfied

    def test_fair_counterexample_moves_every_peer(self, sender_receiver):
        prop = "forall x: G( S.pick(x) -> F R.got(x) )"
        r = verify(sender_receiver, prop, DB, fair_scheduling=True)
        cycle_movers = {s.mover for s in r.counterexample.lasso.cycle}
        assert {"S", "R"} <= cycle_movers


class TestVerifyAll:
    def test_shared_cache(self, sender_receiver):
        results = verify_all(
            sender_receiver,
            ["forall x: G( R.got(x) -> S.items(x) )", "G true"],
            DB,
        )
        assert [bool(r) for r in results] == [True, True]


class TestVerifyOverDatabases:
    def test_holds_over_all_databases(self, sender_receiver):
        result = verify_over_databases(
            sender_receiver,
            "forall x: G( R.got(x) -> S.items(x) )",
            {"S": {"items": 1}}, ("a", "b"), max_rows=2,
        )
        assert result.satisfied

    def test_finds_witness_database(self, sender_receiver):
        # 'nothing is ever delivered' fails as soon as some database
        # offers an item to pick
        result = verify_over_databases(
            sender_receiver,
            "forall x: G( ~R.got(x) )",
            {"S": {"items": 1}}, ("a",), max_rows=1,
        )
        assert not result.satisfied

    def test_empty_database_only(self, sender_receiver):
        result = verify_over_databases(
            sender_receiver,
            "forall x: G( ~R.got(x) )",
            {"S": {"items": 1}}, ("a",), max_rows=0,
        )
        assert result.satisfied  # nothing to pick, nothing delivered


class TestMultiplePeersOrdering:
    def test_three_peer_chain(self):
        from repro.library.synthetic import (
            chain_databases, chain_safety_property, relay_chain,
        )
        comp = relay_chain(1)
        r = verify(comp, chain_safety_property(1), chain_databases(1))
        assert r.satisfied

    def test_chain_liveness_fails_lossy(self):
        from repro.library.synthetic import (
            chain_databases, chain_liveness_property, relay_chain,
        )
        comp = relay_chain(1)
        r = verify(comp, chain_liveness_property(1), chain_databases(1))
        assert not r.satisfied
