"""Tests for conversation protocols (Section 4)."""

import pytest

from repro.errors import FormulaError, SpecificationError
from repro.fo import Instance, Var, atom, parse_fo
from repro.ltl import BuchiAutomaton, Edge, Guard
from repro.protocols import (
    AgnosticProtocol, DataAwareProtocol, Observer, guards_from_formula,
    protocol_automaton, trace_of, verify_agnostic, verify_aware,
)
from repro.spec import (
    Composition, DECIDABLE_DEFAULT, PERFECT_BOUNDED, PeerBuilder,
)

DB = {"S": Instance({"items": [("a",)]})}


def ack_chain():
    """S --msg--> R --ack--> T, with R acking every received msg."""
    sender = (
        PeerBuilder("S")
        .database("items", 1).input("pick", 1)
        .flat_out_queue("msg", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("msg", ["x"], "pick(x)")
        .build()
    )
    relay = (
        PeerBuilder("R")
        .flat_in_queue("msg", 1).flat_out_queue("ack", 1)
        .send_rule("ack", ["x"], "?msg(x)")
        .build()
    )
    sink = (
        PeerBuilder("T")
        .flat_in_queue("ack", 1).state("done", 1)
        .insert_rule("done", ["x"], "?ack(x)")
        .build()
    )
    return Composition([sender, relay, sink])


class TestAgnosticConstruction:
    def test_from_ltl(self):
        p = AgnosticProtocol.from_ltl("G( msg -> F ack )")
        assert p.alphabet == frozenset({"msg", "ack"})

    def test_requires_exactly_one_spec(self):
        with pytest.raises(SpecificationError):
            AgnosticProtocol(alphabet=frozenset({"a"}))

    def test_ltl_with_variables_rejected(self):
        with pytest.raises(FormulaError):
            AgnosticProtocol.from_ltl("G msg(x)")

    def test_alphabet_must_cover_formula(self):
        with pytest.raises(SpecificationError):
            AgnosticProtocol.from_ltl("G msg", alphabet=frozenset({"ack"}))

    def test_letter_of_recipient_vs_source(self, sender_receiver,
                                           sender_receiver_db):
        from repro.runtime import initial_states, peer_successors
        st = initial_states(sender_receiver, sender_receiver_db, ("a",))
        sending = [
            s for s in st if s.data["S.pick"] == frozenset({("a",)})
        ][0]
        succ = peer_successors(sender_receiver, sending, "S", ("a",),
                               DECIDABLE_DEFAULT)
        dropped = [s for s in succ if "msg" in s.sent
                   and "msg" not in s.enqueued][0]
        recipient = AgnosticProtocol.from_ltl(
            "G ~msg", observer=Observer.RECIPIENT)
        source = AgnosticProtocol.from_ltl(
            "G ~msg", observer=Observer.SOURCE)
        assert recipient.letter_of(dropped) == frozenset()
        assert source.letter_of(dropped) == frozenset({"msg"})


class TestAgnosticVerification:
    def test_no_ack_before_msg_holds(self):
        comp = ack_chain()
        p = AgnosticProtocol.from_ltl("(~ack U msg) | G ~ack")
        r = verify_agnostic(comp, p, DB)
        assert r.satisfied

    def test_msg_eventually_acked_fails_lossy(self):
        comp = ack_chain()
        p = AgnosticProtocol.from_ltl("G( msg -> F ack )")
        r = verify_agnostic(comp, p, DB)
        assert not r.satisfied
        assert r.counterexample is not None

    def test_trace_of_counterexample_violates_protocol(self):
        from repro.ltl import evaluate_on_word, lnot
        comp = ack_chain()
        p = AgnosticProtocol.from_ltl("G( msg -> F ack )")
        r = verify_agnostic(comp, p, DB)
        prefix, cycle = trace_of(r.counterexample.lasso, p)
        assert evaluate_on_word(lnot(p.ltl), prefix, cycle)

    def test_buchi_given_protocol(self):
        # deterministic automaton for "no ack ever" -- violated
        auto = BuchiAutomaton(
            states={0}, initial={0},
            edges=[Edge(0, Guard(neg=frozenset({"ack"})), 0)],
            accepting={0}, aps={"ack"},
        )
        comp = ack_chain()
        p = AgnosticProtocol.from_buchi(auto)
        r = verify_agnostic(comp, p, DB, semantics=PERFECT_BOUNDED)
        assert not r.satisfied

    def test_unknown_channel_rejected(self):
        comp = ack_chain()
        p = AgnosticProtocol.from_ltl("G nosuch")
        with pytest.raises(Exception):
            verify_agnostic(comp, p, DB)

    def test_observer_at_source_detects_lost_sends(self):
        comp = ack_chain()
        # every send into msg is observed at the source, even if dropped:
        # under the source semantics 'G ~msg' is violated by any send
        p_src = AgnosticProtocol.from_ltl("G ~msg", observer=Observer.SOURCE)
        r = verify_agnostic(comp, p_src, DB)
        assert not r.satisfied


class TestDataAware:
    def test_symbols_checked(self):
        from repro.ltl import latom
        with pytest.raises(SpecificationError):
            DataAwareProtocol(symbols={}, ltl=latom("sigma"))

    def test_aware_protocol_holds(self):
        from repro.ltl import latom, lglobally, lnot
        comp = ack_chain()
        # messages never carry the content "zz" (not in the database)
        protocol = DataAwareProtocol(
            symbols={"bad_msg": parse_fo('S.msg("zz")', comp.schema)},
            ltl=lglobally(lnot(latom("bad_msg"))),
        )
        r = verify_aware(comp, protocol, DB)
        assert r.satisfied

    def test_aware_protocol_with_free_variables(self):
        from repro.ltl import latom, lfinally, lglobally, limplies
        comp = ack_chain()
        # every message content x is eventually acked with x: fails lossy
        protocol = DataAwareProtocol(
            symbols={
                "m": parse_fo("S.msg(x)", comp.schema),
                "k": parse_fo("R.ack(x)", comp.schema),
            },
            ltl=lglobally(limplies(latom("m"), lfinally(latom("k")))),
        )
        r = verify_aware(comp, protocol, DB)
        assert not r.satisfied
        assert r.counterexample.valuation == {"x": "a"}

    def test_aware_protocol_via_buchi_automaton(self):
        comp = ack_chain()
        # deterministic automaton: bad_msg never appears
        auto = BuchiAutomaton(
            states={0}, initial={0},
            edges=[Edge(0, Guard(neg=frozenset({"bad_msg"})), 0)],
            accepting={0}, aps={"bad_msg"},
        )
        protocol = DataAwareProtocol(
            symbols={"bad_msg": parse_fo('S.msg("zz")', comp.schema)},
            automaton=auto,
        )
        r = verify_aware(comp, protocol, DB, semantics=PERFECT_BOUNDED)
        assert r.satisfied

    def test_valuations_share_searches_by_letter_class(self):
        """E8's per-ssn protocol checks twelve valuations of ``s`` over
        loan's completed graph, but searches once per letter class."""
        from repro.obs import counters_snapshot

        from .test_expansion_golden import per_ssn_request_answered
        composition, databases, domain, protocol = \
            per_ssn_request_answered()
        before = counters_snapshot().get("search.runs", 0)
        r = verify_aware(composition, protocol, databases, domain=domain)
        searches = counters_snapshot()["search.runs"] - before
        assert r.counterexample.valuation == {"s": "s1"}
        assert searches == r.stats.valuation_classes == 2
        assert r.stats.valuations_checked == 12


class TestGuardExpansion:
    def test_guards_from_formula(self):
        f = parse_fo("a | ~b")
        guards = guards_from_formula(f, frozenset({"a", "b"}))
        sat = set()
        for letter in [frozenset(), frozenset({"a"}), frozenset({"b"}),
                       frozenset({"a", "b"})]:
            if any(g.satisfied(letter) for g in guards):
                sat.add(letter)
        assert sat == {frozenset(), frozenset({"a"}),
                       frozenset({"a", "b"})}

    def test_protocol_automaton_builder(self):
        auto = protocol_automaton(
            states={0, 1}, initial={0},
            transitions=[
                (0, "~req", 0), (0, "req", 1),
                (1, "rep", 0), (1, "~rep", 1),
            ],
            accepting={0},
            alphabet=frozenset({"req", "rep"}),
        )
        REQ, REP = frozenset({"req"}), frozenset({"rep"})
        assert auto.accepts_lasso([], [REQ, REP])
        assert not auto.accepts_lasso([REQ], [frozenset()])
