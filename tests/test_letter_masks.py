"""Letters as bitmasks, pinned independently of the golden digests.

The product search reads each node's letter as an int over its
evaluator's bit table and tests compiled ``(pos_mask, neg_mask, dst)``
rows instead of :class:`~repro.ltl.buchi.Guard` objects.  Two checks
keep that encoding honest:

* the compiled product picks, for every automaton state and every
  letter of the alphabet, the same destinations in the same order as
  ``Guard.satisfied`` does, and agrees on initial and accepting states;
* on completed library graphs the shared engine's letters, whose FO
  truths are memoised across valuations on ``(template id, values,
  extension id)``, decode to the same AP sets as the seed evaluator's
  (a closed formula is a template with no values).  A key collision
  that flips no verdict would pass the digests but not this;
* the letter classes a sweep searches once each, read off the units'
  bindings (``SharedSnapshotContext.signature``), are exactly the
  classes of valuations whose seed letters agree on every state of the
  graph, checked against the seed evaluator, not the signature code;
* the bindings ``sentence_unit`` and ``aware_unit`` build, each payload
  template with the valuation whose values the shared truths are keyed
  on, read the letters the reference evaluator reads on the formulas
  instantiated from the sentence or protocol directly.  Values bound to
  the wrong free variable pass the automaton-AP cases above, not this;
* a sweep builds a letter evaluator only for the searches it runs.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.errors import FormulaError
from repro.fo import formulas
from repro.fo.formulas import instantiate
from repro.fo.terms import Var
from repro.library import dispatch, loan, payments
from repro.fuzz.seed_engine import SnapshotEvaluator
from repro.ltl import (
    BuchiAutomaton, Edge, Guard, land, latom, lfinally, lglobally,
    limplies, lnot, ltl_to_buchi,
)
from repro.ltlfo.parser import parse_ltlfo
from repro.protocols.verify import aware_unit, verify_aware
from repro.spec import DECIDABLE_DEFAULT
from repro.spec.dsl import load_document
from repro.verifier import (
    InternedSnapshotEvaluator, OccursAtom, ProductSystem, SharedExploration,
    bit_table, canonical_valuations, decode_letter, property_engines,
    verification_domain, verify,
)
from repro.verifier.atoms import BoundTemplate, PayloadAtom
from repro.verifier.ltlfo_verifier import (
    letter_class, occurs_terms, sentence_unit,
)

from .test_expansion_golden import per_ssn_request_answered
from .test_ltl_translate import _ltl

AUCTION = Path(__file__).resolve().parents[1] / "examples/specs/auction.dws"

#: E14's wide candidate pool: 180 valuations of the letter property.
WIDE_CANDIDATES = {
    "id": ("c1", "s1", "ann", "small", "acct1"),
    "name": ("ann", "c1", "small", "high"),
    "loan": ("small", "large", "c1", "fair"),
    "dec": ("approved", "denied", "large", "high"),
}


class _OneNode:
    """An exploration of one node with a self-loop."""

    budget = None

    def initial(self):
        return ("n",)

    def successors_of(self, node):
        return ("n",)


class _FixedLetter:
    """An evaluator whose every node reads one letter."""

    def __init__(self, aps, letter):
        self.bits = bit_table(aps)
        self.mask = 0
        for ap in letter:
            self.mask |= self.bits[ap]

    def letter(self, node):
        return self.mask


def assert_compiles_faithfully(nba: BuchiAutomaton) -> None:
    # compiled states are numbered in nba.states iteration order
    states = list(nba.states)
    for letter in nba.alphabet():
        product = ProductSystem(_OneNode(), nba,
                                _FixedLetter(nba.aps, letter))
        assert [states[q] for _n, q in product.initial_nodes()] == \
            list(nba.initial)
        for i, state in enumerate(states):
            assert product.is_accepting(("n", i)) == \
                (state in nba.accepting)
            picked = [states[q] for _n, q in product.successors(("n", i))]
            assert picked == [e.dst for e in nba.edges_from(state)
                              if e.guard.satisfied(letter)], (state, letter)


@given(formula=_ltl())
@settings(max_examples=120, deadline=None)
def test_compiled_rows_match_guards(formula):
    assert_compiles_faithfully(ltl_to_buchi(formula))


def test_compiled_rows_match_guards_on_an_intersection():
    p, q = latom("p"), latom("q")
    response = ltl_to_buchi(lnot(lglobally(limplies(p, lfinally(q)))))
    assert_compiles_faithfully(
        response.intersection(ltl_to_buchi(lglobally(lfinally(p)))))


def test_literals_outside_the_bit_table():
    """A positive literal no letter can set never fires; a negative one
    always holds, as ``Guard.satisfied`` reads letters over the APs."""
    nba = BuchiAutomaton(
        states=("s",), initial=("s",), accepting=("s",), aps=("p",),
        edges=[Edge("s", Guard(pos=frozenset({"r"})), "s"),
               Edge("s", Guard(neg=frozenset({"r"})), "s")])
    assert_compiles_faithfully(nba)


def assert_evaluators_agree(composition, domain, exploration, sentences,
                            candidates=None, count=20):
    """Interned and seed letters decode alike on every state."""
    assert exploration.complete()
    for sentence in sentences:
        valuations = canonical_valuations(sentence.variables, domain,
                                          candidates)[:count]
        assert valuations, str(sentence)
        for valuation in valuations:
            nba = ltl_to_buchi(land(lnot(sentence.instantiate(valuation)),
                                    *occurs_terms(valuation, domain)))
            interned = InternedSnapshotEvaluator(nba.aps,
                                                 exploration.shared)
            seed = SnapshotEvaluator(composition, domain.values, nba.aps)
            for sid in range(len(exploration.interner)):
                state = exploration.state_of(sid)
                assert decode_letter(interned.bits, interned.letter(sid)) \
                    == decode_letter(seed.bits, seed.letter(state)), \
                    (str(sentence), valuation, sid)


def test_interned_letters_match_seed_on_loan_graph():
    """E14's sweep, then properties whose payloads read several
    relations over the standard candidates, all memoising truths on one
    exploration."""
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    exploration = SharedExploration(composition, databases, domain.values,
                                    DECIDABLE_DEFAULT)

    def sentences(*texts):
        return [parse_ltlfo(text, composition.schema) for text in texts]

    assert_evaluators_agree(
        composition, domain, exploration,
        sentences(loan.PROPERTY_LETTER_NEEDS_APPLICATION), WIDE_CANDIDATES)
    assert_evaluators_agree(
        composition, domain, exploration,
        sentences(loan.PROPERTY_BANK_POLICY,
                  loan.PROPERTY_BANK_POLICY_POINTWISE,
                  loan.PROPERTY_RESPONSIVENESS),
        loan.STANDARD_CANDIDATES)


def test_interned_letters_match_seed_on_auction_graph():
    composition, databases, properties = load_document(AUCTION.read_text())
    sentences = [parse_ltlfo(text, composition.schema)
                 for _name, text in sorted(properties.items())]
    plan = property_engines(composition, sentences, databases)
    # both properties share one domain, hence one exploration
    [(domain, exploration)] = {id(e): (d, e) for d, e in plan}.values()
    assert_evaluators_agree(composition, domain, exploration, sentences)


def letter_vector_classes(composition, domain, exploration, unit,
                          valuations, what="") -> int:
    """Group *valuations* by the :func:`letter_class` of *unit*'s
    binding and check that the groups are the letter-vector classes;
    return their number.

    A valuation's letter vector is its automaton's APs with the seed
    evaluator's letter, read through the same binding, on every state
    of the completed graph, decoded.  Members of one group must have one
    vector; members of two groups must differ on some state (or in their
    APs).
    """
    assert exploration.complete()
    states = [exploration.state_of(sid)
              for sid in range(len(exploration.interner))]
    groups: dict = {}
    for valuation in valuations:
        nba, binding = unit(valuation)
        seed = SnapshotEvaluator(composition, domain.values, binding)
        vector = (seed.aps, tuple(decode_letter(seed.bits, seed.letter(s))
                                  for s in states))
        groups.setdefault(letter_class(nba, binding, exploration.shared),
                          set()).add(vector)
    vectors = [vector for group in groups.values() for vector in group]
    assert all(len(group) == 1 for group in groups.values()), what
    assert len(set(vectors)) == len(vectors), what
    return len(groups)


def sentence_classes(composition, domain, exploration, sentence,
                     candidates=None) -> int:
    """:func:`letter_vector_classes` of a sentence's canonical
    valuations, bound as :func:`verify` binds them."""
    return letter_vector_classes(
        composition, domain, exploration,
        sentence_unit(composition, sentence, domain),
        canonical_valuations(sentence.variables, domain, candidates),
        str(sentence))


def test_letter_classes_on_loan_sweep():
    """E14's 180 valuations read one letter on every state: one class."""
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    exploration = SharedExploration(composition, databases, domain.values,
                                    DECIDABLE_DEFAULT)
    sentence = parse_ltlfo(loan.PROPERTY_LETTER_NEEDS_APPLICATION,
                           composition.schema)
    assert sentence_classes(composition, domain, exploration, sentence,
                            WIDE_CANDIDATES) == 1


def test_letter_classes_on_auction_graph():
    """Every canonical valuation of both auction properties, fresh
    values included, so classes span several templates."""
    composition, databases, properties = load_document(AUCTION.read_text())
    sentences = [parse_ltlfo(text, composition.schema)
                 for _name, text in sorted(properties.items())]
    plan = property_engines(composition, sentences, databases)
    [(domain, exploration)] = {id(e): (d, e) for d, e in plan}.values()
    for sentence in sentences:
        assert sentence_classes(composition, domain, exploration,
                                sentence) > 1


def test_letter_classes_on_payments_and_dispatch_graphs():
    """Every canonical valuation of every payments and dispatch
    property: templates split into several classes, and two properties
    have two FO payloads."""
    for module in (payments, dispatch):
        name = module.__name__.rsplit(".", 1)[1]
        composition = getattr(module, f"{name}_composition")()
        databases = module.standard_database()
        domain = verification_domain(composition, [], databases,
                                     fresh_count=1)
        exploration = SharedExploration(composition, databases,
                                        domain.values, DECIDABLE_DEFAULT)
        for constant in sorted(vars(module)):
            if constant.startswith("PROPERTY_"):
                sentence = parse_ltlfo(getattr(module, constant),
                                       composition.schema)
                assert sentence_classes(
                    composition, domain, exploration, sentence) > 1


def test_letter_classes_on_per_ssn_protocol():
    """E8's per-ssn protocol, bound as ``verify_aware`` binds it: its 14
    canonical valuations form 3 classes (its sweep stops at a violation
    at the 12th, after searching 2 of them)."""
    composition, databases, domain, protocol = per_ssn_request_answered()
    exploration = SharedExploration(composition, databases, domain.values,
                                    DECIDABLE_DEFAULT)
    valuations = canonical_valuations(protocol.free_variables(), domain)
    assert len(valuations) == 14
    assert letter_vector_classes(
        composition, domain, exploration, aware_unit(protocol, domain),
        valuations, "per-ssn protocol") == 3


def assert_bound_letters_match_reference(composition, domain, exploration,
                                         unit, valuations, instantiated):
    """On every state, each valuation's letters read through *unit*'s
    own binding equal the reference evaluator's on closed formulas.

    ``instantiated(ap, valuation)`` is the closed formula an FO AP of
    the unit's automaton stands for, built from the sentence or protocol
    without the binding; occurs and fairness atoms stand for themselves.
    """
    assert exploration.complete()
    states = [exploration.state_of(sid)
              for sid in range(len(exploration.interner))]
    assert valuations
    for valuation in valuations:
        _nba, binding = unit(valuation)
        interned = InternedSnapshotEvaluator(binding, exploration.shared)
        reference = SnapshotEvaluator(composition, domain.values, {
            ap: ap if isinstance(ap, OccursAtom)
            else instantiated(ap, valuation)
            for ap in interned.binding})
        for sid, state in enumerate(states):
            assert decode_letter(interned.bits, interned.letter(sid)) == \
                decode_letter(reference.bits, reference.letter(state)), \
                (valuation, sid)


def assert_sentence_bindings_match_reference(
        composition, domain, exploration, sentence, valuations,
        fair_scheduling=False):
    payloads = sentence.fo_payloads()

    def instantiated(ap, valuation):
        if isinstance(ap, PayloadAtom):
            return instantiate(payloads[ap.index], valuation)
        return ap  # a fairness atom

    unit = sentence_unit(composition, sentence, domain, fair_scheduling)
    assert_bound_letters_match_reference(
        composition, domain, exploration, unit, valuations, instantiated)


def test_sentence_bindings_match_reference_on_loan_graph():
    """E14's 180 valuations, then the standard candidates of properties
    whose payloads bind two to four variables to values that differ per
    variable, one of them with the fairness atoms."""
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    exploration = SharedExploration(composition, databases, domain.values,
                                    DECIDABLE_DEFAULT)
    wide = parse_ltlfo(loan.PROPERTY_LETTER_NEEDS_APPLICATION,
                       composition.schema)
    assert_sentence_bindings_match_reference(
        composition, domain, exploration, wide,
        canonical_valuations(wide.variables, domain, WIDE_CANDIDATES))
    for text in (loan.PROPERTY_BANK_POLICY,
                 loan.PROPERTY_BANK_POLICY_POINTWISE,
                 loan.PROPERTY_RESPONSIVENESS):
        sentence = parse_ltlfo(text, composition.schema)
        assert_sentence_bindings_match_reference(
            composition, domain, exploration, sentence,
            canonical_valuations(sentence.variables, domain,
                                 loan.STANDARD_CANDIDATES),
            fair_scheduling=text == loan.PROPERTY_RESPONSIVENESS)


def test_sentence_bindings_match_reference_on_auction_graph():
    """Every canonical valuation of both auction properties, fresh
    values (and so occurs atoms) included."""
    composition, databases, properties = load_document(AUCTION.read_text())
    sentences = [parse_ltlfo(text, composition.schema)
                 for _name, text in sorted(properties.items())]
    plan = property_engines(composition, sentences, databases)
    [(domain, exploration)] = {id(e): (d, e) for d, e in plan}.values()
    for sentence in sentences:
        assert_sentence_bindings_match_reference(
            composition, domain, exploration, sentence,
            canonical_valuations(sentence.variables, domain))


def test_aware_bindings_match_reference_on_per_ssn_protocol():
    """E8's per-ssn protocol: every canonical valuation of ``s``, bound
    as ``verify_aware`` binds it."""
    composition, databases, domain, protocol = per_ssn_request_answered()
    exploration = SharedExploration(composition, databases, domain.values,
                                    DECIDABLE_DEFAULT)
    assert_bound_letters_match_reference(
        composition, domain, exploration, aware_unit(protocol, domain),
        canonical_valuations(protocol.free_variables(), domain),
        lambda ap, valuation: instantiate(protocol.symbols[ap], valuation))


def test_a_binding_that_leaves_a_free_variable_unbound_is_refused():
    """A payload's free variables are checked against its valuation once
    per binding, whether a sweep reads the binding's letter class or
    builds an evaluator on it; a closed formula is a template with no
    values, so an open one bound alone is refused too."""
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    exploration = SharedExploration(composition, databases, domain.values,
                                    DECIDABLE_DEFAULT)
    assert exploration.complete()
    sentence = parse_ltlfo(loan.PROPERTY_LETTER_NEEDS_APPLICATION,
                           composition.schema)
    [payload] = sentence.fo_payloads()
    for source in (BoundTemplate(payload, {Var("id"): "c1"}), payload):
        binding = {PayloadAtom(0): source}
        with pytest.raises(FormulaError, match="does not bind"):
            exploration.shared.signature(binding)
        with pytest.raises(FormulaError, match="does not bind"):
            InternedSnapshotEvaluator(binding, exploration.shared)


def test_sweeps_build_no_formula_per_valuation(monkeypatch):
    """E14's sweep and E8's per-ssn protocol bind payload templates:
    no formula is substituted into, whatever the valuation count."""
    calls = []
    substitute = formulas.substitute

    def counting(*args):
        calls.append(args)
        return substitute(*args)

    monkeypatch.setattr(formulas, "substitute", counting)
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    result = verify(composition, loan.PROPERTY_LETTER_NEEDS_APPLICATION,
                    databases, domain=domain,
                    valuation_candidates=WIDE_CANDIDATES)
    assert result.stats.valuations_checked == 180
    composition, databases, domain, protocol = per_ssn_request_answered()
    result = verify_aware(composition, protocol, databases, domain=domain)
    assert result.stats.valuations_checked == 12
    assert calls == []


def test_a_sweep_builds_one_evaluator_per_search(monkeypatch):
    """Valuations are filed under their letter class from their binding:
    an evaluator is built only for a search, so as many as the sweep's
    ``valuation_classes``.  E14's 180 valuations take 1, E8's 12 take 2,
    and each auction property as many as its classes."""
    built = []
    init = InternedSnapshotEvaluator.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(InternedSnapshotEvaluator, "__init__", counting)

    def searches(result, valuations):
        assert result.stats.valuations_checked == valuations
        assert len(built) == result.stats.valuation_classes
        built.clear()
        return result.stats.valuation_classes

    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    assert searches(verify(composition,
                           loan.PROPERTY_LETTER_NEEDS_APPLICATION,
                           databases, domain=domain,
                           valuation_candidates=WIDE_CANDIDATES), 180) == 1
    composition, databases, domain, protocol = per_ssn_request_answered()
    assert searches(verify_aware(composition, protocol, databases,
                                 domain=domain), 12) == 2
    composition, databases, properties = load_document(AUCTION.read_text())
    for _name, text in sorted(properties.items()):
        sentence = parse_ltlfo(text, composition.schema)
        domain = verification_domain(composition, [sentence], databases)
        valuations = len(canonical_valuations(sentence.variables, domain))
        assert 1 < searches(verify(composition, sentence, databases),
                            valuations) < valuations
