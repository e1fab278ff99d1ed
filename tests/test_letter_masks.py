"""Letters as bitmasks, pinned independently of the golden digests.

The product search reads each node's letter as an int over its
evaluator's bit table and tests compiled ``(pos_mask, neg_mask, dst)``
rows instead of :class:`~repro.ltl.buchi.Guard` objects.  Two checks
keep that encoding honest:

* the compiled product picks, for every automaton state and every
  letter of the alphabet, the same destinations in the same order as
  ``Guard.satisfied`` does, and agrees on initial and accepting states;
* on completed library graphs the shared engine's letters, whose FO
  truths are memoised across valuations on ``(ap_id, extension id)``,
  decode to the same AP sets as the seed evaluator's.  A key collision
  that flips no verdict would pass the digests but not this;
* the letter classes a sweep searches once each are exactly the classes
  of valuations whose seed letters agree on every state of the graph,
  checked against the seed evaluator, not the signature code.
"""

from pathlib import Path

from hypothesis import given, settings

from repro.library import dispatch, loan, payments
from repro.fuzz.seed_engine import SnapshotEvaluator
from repro.ltl import (
    BuchiAutomaton, Edge, Guard, land, latom, lfinally, lglobally,
    limplies, lnot, ltl_to_buchi,
)
from repro.ltlfo.parser import parse_ltlfo
from repro.spec import DECIDABLE_DEFAULT
from repro.spec.dsl import load_document
from repro.verifier import (
    InternedSnapshotEvaluator, ProductSystem, SharedExploration, bit_table,
    canonical_valuations, decode_letter, property_engines,
    verification_domain,
)
from repro.verifier.ltlfo_verifier import (
    letter_class, occurs_terms, sentence_unit,
)

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
            interned = InternedSnapshotEvaluator(
                composition, domain.values, nba.aps, exploration.shared)
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


def letter_vector_classes(composition, domain, exploration, sentence,
                          candidates=None) -> int:
    """Group a sentence's valuations by :func:`letter_class` and check
    that the groups are the letter-vector classes; return their number.

    A valuation's letter vector is its template automaton's APs with
    the seed evaluator's letter on every state of the completed graph,
    decoded.  Members of one group must have one vector; members of two
    groups must differ on some state (or in their APs).
    """
    assert exploration.complete()
    states = [exploration.state_of(sid)
              for sid in range(len(exploration.interner))]
    unit = sentence_unit(
        composition, sentence, domain,
        lambda binding: InternedSnapshotEvaluator(
            composition, domain.values, binding, exploration.shared))
    groups: dict = {}
    for valuation in canonical_valuations(sentence.variables, domain,
                                          candidates):
        nba, interned = unit(valuation)
        seed = SnapshotEvaluator(composition, domain.values,
                                 interned.binding)
        vector = (seed.aps, tuple(decode_letter(seed.bits, seed.letter(s))
                                  for s in states))
        groups.setdefault(letter_class(nba, interned), set()).add(vector)
    vectors = [vector for group in groups.values() for vector in group]
    assert all(len(group) == 1 for group in groups.values()), str(sentence)
    assert len(set(vectors)) == len(vectors), str(sentence)
    return len(groups)


def test_letter_classes_on_loan_sweep():
    """E14's 180 valuations read one letter on every state: one class."""
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases, fresh_count=1)
    exploration = SharedExploration(composition, databases, domain.values,
                                    DECIDABLE_DEFAULT)
    sentence = parse_ltlfo(loan.PROPERTY_LETTER_NEEDS_APPLICATION,
                           composition.schema)
    assert letter_vector_classes(composition, domain, exploration,
                                 sentence, WIDE_CANDIDATES) == 1


def test_letter_classes_on_auction_graph():
    """Every canonical valuation of both auction properties, fresh
    values included, so classes span several templates."""
    composition, databases, properties = load_document(AUCTION.read_text())
    sentences = [parse_ltlfo(text, composition.schema)
                 for _name, text in sorted(properties.items())]
    plan = property_engines(composition, sentences, databases)
    [(domain, exploration)] = {id(e): (d, e) for d, e in plan}.values()
    for sentence in sentences:
        assert letter_vector_classes(composition, domain, exploration,
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
                assert letter_vector_classes(
                    composition, domain, exploration, sentence) > 1
