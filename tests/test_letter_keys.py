"""Extension ids read off slot keys, checked against rendered views.

A letter's FO truths are memoised on ``(ap_id, extension id)``, and
:meth:`SharedSnapshotContext.extension_id` reads a state's id off the
projection of its slot key onto the slots behind the relations
(:meth:`SlotCodec.slots_of`), decoding a state only the first time a
projection is seen.  A projection that misses a slot would give two
states with different extensions one id, and every letter after the
first would read the first state's truths; one that ids finer than the
extensions would split letter classes.

So on every state of each case graph of ``tests/test_successor_memo.py``,
for every view or persistent relation alone and for the relations of
every FO payload of the case's properties, the keyed id must map one to
one onto the extension tuple of ``snapshot_view(state_of(sid))``.  On
e-commerce, the keyed letters must also decode to the seed evaluator's.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.fo.formulas import relations
from repro.library import ecommerce, loan
from repro.ltlfo.parser import parse_ltlfo
from repro.obs import counters_snapshot, diff_numeric
from repro.runtime import step
from repro.runtime.state import _view_table, snapshot_view
from repro.spec.dsl import load_document
from repro.verifier import property_engines, verify

from .test_expansion_golden import DOCUMENTS, LIBRARIES, _library
from .test_letter_masks import assert_evaluators_agree
from .test_successor_memo import CASES, _explorations, _fuzz_spec

#: The valuation candidates ``repro profile ecommerce`` sweeps.
ECOMMERCE_CANDIDATES = {"p": ("widget",), "card": ("visa", "amex")}
#: Candidates with the fresh value, whose valuations add occurs atoms.
FRESH_CANDIDATES = {"p": ("widget", "$v0"), "card": ("visa", "$v0")}


def _property_texts(case: str) -> list[str]:
    if case in LIBRARIES:
        module = LIBRARIES[case][0]
        return [getattr(module, name) for name in sorted(vars(module))
                if name.startswith("PROPERTY_")]
    if case == "credit_check":
        return [loan.PROPERTY_RECORDED_CATEGORIES_KNOWN]
    if case in DOCUMENTS:
        _c, _d, properties = load_document(DOCUMENTS[case].read_text())
        return [properties[name] for name in sorted(properties)]
    spec = _fuzz_spec(int(case.removeprefix("fuzz#")))
    return [spec.properties[name] for name in sorted(spec.properties)]


def _sentences(case: str, composition) -> list:
    """The case's properties stated over *composition* (a library module
    also holds properties of its other compositions)."""
    sentences = []
    for text in _property_texts(case):
        try:
            sentences.append(parse_ltlfo(text, composition.schema))
        except ReproError:
            continue
    return sentences


def payload_relation_sets(sentences) -> list[tuple[str, ...]]:
    """The relations of every FO payload of *sentences*, as letters
    read them."""
    return sorted({tuple(sorted(relations(payload)))
                   for sentence in sentences
                   for payload in sentence.fo_payloads()})


def relation_sets(exploration, sentences) -> list[tuple[str, ...]]:
    """Every view or persistent relation alone, then the relations of
    every FO payload of *sentences*."""
    composition = exploration.composition
    names = {*exploration.interner.codec.relations,
             *_view_table(composition)}
    return [(name,) for name in sorted(names)] + \
        payload_relation_sets(sentences)


def assert_keyed_ids_match_views(exploration, sets) -> None:
    """On every interned state, the keyed extension id of each relation
    set determines, and is determined by, its rendered extensions."""
    composition = exploration.composition
    shared = exploration.shared
    views = [snapshot_view(exploration.state_of(sid), composition)
             for sid in range(len(exploration.interner))]
    for rels in sets:
        extension_of: dict = {}
        id_of: dict = {}
        for sid, view in enumerate(views):
            eid = shared.extension_id(sid, rels)
            extensions = tuple(view[rel] for rel in rels)
            assert extension_of.setdefault(eid, extensions) == extensions, \
                (rels, sid)
            assert id_of.setdefault(extensions, eid) == eid, (rels, sid)


@pytest.mark.parametrize("case", CASES)
def test_keyed_extension_ids_match_rendered_views(case):
    for exploration in _explorations(case):
        assert exploration.complete()
        sentences = _sentences(case, exploration.composition)
        assert sentences, case
        assert_keyed_ids_match_views(
            exploration, relation_sets(exploration, sentences))


def _ecommerce_sentences(composition) -> list:
    return [parse_ltlfo(text, composition.schema) for text in (
        ecommerce.PROPERTY_SHIP_REQUIRES_AUTH,
        ecommerce.PROPERTY_NO_SHIP_ON_DECLINE,
        ecommerce.PROPERTY_AUTH_HONEST)]


def test_ecommerce_decodes_only_misses_and_first_sights(monkeypatch):
    """Searched for its three properties as ``repro profile ecommerce``
    searches them, e-commerce decodes a state only on a memo miss or at
    the first sight of a payload's key projection (its properties have
    no occurs atoms and no lasso): about one state in eight."""
    fired = []
    move = step._move_successors

    def counted(composition, plan, *args):
        fired.append(plan.mover)
        return move(composition, plan, *args)

    monkeypatch.setattr(step, "_move_successors", counted)
    _module, composition, databases, domain = _library("ecommerce")
    sentences = _ecommerce_sentences(composition)
    before = counters_snapshot()
    plan = property_engines(composition, sentences, databases,
                            domain=domain)
    [exploration] = {id(e): e for _d, e in plan}.values()
    for sentence, (own_domain, own_exploration) in zip(sentences, plan):
        assert verify(composition, sentence, databases, domain=own_domain,
                      exploration=own_exploration,
                      valuation_candidates=ECOMMERCE_CANDIDATES).satisfied
    moved = diff_numeric(counters_snapshot(), before)
    first_sights = sum(
        len(exploration.shared.extension_memo(rels).by_projection)
        for rels in payload_relation_sets(sentences))
    hits, misses = (moved["graph.successor_memo_hits"],
                    moved["graph.successor_memo_misses"])
    assert (hits, misses, len(exploration.interner)) == (3739, 521, 4260)
    # a miss fires only the peers whose share it lacks
    assert len(fired) == 530 < 3 * misses
    assert 0 < moved["graph.states_decoded"] <= misses + first_sights \
        < len(exploration.interner) // 4


def test_keyed_letters_match_seed_on_ecommerce():
    """The three properties ``repro profile ecommerce`` checks, over the
    candidates it sweeps and over valuations with the fresh value, whose
    occurs atoms read active domains."""
    _module, composition, _databases, domain = _library("ecommerce")
    assert domain.fresh == ("$v0",)
    (exploration,) = _explorations("ecommerce")
    sentences = _ecommerce_sentences(composition)
    for candidates in (ECOMMERCE_CANDIDATES, FRESH_CANDIDATES):
        assert_evaluators_agree(composition, domain, exploration, sentences,
                                candidates)
