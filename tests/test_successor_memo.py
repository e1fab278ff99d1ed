"""The slot memo behind :class:`SharedExploration`, checked state by state.

A shared exploration answers most successor rows from each mover's
memoized share (:class:`repro.runtime.slots.SuccessorMemo`) and, on a
miss, calls :func:`repro.runtime.step.successors` for the movers whose
share is missing.  The reference engine (:mod:`repro.fuzz.seed_engine`)
calls ``successors()`` directly, so it is the unmemoized reference: on every
state of every completed graph below, the exploration's row must equal
the interned ``successors()`` of the decoded state, in the same order,
and the decoded state must intern back to its own id.  A miss's mover
subset must be exactly those movers' block of the full row.

A mover's share is keyed on what its move depends on, not on every slot
it writes: actions and error flags are recomputed by every move, so one
enters a key only where a rule reads it.  ``error_flag.dws`` is the case
where a rule does.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import SpecificationError
from repro.fo.formulas import relations
from repro.fo.schema import ENVIRONMENT_NAME, RelationKind
from repro.fuzz.generate import generate
from repro.obs import counters_snapshot
from repro.runtime import step
from repro.runtime.step import successors
from repro.spec import DECIDABLE_DEFAULT
from repro.spec.channels import ChannelSemantics, FlatSendDiscipline
from repro.spec.dsl import load_document
from repro.verifier import SharedExploration
from repro.verifier.domain import verification_domain

from .test_expansion_golden import (
    DOCUMENTS, LIBRARIES, _credit_check, _document_explorations, _library,
)

#: The case ``repro fuzz --count 25 --seed 7 --row 3.4 --row 3.9`` runs.
FUZZ_SEED, FUZZ_COUNT, FUZZ_ROWS = 7, 25, ("3.4", "3.9")

#: A sender that reads its own flat out-queue's ``error_Q`` flag, under
#: the flat-send discipline that raises it (a document cannot choose one).
ERROR_FLAG_CASE = "error_flag.dws"
ERROR_FLAG_DOCUMENT = Path(__file__).resolve().parent / "fixtures" \
    / ERROR_FLAG_CASE
ERROR_FLAG_SEMANTICS = ChannelSemantics(
    lossy=True, queue_bound=1,
    flat_send=FlatSendDiscipline.DETERMINISTIC_ERROR)

#: What a row counts: memo hits, memo misses, expanded states, and the
#: moves a miss fires.
COUNTERS = ("graph.successor_memo_hits", "graph.successor_memo_misses",
            "product.states_expanded", "graph.moves_fired")


def _fuzz_spec(i: int):
    return generate(FUZZ_SEED * 1_000_003 + i, FUZZ_ROWS[i % len(FUZZ_ROWS)])


def _explorations(case: str) -> list[SharedExploration]:
    if case in LIBRARIES:
        _module, composition, databases, domain = _library(case)
        return [SharedExploration(composition, databases, domain.values,
                                  DECIDABLE_DEFAULT)]
    if case == "credit_check":
        composition, databases, domain, env_values, _ = _credit_check()
        return [SharedExploration(composition, databases, domain.values,
                                  DECIDABLE_DEFAULT,
                                  env_value_domain=env_values)]
    if case in DOCUMENTS:
        return _document_explorations(case)
    if case == ERROR_FLAG_CASE:
        composition, databases, _properties = load_document(
            ERROR_FLAG_DOCUMENT.read_text())
        domain = verification_domain(composition, [], databases,
                                     fresh_count=1)
        return [SharedExploration(composition, databases, domain.values,
                                  ERROR_FLAG_SEMANTICS)]
    spec = _fuzz_spec(int(case.removeprefix("fuzz#")))
    if not spec.verifiable:
        pytest.skip("unbounded queues: nothing to explore")
    domain = verification_domain(spec.composition, [], spec.databases,
                                 fresh_count=1)
    return [SharedExploration(spec.composition, spec.databases,
                              domain.values, spec.semantics)]


def _complete(exploration: SharedExploration) -> dict[str, int]:
    """Complete *exploration*; the counters it moved."""
    before = counters_snapshot()
    assert exploration.complete()
    after = counters_snapshot()
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in COUNTERS}


def _check_rows(exploration: SharedExploration) -> None:
    intern = exploration.interner.intern
    for sid in range(len(exploration.interner)):
        state = exploration.state_of(sid)
        assert intern(state) == sid
        expected = tuple(intern(successor) for successor in successors(
            exploration.composition, state, exploration.domain,
            exploration.semantics, env_one_action_per_move=True,
            env_value_domain=exploration.env_value_domain))
        assert exploration.successors_of(sid) == expected, sid


CASES = [*LIBRARIES, "credit_check", *DOCUMENTS, ERROR_FLAG_CASE,
         *(f"fuzz#{i}" for i in range(FUZZ_COUNT))]


@pytest.mark.parametrize("case", CASES)
def test_every_row_is_successors_of_the_decoded_state(case):
    for exploration in _explorations(case):
        moved = _complete(exploration)
        hits, misses, expanded, fired = (moved[name] for name in COUNTERS)
        assert hits + misses == expanded == exploration.states_expanded \
            == len(exploration.interner)
        # a miss fires each mover that lacks a share, and at least one
        composition = exploration.composition
        movers = len(composition.peers) + (not composition.is_closed)
        assert misses <= fired <= movers * misses
        _check_rows(exploration)


@pytest.mark.parametrize("case", ["ecommerce", "credit_check"])
def test_the_memo_answers_most_rows(case):
    """Without hits the rows above would all come from ``successors()``;
    e-commerce repeats its projections, and the credit check's memo
    answers rows with environment moves."""
    (exploration,) = _explorations(case)
    moved = _complete(exploration)
    assert moved["graph.successor_memo_hits"] > \
        moved["graph.successor_memo_misses"] > 0


@pytest.mark.parametrize("case", CASES)
def test_one_movers_successors_are_its_block_of_the_row(case):
    """``successors(..., movers={m})`` is the sub-sequence of the full row
    whose mover is *m*, in order, for every peer and, on open
    compositions (the credit check), the environment."""
    for exploration in _explorations(case):
        assert exploration.complete()
        composition = exploration.composition
        movers = [peer.name for peer in composition.peers]
        if not composition.is_closed:
            movers.append(ENVIRONMENT_NAME)
        assert (ENVIRONMENT_NAME in movers) == (case == "credit_check")

        def expand(state, **subset):
            return successors(
                composition, state, exploration.domain,
                exploration.semantics, env_one_action_per_move=True,
                env_value_domain=exploration.env_value_domain, **subset)

        for sid in range(len(exploration.interner)):
            state = exploration.state_of(sid)
            row = expand(state)
            for mover in movers:
                assert expand(state, movers={mover}) == \
                    [s for s in row if s.mover == mover], (sid, mover)
            assert expand(state, movers=movers) == row, sid


def test_an_unknown_mover_is_refused():
    (exploration,) = _explorations("ecommerce")
    state = exploration.state_of(exploration.initial()[0])
    with pytest.raises(SpecificationError, match="no mover named"):
        successors(exploration.composition, state, exploration.domain,
                   exploration.semantics, movers={ENVIRONMENT_NAME})


def _key_slots(exploration: SharedExploration) -> dict[str, set[int]]:
    """The slots each mover's memo share is keyed on: its projection of
    the key whose every slot holds its own index."""
    identity = tuple(range(len(exploration.interner.codec)))
    held = {mover.name: mover.project(identity)
            for mover in exploration.memo._movers}
    return {name: set(slots if isinstance(slots, tuple) else (slots,))
            for name, slots in held.items()}


@pytest.mark.parametrize("case", CASES)
def test_keys_hold_no_action_and_only_read_error_flags(case):
    """Every move recomputes its actions and error flags, so no mover's
    key holds an action slot (no rule reads one), and an error-flag slot
    is in a key only where that peer's rules read the flag."""
    for exploration in _explorations(case):
        composition = exploration.composition
        codec = exploration.interner.codec
        slots_of_kind = {kind: {codec.relation_slot[sym.qualified_name]
                                for sym in composition.schema
                                if sym.kind is kind}
                         for kind in (RelationKind.ACTION,
                                      RelationKind.ERROR_FLAG)}
        for mover, key in _key_slots(exploration).items():
            assert not key & slots_of_kind[RelationKind.ACTION], mover
            flags = key & slots_of_kind[RelationKind.ERROR_FLAG]
            if mover == ENVIRONMENT_NAME:
                assert not flags
                continue
            read = codec.slots_of(
                name for rule in composition.qualified_rules(mover)
                for name in relations(rule.body))
            assert flags <= set(read), mover


def test_a_read_error_flag_keys_its_movers_share():
    """``error_flag.dws`` reaches states that differ only in
    ``S.error_msg``, and S's moves differ between some of them: the flag
    is in S's key, and only there, as R's rules do not read it."""
    (exploration,) = _explorations(ERROR_FLAG_CASE)
    assert exploration.complete()
    interner, composition = exploration.interner, exploration.composition
    flag = interner.codec.relation_slot["S.error_msg"]
    keys = [interner.key_of(sid) for sid in range(len(interner))]
    twins = [(a, b) for i, a in enumerate(keys) for b in keys[:i]
             if [j for j, (x, y) in enumerate(zip(a, b)) if x != y]
             == [flag]]
    assert twins
    key_slots = _key_slots(exploration)
    assert flag in key_slots["S"] and flag not in key_slots["R"]

    def moves_of_s(key):
        return [interner.intern(state) for state in successors(
            composition, interner.codec.decode(key), exploration.domain,
            exploration.semantics, movers={"S"})]

    assert any(moves_of_s(a) != moves_of_s(b) for a, b in twins)


def test_a_miss_fires_only_the_movers_it_lacks(monkeypatch):
    """Completing e-commerce breadth-first misses 306 rows, 299 of which
    lack one peer's share: the misses fire 314 moves, not 3 x 306, and
    ``graph.moves_fired`` counts each of them."""
    fired = []
    move = step._move_successors

    def counted(composition, plan, *args):
        fired.append(plan.mover)
        return move(composition, plan, *args)

    monkeypatch.setattr(step, "_move_successors", counted)
    (exploration,) = _explorations("ecommerce")
    moved = _complete(exploration)
    assert (moved["graph.successor_memo_hits"],
            moved["graph.successor_memo_misses"],
            moved["product.states_expanded"]) == (3954, 306, 4260)
    assert len(fired) == moved["graph.moves_fired"] == 314


def test_building_an_exploration_fires_no_rules():
    """The slot layout comes from the composition's symbols, so an
    exploration built before ``--workers N`` forks leaves every rule to
    the children."""
    before = counters_snapshot()
    _explorations("ecommerce")
    after = counters_snapshot()
    assert {name: after.get(name, 0) - before.get(name, 0)
            for name in ("fo.answers_calls", "product.states_expanded")} \
        == {"fo.answers_calls": 0, "product.states_expanded": 0}
