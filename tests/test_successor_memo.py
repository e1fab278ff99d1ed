"""The slot memo behind :class:`SharedExploration`, checked state by state.

A shared exploration answers most successor rows from each mover's
memoized share (:class:`repro.runtime.slots.SuccessorMemo`) and, on a
miss, calls :func:`repro.runtime.step.successors` for the movers whose
share is missing.  The seed engine and the protocol procedures call
``successors()`` directly, so it is the unmemoized reference: on every
state of every completed graph below, the exploration's row must equal
the interned ``successors()`` of the decoded state, in the same order,
and the decoded state must intern back to its own id.  A miss's mover
subset must be exactly those movers' block of the full row.
"""

from __future__ import annotations

import pytest

from repro.errors import SpecificationError
from repro.fo.schema import ENVIRONMENT_NAME
from repro.fuzz.generate import generate
from repro.obs import counters_snapshot
from repro.runtime import step
from repro.runtime.step import successors
from repro.spec import DECIDABLE_DEFAULT
from repro.verifier import SharedExploration, TransitionCache
from repro.verifier.domain import verification_domain

from .test_expansion_golden import (
    DOCUMENTS, LIBRARIES, _credit_check, _document_explorations, _library,
)

#: The case ``repro fuzz --count 25 --seed 7 --row 3.4 --row 3.9`` runs.
FUZZ_SEED, FUZZ_COUNT, FUZZ_ROWS = 7, 25, ("3.4", "3.9")

#: What a row counts: memo hits, memo misses, expanded states.
COUNTERS = ("graph.successor_memo_hits", "graph.successor_memo_misses",
            "product.states_expanded")


def _fuzz_spec(i: int):
    return generate(FUZZ_SEED * 1_000_003 + i, FUZZ_ROWS[i % len(FUZZ_ROWS)])


def _explorations(case: str) -> list[SharedExploration]:
    if case in LIBRARIES:
        _module, composition, databases, domain = _library(case)
        return [SharedExploration(TransitionCache(
            composition, databases, domain.values, DECIDABLE_DEFAULT))]
    if case == "credit_check":
        composition, databases, domain, env_values, _ = _credit_check()
        return [SharedExploration(TransitionCache(
            composition, databases, domain.values, DECIDABLE_DEFAULT,
            env_value_domain=env_values))]
    if case in DOCUMENTS:
        return _document_explorations(case)
    spec = _fuzz_spec(int(case.removeprefix("fuzz#")))
    if not spec.verifiable:
        pytest.skip("unbounded queues: nothing to explore")
    domain = verification_domain(spec.composition, [], spec.databases,
                                 fresh_count=1)
    return [SharedExploration(TransitionCache(
        spec.composition, spec.databases, domain.values, spec.semantics))]


def _complete(exploration: SharedExploration) -> dict[str, int]:
    """Complete *exploration*; the counters it moved."""
    before = counters_snapshot()
    assert exploration.complete()
    after = counters_snapshot()
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in COUNTERS}


def _check_rows(exploration: SharedExploration) -> None:
    cache = exploration.cache
    intern = exploration.interner.intern
    for sid in range(len(exploration.interner)):
        state = exploration.state_of(sid)
        assert intern(state) == sid
        expected = tuple(intern(successor) for successor in successors(
            cache.composition, state, cache.domain, cache.semantics,
            env_one_action_per_move=True,
            env_value_domain=cache.env_value_domain))
        assert exploration.successors_of(sid) == expected, sid


CASES = [*LIBRARIES, "credit_check", *DOCUMENTS,
         *(f"fuzz#{i}" for i in range(FUZZ_COUNT))]


@pytest.mark.parametrize("case", CASES)
def test_every_row_is_successors_of_the_decoded_state(case):
    for exploration in _explorations(case):
        moved = _complete(exploration)
        hits, misses, expanded = (moved[name] for name in COUNTERS)
        assert hits + misses == expanded == exploration.states_expanded \
            == len(exploration.interner)
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
        cache = exploration.cache
        composition = cache.composition
        movers = [peer.name for peer in composition.peers]
        if not composition.is_closed:
            movers.append(ENVIRONMENT_NAME)
        assert (ENVIRONMENT_NAME in movers) == (case == "credit_check")

        def expand(state, **subset):
            return successors(
                composition, state, cache.domain, cache.semantics,
                env_one_action_per_move=True,
                env_value_domain=cache.env_value_domain, **subset)

        for sid in range(len(exploration.interner)):
            state = exploration.state_of(sid)
            row = expand(state)
            for mover in movers:
                assert expand(state, movers={mover}) == \
                    [s for s in row if s.mover == mover], (sid, mover)
            assert expand(state, movers=movers) == row, sid


def test_an_unknown_mover_is_refused():
    (exploration,) = _explorations("ecommerce")
    cache = exploration.cache
    (state, *_rest) = cache.initial()
    with pytest.raises(SpecificationError, match="no mover named"):
        successors(cache.composition, state, cache.domain, cache.semantics,
                   movers={ENVIRONMENT_NAME})


def test_a_miss_fires_only_the_movers_it_lacks(monkeypatch):
    """Completing e-commerce breadth-first misses 522 rows, 515 of which
    lack one peer's share: the misses fire 530 moves, not 3 x 522."""
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
            moved["product.states_expanded"]) == (3738, 522, 4260)
    assert len(fired) == 530


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
