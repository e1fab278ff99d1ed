"""On-the-fly product of the composition transition system with an NBA.

The composition's reachable snapshot graph is finite once the data domain
and the queue bound are fixed (the computational content of Theorem 3.4's
reduction).  :class:`TransitionCache` memoizes successor computation per
snapshot for the seed engine and the protocol and modular procedures; it
also names the inputs (composition, databases, domain, semantics) a
:class:`~repro.verifier.graph.SharedExploration` is built for, which
expands slot keys through its own memo instead.  :class:`ProductSystem`
lazily pairs the nodes of an exploration with Büchi states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from ..errors import VerificationError
from ..fo.instance import Instance
from ..fo.terms import Value
from ..ltl.buchi import BuchiAutomaton
from ..obs import PHASE_EXPAND, counter, histogram, phase
from ..spec.channels import ChannelSemantics
from ..spec.composition import Composition
from ..runtime.state import GlobalState
from ..runtime.step import initial_states, successors


@dataclass
class SearchBudget:
    """Caps on the explicit search, to fail fast instead of hanging."""

    max_system_states: int = 2_000_000
    max_product_nodes: int = 5_000_000

    def check_states(self, expanded: int) -> None:
        """Refuse to expand one more state once *expanded* states reach
        ``max_system_states``."""
        if expanded >= self.max_system_states:
            raise VerificationError(
                f"system-state budget ({self.max_system_states}) exceeded; "
                "reduce the domain, queue bound, or composition size"
            )


def count_expansion(branching: int) -> None:
    """Count one expanded state with *branching* successors."""
    counter("product.states_expanded").inc()
    histogram("product.branching_factor",
              boundaries=(1, 2, 4, 8, 16, 32, 64, 128, 256)
              ).observe(branching)


class TransitionCache:
    """Memoized transition relation of one composition + database + domain."""

    def __init__(self, composition: Composition,
                 databases: Mapping[str, Instance],
                 domain: Sequence[Value],
                 semantics: ChannelSemantics,
                 budget: SearchBudget | None = None,
                 env_value_domain: Sequence[Value] | None = None) -> None:
        if semantics.queue_bound is None:
            raise VerificationError(
                "verification requires bounded queues (Corollary 3.6: "
                "unbounded queues make verification undecidable); "
                "set ChannelSemantics.queue_bound"
            )
        self.composition = composition
        self.databases = dict(databases)
        self.domain = tuple(domain)
        self.semantics = semantics
        self.env_value_domain = env_value_domain
        self.budget = budget or SearchBudget()
        self._initial: tuple[GlobalState, ...] | None = None
        self._successors: dict[GlobalState, tuple[GlobalState, ...]] = {}

    def initial(self) -> tuple[GlobalState, ...]:
        if self._initial is None:
            self._initial = tuple(
                initial_states(self.composition, self.databases, self.domain)
            )
        return self._initial

    def successors_of(self, state: GlobalState) -> tuple[GlobalState, ...]:
        cached = self._successors.get(state)
        if cached is None:
            self.budget.check_states(len(self._successors))
            with phase(PHASE_EXPAND):
                cached = tuple(
                    successors(
                        self.composition, state, self.domain,
                        self.semantics, env_one_action_per_move=True,
                        env_value_domain=self.env_value_domain,
                    )
                )
            self._successors[state] = cached
            count_expansion(len(cached))
        return cached

    def state_of(self, state: GlobalState) -> GlobalState:
        """The snapshot of a node: this cache's nodes are the snapshots."""
        return state

    @property
    def states_expanded(self) -> int:
        return len(self._successors)


#: A product node: (exploration node, dense Büchi state number).
ProductNode = tuple


def compile_guards(nba: BuchiAutomaton, bits: Mapping
                   ) -> tuple[list, list[int], list[bool]]:
    """The automaton as dense int states, its guards as letter masks.

    States are numbered in the iteration order of ``nba.states``.
    Returns ``(rows, initial, accepting)``: ``rows[i]`` holds one
    ``(pos_mask, neg_mask, dst)`` triple per edge of state *i*, in
    ``edges_from`` order; ``initial`` lists the initial states in
    ``nba.initial`` order; ``accepting[i]`` flags state *i*.  A letter
    *m* (over the bit table *bits*) satisfies a row iff
    ``m & pos == pos and not m & neg`` -- exactly when the edge's guard
    is satisfied by the set of APs *m* encodes.  A positive literal
    outside *bits* compiles to a bit no letter sets, a negative one to
    no bit.
    """
    number = {q: i for i, q in enumerate(nba.states)}
    never = 1 << len(bits)
    rows = []
    for q in nba.states:
        row = []
        for edge in nba.edges_from(q):
            pos = neg = 0
            for ap in edge.guard.pos:
                pos |= bits.get(ap, never)
            for ap in edge.guard.neg:
                neg |= bits.get(ap, 0)
            row.append((pos, neg, number[edge.dst]))
        rows.append(tuple(row))
    initial = [number[q] for q in nba.initial]
    accepting = [q in nba.accepting for q in nba.states]
    return rows, initial, accepting


class ProductSystem:
    """The synchronous product used by the emptiness search.

    ``cache`` is any exploration with ``initial()``,
    ``successors_of(node)``, a ``budget`` and ``state_of(node)``: a
    :class:`TransitionCache` (nodes are snapshots), a
    :class:`~repro.verifier.graph.SharedExploration` (interned ids) or
    modular's :class:`~repro.verifier.modular.PairCache`
    (previous/current pairs).  The evaluator reads letters off the same
    nodes as int masks over its bit table ``evaluator.bits``, and
    ``state_of`` maps a lasso's nodes back to snapshots.  The automaton
    is compiled once, against that table (:func:`compile_guards`), so
    product nodes are ``(node, int)`` pairs and a transition test is
    two int operations.

    The NBA reads, on each transition, the letter (AP valuation) of the
    *source* node; the automaton's distinguished pre-initial state (from
    the GPVW translation) therefore reads the initial snapshot's letter
    on its outgoing edges, matching the LTL convention that position 0
    is the initial snapshot.
    """

    def __init__(self, cache, nba: BuchiAutomaton, evaluator) -> None:
        self.cache = cache
        self.evaluator = evaluator
        self._rows, self._initial, self._accepting = compile_guards(
            nba, evaluator.bits)

    def initial_nodes(self) -> list[ProductNode]:
        return [
            (node, q)
            for node in self.cache.initial()
            for q in self._initial
        ]

    def successors(self, node: ProductNode) -> Iterator[ProductNode]:
        source, q = node
        letter = self.evaluator.letter(source)
        targets = [
            dst for pos, neg, dst in self._rows[q]
            if letter & pos == pos and not letter & neg
        ]
        if not targets:
            return
        for nxt in self.cache.successors_of(source):
            for dst in targets:
                yield (nxt, dst)

    def is_accepting(self, node: ProductNode) -> bool:
        return self._accepting[node[1]]
