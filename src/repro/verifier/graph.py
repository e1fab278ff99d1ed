"""Hash-consed exploration graph shared across property valuations.

Theorem 3.4's reduction rests on a fact this module exploits directly:
the composition's reachable snapshot graph is *valuation-independent* --
different valuations of a property's closure variables change only the
AP letters the Büchi automaton reads, never the snapshots or the
transitions between them.  The seed engine re-derives that graph for
every valuation.

Two pieces remove the redundancy:

* :class:`StateInterner` hash-conses :class:`GlobalState` snapshots into
  dense integer ids, so visited-set membership during the nested DFS is
  an int hash instead of a deep nested-tuple hash, and product nodes are
  ``(int, int)`` pairs (the Büchi state is compiled to an int too, see
  :class:`~repro.verifier.product.ProductSystem`).
* :class:`SharedExploration` wraps one :class:`TransitionCache` behind
  the interner and memoizes each successor row as a tuple of ids.
  :meth:`~SharedExploration.complete` expands the whole reachable graph
  into those rows, so every later valuation's product search is a pure
  graph walk -- no rule firing, no snapshot hashing, no dict-of-states
  lookups.

Successor order, initial-state order, and Büchi target order are all
preserved exactly, so the product over interned ids visits the same
nodes in the same order as the seed engine's product over snapshots --
verdicts, counterexample lassos, and search node counts are identical
(the differential suite pins this).
"""

from __future__ import annotations

from collections import deque

from ..errors import VerificationError
from ..obs import counter, gauge
from ..runtime.state import GlobalState
from .product import SearchBudget, TransitionCache

#: Engine names accepted by ``verify(..., engine=...)``: ``seed`` is
#: the per-valuation reference the differential tests compare against.
ENGINES = ("shared", "seed")


def resolve_engine(engine: str | None) -> str:
    """Normalize an engine selector (None -> ``shared``)."""
    if engine is None:
        return "shared"
    if engine not in ENGINES:
        raise VerificationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


class StateInterner:
    """Hash-cons snapshots into dense ids (ids are assignment order)."""

    __slots__ = ("_ids", "_states")

    def __init__(self) -> None:
        self._states: list[GlobalState] = []
        self._ids: dict[GlobalState, int] = {}

    def intern(self, state: GlobalState) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
        return sid

    def state_of(self, sid: int) -> GlobalState:
        return self._states[sid]

    def __len__(self) -> int:
        return len(self._states)


class SharedExploration:
    """One interned exploration, reused by every valuation's search.

    Nodes are interned state ids; :meth:`successors_of` answers each id
    from its memo row once the row exists, and expands the snapshot
    through the wrapped :class:`TransitionCache` otherwise.
    """

    def __init__(self, cache: TransitionCache) -> None:
        self.cache = cache
        self.budget: SearchBudget = cache.budget
        self.interner = StateInterner()
        self._initial: tuple[int, ...] | None = None
        self._succ: dict[int, tuple[int, ...]] = {}
        self._complete = False
        from .atoms import SharedSnapshotContext
        self.shared = SharedSnapshotContext(cache.composition, self.interner)

    @property
    def states_expanded(self) -> int:
        return self.cache.states_expanded

    def initial(self) -> tuple[int, ...]:
        if self._initial is None:
            self._initial = tuple(
                self.interner.intern(s) for s in self.cache.initial()
            )
        return self._initial

    def state_of(self, sid: int) -> GlobalState:
        return self.interner.state_of(sid)

    def successors_of(self, sid: int) -> tuple[int, ...]:
        succ = self._succ.get(sid)
        if succ is not None:
            # looked up per hit: a forked child resets the registry after
            # the parent built this exploration
            counter("graph.reuse_hits").inc()
            return succ
        intern = self.interner.intern
        succ = tuple(
            intern(s) for s in
            self.cache.successors_of(self.interner.state_of(sid))
        )
        self._succ[sid] = succ
        return succ

    def complete(self, strict: bool = True) -> bool:
        """Expand the full reachable graph, breadth-first, into memo rows.

        Valuation-independence (Theorem 3.4) makes this sound: the rows
        serve every valuation of every property over the same
        composition/databases/semantics.  Returns True once every
        reachable row is memoized.  With ``strict=False`` a budget
        overrun returns False and leaves the exploration lazy -- callers
        treat completion as an optimization, not an obligation (the lazy
        product may stay within budget where the full graph does not).
        """
        if self._complete:
            return True
        try:
            frontier = deque(self.initial())
            seen = set(frontier)
            while frontier:
                for target in self.successors_of(frontier.popleft()):
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
        except VerificationError:
            if strict:
                raise
            return False
        self._complete = True
        counter("graph.freezes").inc()
        gauge("graph.interned_states").set(len(self.interner))
        gauge("graph.frozen_edges").set(sum(map(len, self._succ.values())))
        return True
