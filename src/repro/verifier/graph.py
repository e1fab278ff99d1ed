"""Hash-consed exploration graph shared across property valuations.

Theorem 3.4's reduction rests on a fact this module exploits directly:
the composition's reachable snapshot graph is *valuation-independent* --
different valuations of a property's closure variables change only the
AP letters the Büchi automaton reads, never the snapshots or the
transitions between them.  The seed engine re-derives that graph for
every valuation.

Three pieces remove the redundancy:

* :class:`StateInterner` hash-conses :class:`GlobalState` snapshots into
  dense integer ids, so visited-set membership during the nested DFS is
  an int hash instead of a deep nested-tuple hash, and product nodes are
  ``(int, buchi_state)`` pairs.
* :class:`SharedExploration` wraps one :class:`TransitionCache` behind
  the interner, memoizes successor rows as id tuples, and can
  :meth:`~SharedExploration.complete` the reachable graph into a frozen
  CSR adjacency (:class:`ExploredGraph`): two flat ``array('q')``
  buffers, ``offsets``/``targets``.  Once frozen, every subsequent
  valuation's product search is a pure graph walk -- no rule firing, no
  snapshot hashing, no dict-of-states lookups.
* :class:`ExploredGraph` is picklable, and
  :meth:`SharedExploration.from_graph` serves a frozen graph built
  elsewhere without expanding anything.

Successor order, initial-state order, and Büchi target order are all
preserved exactly, so the interned product visits the same nodes in the
same order as the seed :class:`~repro.verifier.product.ProductSystem` --
verdicts, counterexample lassos, and search node counts are identical
(the differential suite pins this).
"""

from __future__ import annotations

import pickle
from array import array
from collections import deque
from typing import Iterator

from ..errors import VerificationError
from ..obs import counter, gauge
from ..runtime.state import GlobalState
from ..spec.composition import Composition
from .product import ProductNode, SearchBudget, TransitionCache

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

    def __init__(self, states: tuple[GlobalState, ...] = ()) -> None:
        self._states: list[GlobalState] = list(states)
        self._ids: dict[GlobalState, int] = {
            s: i for i, s in enumerate(self._states)
        }

    def intern(self, state: GlobalState) -> int:
        sid = self._ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._ids[state] = sid
            self._states.append(state)
        return sid

    def state_of(self, sid: int) -> GlobalState:
        return self._states[sid]

    def snapshot(self) -> tuple[GlobalState, ...]:
        return tuple(self._states)

    def __len__(self) -> int:
        return len(self._states)


def _as_q_array(data) -> array:
    """Coerce CSR buffer data back into an owned ``array('q')``.

    Accepts whatever the pickle layer hands us: an ``array`` (older
    pickles), in-band ``bytes``/``bytearray`` (a :class:`pickle.
    PickleBuffer` serialized without out-of-band transport), or a
    ``memoryview`` (an out-of-band buffer).
    """
    if isinstance(data, array):
        return data
    if isinstance(data, memoryview):
        data = data.cast("B")
    out = array("q")
    out.frombytes(bytes(data))
    return out


def _rebuild_graph(states, initial_ids, offsets, targets, budget
                   ) -> "ExploredGraph":
    return ExploredGraph(states, tuple(initial_ids),
                         _as_q_array(offsets), _as_q_array(targets), budget)


class ExploredGraph:
    """A frozen reachable snapshot graph in CSR form (picklable).

    ``states[i]`` is the snapshot with interned id ``i``; the successors
    of ``i`` are ``targets[offsets[i]:offsets[i+1]]``, in the exact
    order :func:`repro.runtime.step.successors` produced them.

    ``offsets``/``targets`` are ``array('q')`` buffers.  Under pickle
    protocol 5 they travel as :class:`pickle.PickleBuffer` so transports
    that support out-of-band buffers skip one copy.
    """

    __slots__ = ("states", "initial_ids", "offsets", "targets", "budget")

    def __init__(self, states: tuple[GlobalState, ...],
                 initial_ids: tuple[int, ...],
                 offsets, targets,
                 budget: SearchBudget) -> None:
        self.states = states
        self.initial_ids = initial_ids
        self.offsets = offsets
        self.targets = targets
        self.budget = budget

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_edges(self) -> int:
        return len(self.targets)

    def __reduce_ex__(self, protocol: int):
        offsets = _as_q_array(self.offsets)
        targets = _as_q_array(self.targets)
        if protocol >= 5:
            return (_rebuild_graph, (
                self.states, tuple(self.initial_ids),
                pickle.PickleBuffer(offsets), pickle.PickleBuffer(targets),
                self.budget,
            ))
        return (_rebuild_graph, (
            self.states, tuple(self.initial_ids), offsets, targets,
            self.budget,
        ))


class SharedExploration:
    """One interned exploration, reused by every valuation's search.

    Wraps a live :class:`TransitionCache` or a frozen
    :class:`ExploredGraph` (via :meth:`from_graph`); either way the
    product search only ever sees integer state ids.
    """

    def __init__(self, cache: TransitionCache) -> None:
        self.cache: TransitionCache | None = cache
        self.composition: Composition = cache.composition
        self.budget: SearchBudget = cache.budget
        self.interner = StateInterner()
        self._initial_ids: tuple[int, ...] | None = None
        self._succ: dict[int, tuple[int, ...]] = {}
        self._frozen: ExploredGraph | None = None
        self._reuse_hits = counter("graph.reuse_hits")
        from .atoms import SharedSnapshotContext
        self.shared = SharedSnapshotContext(self.composition, self.interner)

    @classmethod
    def from_graph(cls, graph: ExploredGraph,
                   composition: Composition) -> "SharedExploration":
        """An exploration served entirely from a pre-expanded graph."""
        self = cls.__new__(cls)
        self.cache = None
        self.composition = composition
        self.budget = graph.budget
        self.interner = StateInterner(graph.states)
        self._initial_ids = tuple(graph.initial_ids)
        self._succ = {}
        self._frozen = graph
        self._reuse_hits = counter("graph.reuse_hits")
        from .atoms import SharedSnapshotContext
        self.shared = SharedSnapshotContext(composition, self.interner)
        return self

    @property
    def frozen(self) -> ExploredGraph | None:
        return self._frozen

    @property
    def states_expanded(self) -> int:
        """Snapshots expanded *in this process* (0 for shipped graphs)."""
        return self.cache.states_expanded if self.cache is not None else 0

    def initial_ids(self) -> tuple[int, ...]:
        if self._initial_ids is None:
            assert self.cache is not None
            self._initial_ids = tuple(
                self.interner.intern(s) for s in self.cache.initial()
            )
        return self._initial_ids

    def successors_of(self, sid: int) -> tuple[int, ...]:
        succ = self._succ.get(sid)
        if succ is not None:
            self._reuse_hits.inc()
            return succ
        graph = self._frozen
        if graph is not None:
            offsets = graph.offsets
            succ = tuple(graph.targets[offsets[sid]:offsets[sid + 1]])
            self._reuse_hits.inc()
        else:
            assert self.cache is not None
            intern = self.interner.intern
            succ = tuple(
                intern(s) for s in
                self.cache.successors_of(self.interner.state_of(sid))
            )
        self._succ[sid] = succ
        return succ

    def complete(self, strict: bool = True) -> ExploredGraph | None:
        """Expand the full reachable graph and freeze it into CSR form.

        Valuation-independence (Theorem 3.4) makes this sound: the
        frozen graph serves every valuation of every property over the
        same composition/databases/semantics.  With ``strict=False`` a
        budget overrun returns None and leaves the exploration lazy --
        callers treat freezing as an optimization, not an obligation
        (the lazy product may stay within budget where the full graph
        does not).
        """
        if self._frozen is not None:
            return self._frozen
        try:
            frontier = deque(self.initial_ids())
            seen = set(frontier)
            while frontier:
                sid = frontier.popleft()
                for target in self.successors_of(sid):
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
        except VerificationError:
            if strict:
                raise
            return None
        n = len(self.interner)
        offsets = array("q", [0])
        targets = array("q")
        for sid in range(n):
            targets.extend(self._succ[sid])
            offsets.append(len(targets))
        self._frozen = ExploredGraph(
            self.interner.snapshot(), self.initial_ids(), offsets,
            targets, self.budget,
        )
        counter("graph.freezes").inc()
        gauge("graph.interned_states").set(n)
        gauge("graph.frozen_edges").set(len(targets))
        return self._frozen


class InternedProduct:
    """Drop-in for :class:`ProductSystem` over interned state ids.

    Nodes are ``(state_id, buchi_state)``; ``cache`` aliases the
    exploration so the search's ``product.cache.budget`` access works
    unchanged.  Successor enumeration mirrors ``ProductSystem`` exactly
    (letter of the *source* snapshot; same target and successor order).
    """

    def __init__(self, space: SharedExploration, nba,
                 evaluator) -> None:
        self.cache = space
        self.space = space
        self.nba = nba
        self.evaluator = evaluator

    def initial_nodes(self) -> list[ProductNode]:
        return [
            (sid, q)
            for sid in self.space.initial_ids()
            for q in self.nba.initial
        ]

    def successors(self, node: ProductNode) -> Iterator[ProductNode]:
        sid, q = node
        letter = self.evaluator.letter(sid)
        targets = [
            edge.dst for edge in self.nba.edges_from(q)
            if edge.guard.satisfied(letter)
        ]
        if not targets:
            return
        for nxt in self.space.successors_of(sid):
            for dst in targets:
                yield (nxt, dst)

    def is_accepting(self, node: ProductNode) -> bool:
        return node[1] in self.nba.accepting
