"""Hash-consed exploration graph shared across property valuations.

Theorem 3.4's reduction rests on a fact this module exploits directly:
the composition's reachable snapshot graph is *valuation-independent* --
different valuations of a property's closure variables change only the
AP letters the Büchi automaton reads, never the snapshots or the
transitions between them.  The seed engine re-derives that graph for
every valuation.

Two pieces remove the redundancy:

* :class:`StateInterner` hash-conses snapshots, as slot keys (tuples of
  small ints, :class:`~repro.runtime.slots.SlotCodec`), into dense
  integer ids, so visited-set membership during the nested DFS is an int
  hash instead of a deep nested-tuple hash, and product nodes are
  ``(int, int)`` pairs (the Büchi state is compiled to an int too, see
  :class:`~repro.verifier.product.ProductSystem`).  A state's
  :class:`GlobalState` is decoded from its key on first use, which is
  only where rules fire or a formula is evaluated: a memo miss, the first
  sight of a relation set's key projection
  (:class:`~repro.verifier.atoms.SharedSnapshotContext`), an occurs
  atom's active domain, and a counterexample's lasso.
* :class:`SharedExploration` memoizes each successor row as a tuple of
  ids.  It answers a row from each mover's share in a
  :class:`~repro.runtime.slots.SuccessorMemo`; where shares are missing
  it calls :func:`~repro.runtime.step.successors` on the decoded state
  for the movers that lack one, files their shares and splices the row.
  :meth:`~SharedExploration.complete` expands the whole reachable graph
  into those rows, so every later valuation's product search is a pure
  graph walk -- no rule firing, no snapshot hashing, no dict-of-states
  lookups.

Successor order, initial-state order, and Büchi target order are all
preserved exactly, so the product over interned ids visits the same
nodes in the same order as the seed engine's product over snapshots --
verdicts, counterexample lassos, and search node counts are identical
(the differential suite pins this, and ``tests/test_successor_memo.py``
checks every memo row against ``successors()``).
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from ..errors import VerificationError
from ..obs import PHASE_EXPAND, counter, gauge, phase
from ..runtime.slots import SlotCodec, SlotKey, SuccessorMemo
from ..runtime.state import GlobalState
from ..runtime.step import successors
from .product import SearchBudget, TransitionCache, count_expansion

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
    """Hash-cons snapshots, as slot keys, into dense ids (ids are
    assignment order); decode an id's snapshot on first use, once
    (``graph.states_decoded`` counts the decodes)."""

    __slots__ = ("codec", "_ids", "_keys", "_states")

    def __init__(self, codec: SlotCodec) -> None:
        self.codec = codec
        self._keys: list[SlotKey] = []
        self._ids: dict[SlotKey, int] = {}
        self._states: dict[int, GlobalState] = {}

    def intern(self, state: GlobalState) -> int:
        return self.intern_key(self.codec.encode(state))

    def intern_key(self, key: SlotKey) -> int:
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return sid

    def key_of(self, sid: int) -> SlotKey:
        return self._keys[sid]

    def state_of(self, sid: int) -> GlobalState:
        state = self._states.get(sid)
        if state is None:
            # looked up per use, like graph.reuse_hits below
            counter("graph.states_decoded").inc()
            state = self._states[sid] = self.codec.decode(self._keys[sid])
        return state

    def __len__(self) -> int:
        return len(self._keys)


class SharedExploration:
    """One interned exploration, reused by every valuation's search.

    *cache* names what is explored (composition, databases, domain,
    semantics, ``env_value_domain``, budget) and gives the initial
    snapshots; the exploration never fills the cache's own memo.  Nodes
    are interned state ids; :meth:`successors_of` answers each id from
    its row once the row exists, and otherwise builds the row from the
    slot memo, calling ``successors()`` for the movers whose share is
    missing.
    """

    def __init__(self, cache: TransitionCache) -> None:
        self.cache = cache
        self.budget: SearchBudget = cache.budget
        codec = SlotCodec(cache.composition)
        self.interner = StateInterner(codec)
        self.memo = SuccessorMemo(cache.composition, codec)
        self._initial: tuple[int, ...] | None = None
        self._succ: dict[int, tuple[int, ...]] = {}
        self._complete = False
        from .atoms import SharedSnapshotContext
        self.shared = SharedSnapshotContext(cache.composition, self.interner)

    @property
    def states_expanded(self) -> int:
        return len(self._succ)

    def initial(self) -> tuple[int, ...]:
        if self._initial is None:
            self._initial = tuple(
                self.interner.intern(s) for s in self.cache.initial()
            )
        return self._initial

    def state_of(self, sid: int) -> GlobalState:
        return self.interner.state_of(sid)

    def successors_of(self, sid: int) -> tuple[int, ...]:
        """*sid*'s successor ids, in ``successors()`` order.

        A row is built once: each mover's block comes from its memoized
        share; on a miss (some share missing) the state is decoded and
        ``successors()`` fires the rules of the movers that lack one.
        """
        succ = self._succ.get(sid)
        if succ is not None:
            # looked up per use: a forked child resets the registry after
            # the parent built this exploration
            counter("graph.reuse_hits").inc()
            return succ
        self.budget.check_states(len(self._succ))
        with phase(PHASE_EXPAND):
            key = self.interner.key_of(sid)
            blocks, missing = self.memo.row(key)
            if missing:
                counter("graph.successor_memo_misses").inc()
                cache = self.cache
                self.memo.file(key, blocks, successors(
                    cache.composition, self.state_of(sid), cache.domain,
                    cache.semantics, env_one_action_per_move=True,
                    env_value_domain=cache.env_value_domain,
                    movers=missing))
            else:
                counter("graph.successor_memo_hits").inc()
            succ = self._succ[sid] = tuple(map(self.interner.intern_key,
                                               chain.from_iterable(blocks)))
        count_expansion(len(succ))
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
