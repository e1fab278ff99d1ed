"""The one exploration every decision procedure walks.

Theorem 3.4's reduction rests on a fact this module exploits directly:
the composition's reachable snapshot graph is *valuation-independent* --
different valuations of a property's closure variables change only the
AP letters the Büchi automaton reads, never the snapshots or the
transitions between them.  So the LTL-FO sweep, both protocol
procedures and modular verification search one graph, built by:

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
  graph walk -- no rule firing, no snapshot hashing.

Successor and initial-state order are ``successors()``'s and
``initial_states()``'s, so a product over interned ids visits the nodes
of a product over the snapshots themselves (:mod:`repro.fuzz.seed_engine`)
in the same order.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Mapping, Sequence

from ..errors import VerificationError
from ..fo.instance import Instance
from ..fo.terms import Value
from ..obs import PHASE_EXPAND, REGISTRY, counter, gauge, histogram, phase
from ..runtime.slots import SlotCodec, SlotKey, SuccessorMemo
from ..runtime.state import GlobalState
from ..runtime.step import initial_states, successors
from ..spec.channels import ChannelSemantics
from ..spec.composition import Composition
from .product import SearchBudget


class StateInterner:
    """Hash-cons snapshots, as slot keys, into dense ids (ids are
    assignment order); decode an id's snapshot on first use, once
    (``decoded``, the ``graph.states_decoded`` counter, counts the
    decodes)."""

    __slots__ = ("codec", "decoded", "_ids", "_keys", "_states")

    def __init__(self, codec: SlotCodec) -> None:
        self.codec = codec
        self.decoded = counter("graph.states_decoded")
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
            self.decoded.inc()
            state = self._states[sid] = self.codec.decode(self._keys[sid])
        return state

    def __len__(self) -> int:
        return len(self._keys)


class SharedExploration:
    """The reachable snapshot graph of one composition, databases, domain
    and semantics, explored once and walked by every search over them.

    *budget* caps the states expanded (and, in the search, the product
    nodes); *env_value_domain* bounds an open composition's environment
    values (:func:`~repro.runtime.step.successors`).  Nodes are interned
    state ids; :meth:`successors_of` answers each id from its row once
    the row exists, and otherwise builds the row from the slot memo,
    calling ``successors()`` for the movers whose share is missing.
    Metric objects are held, and fetched again by :meth:`initial` (once
    per search) after a registry reset, as a forked child's.
    """

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
        codec = SlotCodec(composition)
        self.interner = StateInterner(codec)
        self.memo = SuccessorMemo(composition, codec)
        self._initial: tuple[int, ...] | None = None
        self._succ: dict[int, tuple[int, ...]] = {}
        self._complete = False
        self._generation = -1
        self._fetch_metrics()
        from .atoms import SharedSnapshotContext
        self.shared = SharedSnapshotContext(composition, self.interner)

    def _fetch_metrics(self) -> None:
        """Fetch the metric objects, if the registry was reset since."""
        if self._generation == REGISTRY.generation:
            return
        self._generation = REGISTRY.generation
        self.interner.decoded = counter("graph.states_decoded")
        self._reuse_hits = counter("graph.reuse_hits")
        self._memo_hits = counter("graph.successor_memo_hits")
        self._memo_misses = counter("graph.successor_memo_misses")
        self._expanded = counter("product.states_expanded")
        self._branching = histogram(
            "product.branching_factor",
            boundaries=(1, 2, 4, 8, 16, 32, 64, 128, 256))

    @property
    def states_expanded(self) -> int:
        return len(self._succ)

    def initial(self) -> tuple[int, ...]:
        self._fetch_metrics()
        if self._initial is None:
            self._initial = tuple(map(self.interner.intern, initial_states(
                self.composition, self.databases, self.domain)))
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
            self._reuse_hits.inc()
            return succ
        self.budget.check_states(len(self._succ))
        with phase(PHASE_EXPAND):
            key = self.interner.key_of(sid)
            blocks, missing = self.memo.row(key)
            if missing:
                self._memo_misses.inc()
                self.memo.file(key, blocks, successors(
                    self.composition, self.state_of(sid), self.domain,
                    self.semantics, env_one_action_per_move=True,
                    env_value_domain=self.env_value_domain,
                    movers=missing))
            else:
                self._memo_hits.inc()
            succ = self._succ[sid] = tuple(map(self.interner.intern_key,
                                               chain.from_iterable(blocks)))
        self._expanded.inc()
        self._branching.observe(len(succ))
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
