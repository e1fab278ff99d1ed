"""Atomic propositions evaluated on run snapshots.

During model checking, the Büchi automaton for (the negation of) an
instantiated LTL-FO property reads letters that are valuations of its
atomic propositions.  Two kinds of APs arise:

* closed FO sentences (the instantiated maximal FO subformulas), evaluated
  over the snapshot view per Section 3's semantics; and
* :class:`OccursAtom` markers used to implement the ``Dom(rho)``
  restriction of the universal closure: the paper quantifies closure
  variables over the *active domain of the run*, so a counterexample
  valuation may only use values that actually occur in the run.  For each
  fresh value ``v`` in the valuation, the verifier conjoins
  ``F occurs(v)`` to the negated property; ``occurs(v)`` holds at a
  snapshot iff ``v`` appears in some relation or queued message.

A letter is an int: every evaluator gives each of its APs one bit
(:func:`bit_table`), and ``letter(node)`` is the OR of the bits of the
APs true at that node.  :class:`~repro.verifier.product.ProductSystem`
compiles the automaton's guards against the same table, so the search
compares ints, never AP formula trees; :func:`decode_letter` turns a
mask back into the set of true APs.

An automaton AP is read through a *binding* (:func:`bindings`).  The
LTL-FO verifier translates each sentence once, as a template whose APs
are payload positions (:class:`PayloadAtom`); a valuation's evaluator
binds position *i* to payload *i* instantiated under the valuation, and
occurs and fairness atoms to themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from ..fo.evaluator import evaluate
from ..fo.formulas import Formula, relations
from ..fo.instance import Instance
from ..fo.terms import Value
from ..spec.composition import Composition
from ..runtime.state import GlobalState, snapshot_view


@dataclass(frozen=True, slots=True)
class OccursAtom:
    """AP: the value occurs in the current snapshot (relations or queues)."""

    value: Value

    def __str__(self) -> str:
        return f"occurs({self.value!r})"


@dataclass(frozen=True, slots=True)
class PayloadAtom:
    """AP of a template automaton: the sentence's FO payload at *index*
    (in ``LTLFOSentence.fo_payloads()`` order)."""

    index: int

    def __str__(self) -> str:
        return f"payload[{self.index}]"


def bindings(aps: Iterable[Hashable] | Mapping) -> dict:
    """Each AP with what its truth is read from: an FO sentence or an
    :class:`OccursAtom`.

    A mapping is taken as the binding, in its order; any other iterable
    binds each of its APs to itself.
    """
    if isinstance(aps, Mapping):
        return dict(aps)
    return {ap: ap for ap in aps}


def bit_table(aps: Iterable[Hashable]) -> dict:
    """Each AP's letter bit: ``1 << i`` in the iteration order of *aps*."""
    return {ap: 1 << i for i, ap in enumerate(aps)}


def decode_letter(bits: Mapping, mask: int) -> frozenset:
    """The APs a letter *mask* sets, read through the bit table *bits*."""
    return frozenset(ap for ap, bit in bits.items() if mask & bit)


class SnapshotEvaluator:
    """Evaluates AP valuations over snapshots, with caching.

    *aps* are the automaton's APs, or their binding (:func:`bindings`);
    bits follow its order.  The snapshot *view* (queue readings, move
    flags, ...) is cached per state; the letter (the mask of true APs)
    is cached per state for this evaluator's fixed AP set.
    """

    def __init__(self, composition: Composition, domain: Iterable[Value],
                 aps: Iterable[Hashable] | Mapping) -> None:
        self.composition = composition
        self.domain = tuple(domain)
        self.binding = bindings(aps)
        self.aps = frozenset(self.binding)
        self.bits = bit_table(self.binding)
        self._view_cache: dict[GlobalState, Instance] = {}
        self._letter_cache: dict[GlobalState, int] = {}
        # projection cache: the truth of an FO sentence depends only on
        # the extensions of the relations it mentions, which repeat
        # heavily across snapshots
        self._relevant: dict = {
            formula: tuple(sorted(relations(formula)))
            for formula in self.binding.values()
            if not isinstance(formula, OccursAtom)
        }
        self._truth_cache: dict = {}

    def view(self, state: GlobalState) -> Instance:
        cached = self._view_cache.get(state)
        if cached is None:
            cached = snapshot_view(state, self.composition)
            self._view_cache[state] = cached
        return cached

    def letter(self, state: GlobalState) -> int:
        cached = self._letter_cache.get(state)
        if cached is not None:
            return cached
        mask = 0
        snapshot_domain: frozenset[Value] | None = None
        view = None
        for ap, bit in self.bits.items():
            formula = self.binding[ap]
            if isinstance(formula, OccursAtom):
                if snapshot_domain is None:
                    snapshot_domain = state.active_domain()
                if formula.value in snapshot_domain:
                    mask |= bit
            else:
                if view is None:
                    view = self.view(state)
                key = (formula, tuple(
                    view[rel] for rel in self._relevant[formula]
                ))
                truth = self._truth_cache.get(key)
                if truth is None:
                    truth = evaluate(formula, view, self.domain)
                    self._truth_cache[key] = truth
                if truth:
                    mask |= bit
        self._letter_cache[state] = mask
        return mask


class ExtensionMemo:
    """One relation set's extension ids over an exploration.

    ``by_projection`` maps a slot key's projection onto the slots behind
    the relations (:meth:`~repro.runtime.slots.SlotCodec.slots_of`) to
    the id of the extensions every state with that projection has;
    ``witness`` maps each id to the first state seen with it, whose view
    the id's FO truths are evaluated on.
    """

    __slots__ = ("project", "by_projection", "witness")

    def __init__(self, slots: tuple[int, ...]) -> None:
        # a relation set no snapshot stores has one projection
        self.project = itemgetter(*slots) if slots else lambda key: ()
        self.by_projection: dict = {}
        self.witness: dict[int, int] = {}


class SharedSnapshotContext:
    """Per-exploration caches keyed on interned ids and slot keys.

    Owned by a :class:`~repro.verifier.graph.SharedExploration` and
    shared by every valuation's :class:`InternedSnapshotEvaluator`.  FO
    truths are shared across valuations and properties, keyed on two
    ints: the AP's id (:meth:`ap_id`, one per distinct formula) and an id
    of the extensions its relations have at the state
    (:meth:`extension_id`).

    An FO AP's truth at a snapshot depends only on the extensions of the
    relations it mentions (Section 3), and those are a function of the
    state's slot key projected onto the slots behind them.  So an
    extension id is read off the key: a state is decoded, and its view
    rendered, only the first time its relation set's projection is seen,
    and the id is then assigned from the tuple of extensions.  Ids stay
    coarser than projections (two queues with one head share an id, and
    its truths).  Views are kept for those first-sight states only, and
    active domains for the states an occurs atom reads.

    FO truths are keyed without the domain, so one context serves one
    verification domain only.  Over a completed exploration,
    :meth:`extension_classes` lists the distinct extensions a relation
    set takes across the graph, which letter classes are read on.
    """

    def __init__(self, composition: Composition, interner) -> None:
        self.composition = composition
        self.interner = interner
        self._views: dict[int, Instance] = {}
        self._domains: dict[int, frozenset] = {}
        self._ap_ids: dict[Formula, int] = {}
        self._extension_ids: dict[tuple, int] = {}
        #: relation set -> its extension memo
        self._memos: dict[tuple[str, ...], ExtensionMemo] = {}
        self._truths: dict[tuple[int, int], bool] = {}
        #: relation set -> its distinct extension ids, in state order
        self._classes: dict[tuple[str, ...], tuple[int, ...]] = {}

    def view(self, sid: int) -> Instance:
        cached = self._views.get(sid)
        if cached is None:
            cached = snapshot_view(self.interner.state_of(sid),
                                   self.composition)
            self._views[sid] = cached
        return cached

    def active_domain(self, sid: int) -> frozenset:
        cached = self._domains.get(sid)
        if cached is None:
            cached = self.interner.state_of(sid).active_domain()
            self._domains[sid] = cached
        return cached

    def ap_id(self, ap: Formula) -> int:
        """The id of an FO AP, equal for equal formulas."""
        return self._ap_ids.setdefault(ap, len(self._ap_ids))

    def extension_memo(self, rels: tuple[str, ...]) -> ExtensionMemo:
        """The extension memo of one relation set."""
        memo = self._memos.get(rels)
        if memo is None:
            memo = self._memos[rels] = ExtensionMemo(
                self.interner.codec.slots_of(rels))
        return memo

    def extension_id(self, sid: int, rels: tuple[str, ...]) -> int:
        """The id of *rels*' extensions at *sid*, read off the projection
        of *sid*'s slot key."""
        memo = self.extension_memo(rels)
        projection = memo.project(self.interner.key_of(sid))
        eid = memo.by_projection.get(projection)
        if eid is None:
            view = self.view(sid)
            extensions = tuple(view[rel] for rel in rels)
            eid = memo.by_projection[projection] = \
                self._extension_ids.setdefault(extensions,
                                               len(self._extension_ids))
            memo.witness.setdefault(eid, sid)
        return eid

    def extension_classes(self, rels: tuple[str, ...]) -> tuple[int, ...]:
        """The distinct extension ids of *rels* across every interned
        state, in the order of the first state with each.

        Memoized per relation set, so call it only on a completed
        exploration, whose interned states are the whole reachable graph.
        """
        classes = self._classes.get(rels)
        if classes is None:
            classes = self._classes[rels] = tuple(dict.fromkeys(
                self.extension_id(sid, rels)
                for sid in range(len(self.interner))))
        return classes

    def truth(self, ap_id: int, formula: Formula, eid: int,
              rels: tuple[str, ...], domain: tuple) -> bool:
        """The FO AP *ap_id*'s truth on extension *eid* of its relations
        *rels*, memoized; evaluated on the view of the first state seen
        with that extension."""
        key = (ap_id, eid)
        truth = self._truths.get(key)
        if truth is None:
            witness = self._memos[rels].witness[eid]
            truth = self._truths[key] = evaluate(formula, self.view(witness),
                                                 domain)
        return truth


class InternedSnapshotEvaluator:
    """Letter evaluation over interned state ids, with shared caches.

    The interned twin of :class:`SnapshotEvaluator`: same AP semantics
    and binding, but ``letter`` takes a dense state id, and the views,
    active domains and FO truths belong to the exploration's
    :class:`SharedSnapshotContext`, so valuations 2..N of a sweep mostly
    re-read memoized truths instead of re-evaluating formulas.  Each
    bound formula is hashed once, here; ``letter`` looks truths up by
    ``(ap_id, extension id)`` and memoizes this evaluator's letters per
    state.
    """

    def __init__(self, composition: Composition, domain: Iterable[Value],
                 aps: Iterable[Hashable] | Mapping,
                 shared: SharedSnapshotContext) -> None:
        self.composition = composition
        self.domain = tuple(domain)
        self.binding = bindings(aps)
        self.aps = frozenset(self.binding)
        self.shared = shared
        self.bits = bit_table(self.binding)
        self._occurs = []
        self._fo = []
        for ap, bit in self.bits.items():
            formula = self.binding[ap]
            if isinstance(formula, OccursAtom):
                self._occurs.append((bit, formula.value))
            else:
                rels = tuple(sorted(relations(formula)))
                self._fo.append((bit, shared.ap_id(formula), formula, rels,
                                 shared.extension_memo(rels)))
        self._letters: dict[int, int] = {}

    def letter(self, sid: int) -> int:
        mask = self._letters.get(sid)
        if mask is not None:
            return mask
        shared = self.shared
        mask = 0
        if self._occurs:
            present = shared.active_domain(sid)
            for bit, value in self._occurs:
                if value in present:
                    mask |= bit
        key = shared.interner.key_of(sid)
        for bit, ap_id, formula, rels, memo in self._fo:
            eid = memo.by_projection.get(memo.project(key))
            if eid is None:
                eid = shared.extension_id(sid, rels)
            if shared.truth(ap_id, formula, eid, rels, self.domain):
                mask |= bit
        self._letters[sid] = mask
        return mask

    def signature(self) -> tuple[int, ...]:
        """The FO part of this evaluator's letters on every state.

        For each FO AP in bit order, the mask of its truths on the
        distinct extensions its relations take across the graph
        (:meth:`SharedSnapshotContext.extension_classes`): an FO AP's
        truth at a state is its truth on the state's extension.  Two
        evaluators of one template automaton with equal signatures read
        the same letter on every state, since their occurs atoms are the
        template's.  Call it only on a completed exploration.
        """
        shared = self.shared
        signature = []
        for _bit, ap_id, formula, rels, _memo in self._fo:
            mask = 0
            for i, eid in enumerate(shared.extension_classes(rels)):
                if shared.truth(ap_id, formula, eid, rels, self.domain):
                    mask |= 1 << i
            signature.append(mask)
        return tuple(signature)


def evaluate_sentence_on_snapshot(formula: Formula, state: GlobalState,
                                  composition: Composition,
                                  domain: Iterable[Value]) -> bool:
    """Convenience: truth of a closed FO sentence at one snapshot."""
    return evaluate(formula, snapshot_view(state, composition),
                    tuple(domain))
