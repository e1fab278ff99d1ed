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
are payload positions (:class:`PayloadAtom`); a valuation's binding maps
position *i* to payload *i* as a :class:`BoundTemplate` (the payload and
the valuation, which supplies the values of its free variables), and
occurs and fairness atoms to themselves.  No formula is instantiated on
this path: under Section 3's closure semantics a valuation reaches the
automaton only through each payload's truth, which
:class:`SharedSnapshotContext` keys on the template, the values of its
free variables and the extensions it reads.  So a sweep files a
valuation under its letter class straight from its binding
(:meth:`SharedSnapshotContext.signature`), and builds an
:class:`InternedSnapshotEvaluator` only for the bindings it searches.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from .._record import record
from ..errors import FormulaError
from ..fo.evaluator import decide
from ..fo.formulas import Formula, free_vars, relations
from ..fo.instance import Instance
from ..fo.terms import Value, Var
from ..obs import PHASE_FO_EVAL, phase
from ..spec.composition import Composition
from ..runtime.state import snapshot_view


@record(frozen=True, slots=True)
class OccursAtom:
    """AP: the value occurs in the current snapshot (relations or queues)."""

    value: Value

    def __str__(self) -> str:
        return f"occurs({self.value!r})"


@record(frozen=True, slots=True)
class PayloadAtom:
    """AP of a template automaton: the sentence's FO payload at *index*
    (in ``LTLFOSentence.fo_payloads()`` order)."""

    index: int

    def __str__(self) -> str:
        return f"payload[{self.index}]"


@record(frozen=True, slots=True, eq=False)
class BoundTemplate:
    """What a valuation's FO AP reads: the FO formula *template* with its
    free variables taking their values from *valuation*.

    The shared context evaluates the template under those values and
    keys its truths on them (:meth:`SharedSnapshotContext.payload`); the
    reference evaluator instantiates it.
    """

    template: Formula
    valuation: Mapping[Var, Value]


def bindings(aps: Iterable[Hashable] | Mapping) -> dict:
    """Each AP with what its truth is read from: a :class:`BoundTemplate`,
    a closed FO formula (a template with no free variables to bind) or
    an :class:`OccursAtom`.

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


class PayloadTruths:
    """One bound template's truths, by extension id of its relations.

    ``env`` binds the template's free variables to the valuation's
    values; ``memo`` is its relation set's :class:`ExtensionMemo`, whose
    witnesses the truths are evaluated on.
    """

    __slots__ = ("template", "env", "rels", "memo", "by_extension")

    def __init__(self, template: Formula, env: dict, rels: tuple[str, ...],
                 memo: ExtensionMemo) -> None:
        self.template = template
        self.env = env
        self.rels = rels
        self.memo = memo
        self.by_extension: dict[int, bool] = {}


class SharedSnapshotContext:
    """Per-exploration caches keyed on interned ids and slot keys.

    Owned by a :class:`~repro.verifier.graph.SharedExploration` and
    shared by every search's :class:`InternedSnapshotEvaluator`, the
    letter classes of a sweep (:meth:`signature`) and modular's pair
    evaluator.  FO truths are shared across valuations and properties,
    keyed on a template's id (:meth:`template`, one per distinct
    formula), the valuation's values of its free variables (none for a
    closed formula) and an id of the extensions its relations have at
    the state (:meth:`extension_id`).  A pair evaluator's truths are
    keyed on the formula's id and the extension ids of the previous and
    the current state (:meth:`pair_truths`).

    An FO AP's truth at a snapshot depends only on the extensions of the
    relations it mentions (Section 3), and those are a function of the
    state's slot key projected onto the slots behind them.  So an
    extension id is read off the key: a state is decoded, and its view
    rendered, only the first time its relation set's projection is seen,
    and the id is then assigned from the tuple of extensions.  Ids stay
    coarser than projections (two queues with one head share an id, and
    its truths).  Views are kept for those first-sight states (and the
    states a pair evaluator reads), and active domains for the states an
    occurs atom reads.

    FO truths are keyed without the domain, so a context evaluates them
    over its exploration's *domain* only.  Over a completed exploration,
    :meth:`extension_classes` lists the distinct extensions a relation
    set takes across the graph, which letter classes are read on.
    """

    def __init__(self, composition: Composition, interner,
                 domain: tuple[Value, ...]) -> None:
        self.composition = composition
        self.interner = interner
        self.domain = domain
        self._views: dict[int, Instance] = {}
        self._domains: dict[int, frozenset] = {}
        #: template -> (id, sorted relations, free variables by name)
        self._templates: dict[Formula, tuple] = {}
        self._extension_ids: dict[tuple, int] = {}
        #: relation set -> its extension memo
        self._memos: dict[tuple[str, ...], ExtensionMemo] = {}
        #: (template id, values) -> its truths
        self._truths: dict[tuple[int, tuple], PayloadTruths] = {}
        #: template id -> truths by (previous, current) extension ids
        self._pair_truths: dict[int, dict[tuple[int, int], bool]] = {}
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

    def template(self, formula: Formula
                 ) -> tuple[int, tuple[str, ...], tuple[Var, ...]]:
        """An FO formula's id (equal for equal formulas), its relations
        sorted, and its free variables in name order; interned once."""
        entry = self._templates.get(formula)
        if entry is None:
            entry = self._templates[formula] = (
                len(self._templates), tuple(sorted(relations(formula))),
                tuple(sorted(free_vars(formula), key=lambda v: v.name)))
        return entry

    def payload(self, source: BoundTemplate | Formula) -> PayloadTruths:
        """The truths of what an FO AP is bound to: a :class:`BoundTemplate`
        or a closed formula, the same template with no values.

        Interned on the template's id and the valuation's values of its
        free variables, checked here, once per binding: a free variable
        the valuation leaves unbound is a :class:`FormulaError`.
        """
        if isinstance(source, BoundTemplate):
            template, valuation = source.template, source.valuation
        else:
            template, valuation = source, {}
        tid, rels, variables = self.template(template)
        try:
            values = tuple([valuation[v] for v in variables])
        except KeyError:
            missing = [v.name for v in variables if v not in valuation]
            raise FormulaError(
                f"payload {template} has free variables {missing} that "
                f"its valuation does not bind") from None
        payload = self._truths.get((tid, values))
        if payload is None:
            env = {v.name: value for v, value in zip(variables, values)}
            payload = self._truths[(tid, values)] = PayloadTruths(
                template, env, rels, self.extension_memo(rels))
        return payload

    def pair_truths(self, formula: Formula) -> dict[tuple[int, int], bool]:
        """A closed pair formula's truths, by the extension ids of its
        previous-state and current-state relations (modular's
        ``PairEvaluator`` fills them in)."""
        return self._pair_truths.setdefault(self.template(formula)[0], {})

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

    def truth(self, payload: PayloadTruths, eid: int) -> bool:
        """A bound template's truth on extension *eid* of its relations,
        memoized (:meth:`truths`)."""
        truth = payload.by_extension.get(eid)
        if truth is None:
            truth = self.truths(payload, (eid,))[eid]
        return truth

    def truths(self, payload: PayloadTruths, eids) -> dict[int, bool]:
        """A bound template's truths by extension id, once those on the
        ids *eids* it lacks are decided, under one ``fo-eval`` phase
        entry.

        Each is decided, under the valuation's values, on the view of
        the first state seen with that extension (:meth:`payload` checked
        that the values bind every free variable).
        """
        known = payload.by_extension
        missing = [eid for eid in eids if eid not in known]
        if missing:
            with phase(PHASE_FO_EVAL):
                for eid in missing:
                    known[eid] = decide(
                        payload.template,
                        self.view(payload.memo.witness[eid]), self.domain,
                        payload.env)
        return known

    def signature(self, binding: Mapping) -> tuple[int, ...]:
        """The FO part of a binding's letters on every state.

        For each FO AP in binding (bit) order, the mask of its truths on
        the distinct extensions its relations take across the graph
        (:meth:`extension_classes`): an FO AP's truth at a state is its
        truth on the state's extension.  Two bindings of one template
        automaton with equal signatures read the same letter on every
        state, since their occurs atoms are the template's.  Call it
        only on a completed exploration.
        """
        signature = []
        for source in binding.values():
            if isinstance(source, OccursAtom):
                continue
            payload = self.payload(source)
            classes = self.extension_classes(payload.rels)
            truths = self.truths(payload, classes)
            mask = 0
            for i, eid in enumerate(classes):
                if truths[eid]:
                    mask |= 1 << i
            signature.append(mask)
        return tuple(signature)


class InternedSnapshotEvaluator:
    """Letter evaluation over interned state ids, with shared caches.

    *aps* are the automaton's APs, or their binding (:func:`bindings`);
    bits follow its order.  A sweep builds one per search, not one per
    valuation: valuations whose bindings have equal signatures
    (:meth:`SharedSnapshotContext.signature`) share the search of the
    first.  ``letter`` takes a dense state id, and the views, active
    domains and FO truths belong to the exploration's *shared* context,
    so valuations that bind a payload's free variables alike share its
    truths.  Each FO AP's truths are looked up once, here
    (:meth:`SharedSnapshotContext.payload`); ``letter`` reads them by
    extension id and memoizes this evaluator's letters per state.
    """

    def __init__(self, aps: Iterable[Hashable] | Mapping,
                 shared: SharedSnapshotContext) -> None:
        self.binding = bindings(aps)
        self.shared = shared
        self.bits = bit_table(self.binding)
        self._occurs = []
        self._fo = []
        for ap, bit in self.bits.items():
            source = self.binding[ap]
            if isinstance(source, OccursAtom):
                self._occurs.append((bit, source.value))
            else:
                self._fo.append((bit, shared.payload(source)))
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
        for bit, payload in self._fo:
            memo = payload.memo
            eid = memo.by_projection.get(memo.project(key))
            if eid is None:
                eid = shared.extension_id(sid, payload.rels)
            if shared.truth(payload, eid):
                mask |= bit
        self._letters[sid] = mask
        return mask
