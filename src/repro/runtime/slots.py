"""Snapshots as interned slot keys, and a memo of each mover's successors.

A snapshot of a composition is a fixed row of *slots*:

* every persistent relation (databases, states, inputs, previous inputs,
  actions, error flags), in qualified-name order;
* every channel, in ``Composition.channels`` order;
* then the mover, the enqueued channels and the sent channels.

:class:`SlotCodec` hash-conses every slot value into one value table, so
a snapshot becomes a *slot key*: a tuple of small ints, and two snapshots
of the composition are equal exactly when their keys are.  Values are
numbered in encounter order, so no key depends on ``PYTHONHASHSEED``.

Under serialized runs (Definitions 2.4 and 2.6) one mover -- a peer, or
the environment of an open composition -- changes only the slots its move
writes, and what it writes depends only on the slots its rules read and
the old values of the relations and channels it rewrites.
:class:`SuccessorMemo` therefore files each mover's share of a successor
row under the key's projection onto those slots (:func:`mover_slots`,
derived from the peer's move plan and the snapshot view table) and
answers a later state with the same projection without firing a rule.
Reads alone are not enough: a previous input keeps its old value when the
current input is empty, and a state relation or a queue is rewritten from
its old value.  Writes are more than needed: actions and ``error_Q``
flags, like the mover, enqueued and sent slots, are set afresh by every
move, so they enter a key only where a rule reads them (``error_Q``,
``move_W``, ``received_Q``; no rule reads an action).  Which slots a
relation of the snapshot view reads is one rule,
:meth:`SlotCodec.slots_of`, shared by the memo and by letters, whose
extension ids are read off the same projections.

The memo never computes a successor itself.  For a state whose row it
cannot complete, :meth:`SuccessorMemo.row` names the movers whose share
is missing; :func:`~repro.runtime.step.successors` expands the state for
those movers only, and :meth:`SuccessorMemo.file` files their shares and
splices the row in mover order.  ``successors()`` stays the only code
that fires rules.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from ..errors import SemanticsError
from ..fo.instance import Instance
from ..fo.schema import ENVIRONMENT_NAME, RelationKind
from ..spec.composition import Composition
from .state import GlobalState, _moved, _received, _view_table
from .step import _move_plans

#: The relation kinds a snapshot stores in ``GlobalState.data``.
PERSISTENT_KINDS = frozenset({
    RelationKind.DATABASE, RelationKind.STATE, RelationKind.INPUT,
    RelationKind.ACTION, RelationKind.PREV_INPUT, RelationKind.ERROR_FLAG,
})

#: A snapshot as a tuple of value ids, one per slot.
SlotKey = tuple


class SlotCodec:
    """One composition's slot layout and one value table.

    The layout comes from the composition's symbols alone, so building a
    codec fires no rules.  :meth:`encode` and :meth:`decode` are inverse:
    a decoded snapshot equals, hashes and renders as the one encoded
    (it lists every persistent relation, empty or not, which
    ``Instance`` equality ignores).
    """

    __slots__ = ("relations", "channels", "relation_slot", "channel_slot",
                 "mover", "enqueued", "sent", "_view", "_values", "_ids")

    def __init__(self, composition: Composition) -> None:
        #: persistent relation names; ``Schema`` iterates them sorted
        self.relations: tuple[str, ...] = tuple(
            sym.qualified_name for sym in composition.schema
            if sym.kind in PERSISTENT_KINDS)
        self.channels: tuple[str, ...] = tuple(
            c.name for c in composition.channels)
        self.relation_slot = {name: i for i, name in enumerate(self.relations)}
        self.channel_slot = {name: len(self.relations) + i
                             for i, name in enumerate(self.channels)}
        self.mover = len(self.relations) + len(self.channels)
        self.enqueued = self.mover + 1
        self.sent = self.mover + 2
        self._view = _view_table(composition)
        self._values: list = []
        self._ids: dict = {}

    def __len__(self) -> int:
        """The number of slots in a key."""
        return self.sent + 1

    def slots_of(self, names: Iterable[str]) -> tuple[int, ...]:
        """The slots behind the snapshot-view relations *names*, sorted:
        their extensions at a snapshot are a function of its key's
        projection onto these slots.

        A persistent relation reads its own slot; a queue head, a last
        message, ``empty_Q`` or an ``ENV.q`` view reads the channel's
        slot; ``received_Q`` reads the enqueued slot and ``move_W`` the
        mover slot.  A relation no snapshot stores is empty in every
        snapshot and reads no slot.
        """
        slots = set()
        for name in names:
            derived = self._view.get(name)
            if derived is None:
                slot = self.relation_slot.get(name)
                if slot is not None:
                    slots.add(slot)
                continue
            derive, argument = derived
            if derive is _received:
                slots.add(self.enqueued)
            elif derive is _moved:
                slots.add(self.mover)
            else:
                slots.add(self.channel_slot[argument[1]])
        return tuple(sorted(slots))

    def _value_id(self, value) -> int:
        vid = self._ids.get(value)
        if vid is None:
            vid = self._ids[value] = len(self._values)
            self._values.append(value)
        return vid

    def encode(self, state: GlobalState) -> SlotKey:
        names, contents = zip(*state.queues) if state.queues else ((), ())
        if names != self.channels:
            raise SemanticsError(
                f"snapshot queues {list(names)} do not match the "
                f"composition's channels {list(self.channels)}")
        values = state.data.extensions(self.relations)
        values += contents
        values += (state.mover, state.enqueued, state.sent)
        key = tuple(map(self._ids.get, values))
        if None in key:
            key = tuple(map(self._value_id, values))
        return key

    def decode(self, key: SlotKey) -> GlobalState:
        values = [self._values[vid] for vid in key]
        split = len(self.relations)
        return GlobalState(
            data=Instance._from_frozen(dict(zip(self.relations,
                                                values[:split]))),
            queues=tuple(zip(self.channels, values[split:self.mover])),
            mover=values[self.mover],
            enqueued=values[self.enqueued],
            sent=values[self.sent],
        )


def mover_slots(composition: Composition, codec: SlotCodec
                ) -> list[tuple[str, frozenset[int], frozenset[int]]]:
    """``(mover, slots its move depends on, relation and channel slots
    written)`` per mover, in the order
    :func:`~repro.runtime.step.successors` lists their moves: every peer
    in composition order, then the environment when the composition is
    open.  Every move also writes the mover, enqueued and sent slots.

    A peer's move depends on the slots behind every relation its rules
    mention (:meth:`SlotCodec.slots_of`) and on the old values of what
    it rewrites: its inputs (copied into previous inputs), previous
    inputs, updated states, and consumed and sent channels.  It also
    writes its actions and error flags, which every move recomputes, so
    they are depended on only where a rule reads them (an error flag;
    no rule reads an action).  The environment depends on and writes
    the channels it consumes or feeds.
    """
    out = []
    rel, chan = codec.relation_slot, codec.channel_slot
    for plan in _move_plans(composition).values():
        rules = [rule for _name, _arity, rule in plan.inputs]
        rules += [rule for _name, *pair in plan.updates for rule in pair]
        rules += [rule for _name, rule in plan.actions]
        rules += [rule for _channel, rule, _flag in plan.sends]
        rewritten = frozenset().union(
            [rel[name] for name, _arity, _rule in plan.inputs],
            [rel[prev] for _name, prev in plan.prev_inputs],
            [rel[name] for name, _ins, _dels in plan.updates],
            [chan[name] for name in plan.consumed],
            [chan[channel.name] for channel, _r, _f in plan.sends],
        )
        depends = rewritten.union(codec.slots_of(
            name for rule in rules if rule is not None
            for name in rule.relations))
        writes = rewritten.union(
            [rel[name] for name, _rule in plan.actions],
            [rel[flag] for _c, _r, flag in plan.sends if flag is not None],
        )
        out.append((plan.mover, depends, writes))
    if not composition.is_closed:
        channels = frozenset(
            chan[c.name] for c in composition.environment_channels())
        out.append((ENVIRONMENT_NAME, channels, channels))
    return out


class _Mover:
    """One mover's memo: its key projection, its row shares and how a
    share's written values are spliced into the source key."""

    __slots__ = ("name", "project", "written", "splice", "shares")

    def __init__(self, name: str, key_slots: Sequence[int],
                 writes: Sequence[int], width: int) -> None:
        self.name = name
        # a mover whose move depends on no slot has one share for
        # every state
        self.project = (itemgetter(*key_slots) if key_slots
                        else lambda key: ())
        # every move writes the mover, enqueued and sent slots, so
        # this returns a tuple
        self.written = itemgetter(*writes)
        at = {slot: width + i for i, slot in enumerate(writes)}
        #: ``splice(key + written values)`` is the successor's key
        self.splice = itemgetter(*(at.get(i, i) for i in range(width)))
        #: key projection -> the written values of each successor
        self.shares: dict = {}


class SuccessorMemo:
    """Each mover's share of a successor row, keyed on the slots that
    mover's move depends on and holding every slot it writes
    (:func:`mover_slots`)."""

    __slots__ = ("codec", "_movers")

    def __init__(self, composition: Composition, codec: SlotCodec) -> None:
        self.codec = codec
        events = {codec.mover, codec.enqueued, codec.sent}
        self._movers = [
            _Mover(name, sorted(depends), sorted(writes | events),
                   len(codec))
            for name, depends, writes in mover_slots(composition, codec)
        ]

    def row(self, key: SlotKey) -> tuple[list, list[str]]:
        """*key*'s successor row as one block of successor keys per
        mover, in mover order, and the names of the movers whose share
        is not memoized, whose blocks are None."""
        blocks: list = []
        missing: list[str] = []
        for mover in self._movers:
            shares = mover.shares.get(mover.project(key))
            if shares is None:
                blocks.append(None)
                missing.append(mover.name)
            else:
                splice = mover.splice
                blocks.append([splice(key + share) for share in shares])
        return blocks, missing

    def file(self, key: SlotKey, blocks: list,
             successors: Sequence[GlobalState]) -> None:
        """Fill the missing *blocks* of *key*'s row from *successors*.

        *successors* are the moves of the movers whose blocks are None,
        each mover's as one block, in mover order, as
        :func:`~repro.runtime.step.successors` lists them for those
        movers.  Each block is encoded, filed under its mover's
        projection of *key*, and put in its place in *blocks*.
        """
        encode = self.codec.encode
        keys = [encode(state) for state in successors]
        groups: dict[str, list[SlotKey]] = {
            mover.name: [] for mover, block in zip(self._movers, blocks)
            if block is None}
        for state, successor in zip(successors, keys):
            group = groups.get(state.mover)
            if group is None:
                raise SemanticsError(
                    f"a successor row holds a move by {state.mover!r}, "
                    f"whose share was not missing")
            group.append(successor)
        if [k for group in groups.values() for k in group] != keys:
            raise SemanticsError("a successor row interleaves its movers' "
                                 "moves; the memo cannot replay it")
        for i, mover in enumerate(self._movers):
            group = groups.get(mover.name)
            if group is not None:
                written = mover.written
                mover.shares[mover.project(key)] = tuple(
                    [written(successor) for successor in group])
                blocks[i] = group
