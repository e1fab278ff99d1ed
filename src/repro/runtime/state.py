"""Global run states (snapshots) of a composition.

A :class:`GlobalState` captures one snapshot of Definition 2.6: every
peer's configuration (database, state, current input, previous input,
actions, error flags -- all stored in one qualified :class:`Instance`),
the contents of every channel queue, which peer moved to produce the
snapshot, and the channel events of that transition (which channels got a
message enqueued -- the observer-at-recipient events -- and which channels
a send fired into -- the observer-at-source events, Section 4).

States are immutable and hashable, so model checking can keep visited
sets of them.

:func:`snapshot_view` renders a state as the relational structure property
formulas are evaluated over (Section 3): in-queue symbols denote the first
queued message ``f(Q)``, out-queue symbols the last enqueued message
``l(Q)``, plus the ``empty_Q``, ``received_Q`` and ``move_W`` propositions
and, for open compositions, the environment's channel views ``ENV.q``.
The view is lazy (:class:`SnapshotView`): reading one relation costs a
table lookup, and the full mapping is only built for whole-instance
operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping
from weakref import WeakKeyDictionary

from ..errors import SemanticsError
from ..fo.instance import FALSE_ROWS, TRUE_ROWS, Instance, Rows
from ..fo.schema import (
    ENVIRONMENT_NAME, empty_name, move_name, received_name,
)
from ..fo.terms import Value
from ..spec.composition import Composition

#: One message: a set of rows (singleton for flat queues).
Message = frozenset
#: The FIFO contents of one channel, head first.
QueueContents = tuple


@dataclass(frozen=True, slots=True)
class GlobalState:
    """One snapshot of a composition run.

    ``data`` holds all qualified persistent relations (databases, states,
    inputs, previous inputs, actions, error flags).  ``queues`` maps each
    channel name to its FIFO contents (a tuple of messages, head first),
    stored as a sorted tuple of pairs for hashability.  ``mover`` names
    the peer (or ``"ENV"``) whose move produced this snapshot, ``None``
    for an initial snapshot.  ``enqueued``/``sent`` are the channel events
    of the producing transition.
    """

    data: Instance
    queues: tuple
    mover: str | None = None
    enqueued: frozenset = frozenset()
    sent: frozenset = frozenset()
    # Memoized hash: the seed engine's visited sets and transition cache
    # hash snapshots millions of times, and the generated dataclass hash
    # re-walks the queue tuples on every call.  (The shared exploration
    # hashes slot keys instead, see repro.runtime.slots.)
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.data, self.queues, self.mover,
                      self.enqueued, self.sent))
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self) -> tuple:
        # the memoized hash is process-dependent (seeded string hashing):
        # never ship it to another process
        return (self.data, self.queues, self.mover, self.enqueued,
                self.sent)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(
            ("data", "queues", "mover", "enqueued", "sent"), state
        ):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", None)

    def queue(self, channel: str) -> QueueContents:
        for name, contents in self.queues:
            if name == channel:
                return contents
        raise SemanticsError(f"unknown channel {channel!r}")

    def queue_map(self) -> dict[str, QueueContents]:
        return dict(self.queues)

    def with_queues(self, queue_map: Mapping[str, QueueContents]
                    ) -> "GlobalState":
        return GlobalState(
            data=self.data,
            queues=freeze_queues(queue_map),
            mover=self.mover,
            enqueued=self.enqueued,
            sent=self.sent,
        )

    def total_queued_messages(self) -> int:
        return sum(len(contents) for _n, contents in self.queues)

    def active_domain(self) -> frozenset[Value]:
        """All values in relations or queued messages of this snapshot."""
        dom = set(self.data.active_domain())
        for _name, contents in self.queues:
            for message in contents:
                for row in message:
                    dom.update(row)
        return frozenset(dom)


def freeze_queues(queue_map: Mapping[str, Iterable]) -> tuple:
    """Canonical, hashable form of a channel-name -> contents mapping."""
    return tuple(sorted(
        (name, tuple(contents)) for name, contents in queue_map.items()
    ))


def empty_queues(composition: Composition) -> tuple:
    """All channels empty."""
    return freeze_queues({c.name: () for c in composition.channels})


def first_message(contents: QueueContents) -> frozenset:
    """``f(Q)``: rows of the first message, or empty if the queue is empty."""
    return contents[0] if contents else frozenset()


def last_message(contents: QueueContents) -> frozenset:
    """``l(Q)``: rows of the last enqueued message, or empty."""
    return contents[-1] if contents else frozenset()


def _queue(state: GlobalState, queue: tuple[int, str]) -> QueueContents:
    """Contents of channel ``queue = (index, name)`` of *state*.

    Every snapshot the runtime builds lists all channels in name order,
    the order of ``Composition.channels``.
    """
    index, channel = queue
    try:
        name, contents = state.queues[index]
    except IndexError:
        name = None
    if name != channel:
        raise SemanticsError(f"snapshot has no queue {channel!r} at "
                             f"position {index}")
    return contents


def _first(state: GlobalState, queue: tuple[int, str]) -> Rows:
    return first_message(_queue(state, queue))


def _last(state: GlobalState, queue: tuple[int, str]) -> Rows:
    return last_message(_queue(state, queue))


def _empty(state: GlobalState, queue: tuple[int, str]) -> Rows:
    return FALSE_ROWS if _queue(state, queue) else TRUE_ROWS


def _received(state: GlobalState, channel: str) -> Rows:
    return TRUE_ROWS if channel in state.enqueued else FALSE_ROWS


def _moved(state: GlobalState, mover: str) -> Rows:
    return TRUE_ROWS if state.mover == mover else FALSE_ROWS


#: composition -> its view table; weakly keyed, so a table lives as long
#: as its composition in this process and is never pickled with it.
_VIEW_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _view_table(composition: Composition) -> dict[str, tuple]:
    """The relations a snapshot view adds to ``state.data``.

    Maps each name to ``(derive, argument)``; ``derive(state, argument)``
    is the relation's extension at ``state``:

    * ``Receiver.q`` = first message of channel ``q`` (in-queue reading);
    * ``Sender.q``   = last enqueued message of ``q`` (out-queue reading);
    * ``Receiver.empty_q`` / ``Receiver.received_q`` propositions;
    * ``ENV.q`` views of environment channels (first message for channels
      the environment consumes, last message for channels it feeds);
    * ``move_W`` for every peer, and ``move_ENV`` when open.
    """
    table = _VIEW_TABLES.get(composition)
    if table is not None:
        return table
    table = {}
    for index, channel in enumerate(composition.channels):
        queue = (index, channel.name)
        if channel.receiver is not None:
            table[f"{channel.receiver}.{channel.name}"] = (_first, queue)
            table[f"{channel.receiver}.{empty_name(channel.name)}"] = (
                _empty, queue)
            table[f"{channel.receiver}.{received_name(channel.name)}"] = (
                _received, channel.name)
        else:
            table[f"{ENVIRONMENT_NAME}.{channel.name}"] = (_first, queue)
        if channel.sender is not None:
            table[f"{channel.sender}.{channel.name}"] = (_last, queue)
        else:
            table[f"{ENVIRONMENT_NAME}.{channel.name}"] = (_last, queue)
    for peer in composition.peers:
        table[move_name(peer.name)] = (_moved, peer.name)
    if not composition.is_closed:
        table[move_name(ENVIRONMENT_NAME)] = (_moved, ENVIRONMENT_NAME)
    _VIEW_TABLES[composition] = table
    return table


class SnapshotView(Instance):
    """The Section 3 view of one snapshot, derived relation by relation.

    ``view[name]`` reads ``state.data`` or derives a queue or move
    relation through the composition's :func:`_view_table`; so do
    ``truth``, ``is_empty`` and ``rows_matching``, which is all FO
    evaluation uses.  Operations on the whole instance -- iteration,
    ``relations()``, ``items()``, ``==``, ``hash``, ``repr``,
    ``active_domain()``, ``merged()`` and the other copies, pickling --
    first build the full sorted mapping, once per view, equal to
    ``state.data`` merged with every derived relation.
    """

    __slots__ = ("_state", "_table", "_full")

    def __init__(self, state: GlobalState, table: dict[str, tuple]) -> None:
        self._state = state
        self._table = table
        self._full = None
        self._hash = None
        self._indexes = None

    def __getitem__(self, name: str) -> Rows:
        derived = self._table.get(name)
        if derived is None:
            return self._state.data[name]
        derive, argument = derived
        return derive(self._state, argument)

    def __contains__(self, name: str) -> bool:
        return name in self._table or name in self._state.data

    @property
    def _data(self) -> dict:
        """The full sorted mapping, built on first use."""
        full = self._full
        if full is None:
            state = self._state
            merged = dict(state.data.items())
            for name, (derive, argument) in self._table.items():
                merged[name] = derive(state, argument)
            full = self._full = dict(sorted(merged.items()))
        return full

    def __reduce__(self):
        return (Instance._from_frozen, (self._data,))


def snapshot_view(state: GlobalState, composition: Composition
                  ) -> SnapshotView:
    """The relational structure properties and rules see at *state*.

    ``state.data`` plus the relations of :func:`_view_table`.
    """
    return SnapshotView(state, _view_table(composition))
