"""Communication-channel semantics knobs (Section 2, "Lossy and perfect
channels"; Section 3.1, bounded queues; Theorem 3.8, deterministic sends).

Every combination the paper's theorems distinguish is expressible as a
:class:`ChannelSemantics` value:

* ``lossy`` -- sent messages may nondeterministically fail to be enqueued
  (True, the default, matching Theorem 3.4's decidable configuration) or
  are always enqueued (perfect channels, Theorem 3.7's undecidable one);
* ``queue_bound`` -- the maximum number of messages a queue may hold
  (k-bounded queues; messages arriving at a full queue are dropped).
  ``None`` means unbounded, which is simulation-only (Corollary 3.6);
* ``flat_send`` -- what happens when a flat send rule yields several
  candidate tuples: pick one nondeterministically (the paper's default) or
  treat it as a run-time error, raising the ``error_Q`` flag and sending
  nothing (Theorem 3.8's "deterministic send rules");
* ``nested_empty_send`` -- whether a nested send rule that yields no tuples
  still enqueues an empty message (the letter of Definition 2.4) or skips
  sending.  Theorem 3.9's emptiness tests are only meaningful when empty
  nested messages exist, so ``ENQUEUE`` is the default.
* ``perfect_nested`` -- the remark after Theorem 3.4: decidability still
  holds when *nested* channels are perfect while flat channels stay lossy.
  When True and ``lossy`` is True, only flat messages may be dropped.
"""

from __future__ import annotations

import enum

from .._record import record
from ..errors import SemanticsError


class FlatSendDiscipline(enum.Enum):
    """Resolution of multiple candidate tuples on a flat send."""

    NONDETERMINISTIC = "nondeterministic"
    DETERMINISTIC_ERROR = "deterministic_error"


class NestedEmptySend(enum.Enum):
    """Treatment of a nested send rule yielding the empty set."""

    ENQUEUE = "enqueue"   # faithful to Definition 2.4
    SKIP = "skip"         # convenience mode for application modelling


@record(frozen=True, slots=True)
class ChannelSemantics:
    """A complete choice of communication semantics for a composition."""

    lossy: bool = True
    queue_bound: int | None = 1
    flat_send: FlatSendDiscipline = FlatSendDiscipline.NONDETERMINISTIC
    nested_empty_send: NestedEmptySend = NestedEmptySend.SKIP
    perfect_nested: bool = False

    def __post_init__(self) -> None:
        if self.queue_bound is not None and self.queue_bound < 1:
            raise SemanticsError("queue_bound must be >= 1 or None")

    @property
    def bounded(self) -> bool:
        return self.queue_bound is not None

    def flat_is_lossy(self) -> bool:
        return self.lossy

    def nested_is_lossy(self) -> bool:
        return self.lossy and not self.perfect_nested

    def describe(self) -> str:
        """One-line human-readable description for reports."""
        parts = [
            "lossy" if self.lossy else "perfect",
            f"{self.queue_bound}-bounded" if self.bounded else "unbounded",
            self.flat_send.value.replace("_", "-") + "-flat-send",
        ]
        if self.perfect_nested and self.lossy:
            parts.append("perfect-nested")
        if self.nested_empty_send is NestedEmptySend.ENQUEUE:
            parts.append("empty-nested-sends")
        return ", ".join(parts)


#: Theorem 3.4's decidable configuration (the library default).
DECIDABLE_DEFAULT = ChannelSemantics(
    lossy=True, queue_bound=1,
    flat_send=FlatSendDiscipline.NONDETERMINISTIC,
    nested_empty_send=NestedEmptySend.SKIP,
)

#: The paper-faithful variant that enqueues empty nested messages.
DECIDABLE_FAITHFUL = ChannelSemantics(
    lossy=True, queue_bound=1,
    flat_send=FlatSendDiscipline.NONDETERMINISTIC,
    nested_empty_send=NestedEmptySend.ENQUEUE,
)

#: Theorem 3.7's undecidable configuration: perfect 1-bounded channels.
PERFECT_BOUNDED = ChannelSemantics(lossy=False, queue_bound=1)

#: Theorem 3.8's configuration: lossy flat queues with deterministic sends.
DETERMINISTIC_LOSSY = ChannelSemantics(
    lossy=True, queue_bound=1,
    flat_send=FlatSendDiscipline.DETERMINISTIC_ERROR,
)
