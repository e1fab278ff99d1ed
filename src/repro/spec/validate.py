"""Vocabulary and channel validation (Definitions 2.1 and 2.5).

Per-peer rule vocabulary (Definition 2.1) -- each rule family may
mention a specific part of the peer's schema:

* input rules:  D, S, PrevI, Qin  (no current inputs, no actions)
* state rules:  D, S, I, PrevI, Qin
* action rules: D, S, I, PrevI, Qin
* send rules:   D, S, I, PrevI, Qin

No rule body may mention action relations or out-queue relations.  Queue
states ``empty_Q`` count as state (the paper puts them in S); the
``error_Q`` flags of Theorem 3.8 are likewise state-like and "can be
consulted by the peer rules".

Composition-level channel declarations (Definition 2.5) are validated by
:func:`collect_channel_issues`: duplicate queue names (two senders or two
receivers), self-channels, endpoint arity/shape mismatches, and dangling
endpoints.  :class:`~repro.spec.composition.Composition` raises on the
fatal issues at construction time; ``repro lint`` reports all of them as
structured diagnostics.
"""

from __future__ import annotations

from typing import Sequence

from .._record import record
from ..errors import SpecificationError
from ..fo.formulas import relations as formula_relations
from ..fo.schema import RelationKind, Schema
from .rules import Rule, RuleKind

_COMMON_KINDS = frozenset({
    RelationKind.DATABASE,
    RelationKind.STATE,
    RelationKind.PREV_INPUT,
    RelationKind.IN_QUEUE,
    RelationKind.QUEUE_STATE,
    RelationKind.ERROR_FLAG,
})

_ALLOWED_KINDS: dict[RuleKind, frozenset[RelationKind]] = {
    RuleKind.INPUT: _COMMON_KINDS,
    RuleKind.INSERT: _COMMON_KINDS | {RelationKind.INPUT},
    RuleKind.DELETE: _COMMON_KINDS | {RelationKind.INPUT},
    RuleKind.ACTION: _COMMON_KINDS | {RelationKind.INPUT},
    RuleKind.SEND: _COMMON_KINDS | {RelationKind.INPUT},
}


def validate_rule_vocabulary(peer_name: str, rule: Rule,
                             schema: Schema) -> None:
    """Raise :class:`SpecificationError` if *rule* uses forbidden symbols."""
    allowed = _ALLOWED_KINDS[rule.kind]
    for rel in sorted(formula_relations(rule.body)):
        sym = schema.get(rel)
        if sym is None:
            raise SpecificationError(
                f"peer {peer_name}: rule for {rule.target!r} mentions "
                f"unknown relation {rel!r}"
            )
        if sym.kind not in allowed:
            raise SpecificationError(
                f"peer {peer_name}: {rule.kind.value} rule for "
                f"{rule.target!r} may not mention {rel!r} "
                f"(kind {sym.kind.value})"
            )


# -- composition-level channel validation (Definition 2.5) -------------------


@record(frozen=True, slots=True)
class ChannelIssue:
    """One problem with a composition's channel declarations.

    ``fatal`` issues make the composition unbuildable (``Composition``
    raises); non-fatal ones (dangling endpoints) merely make it open.
    ``code`` is the stable ``DWV3xx`` diagnostic code for ``repro lint``.
    """

    kind: str                  # duplicate_sender | duplicate_receiver |
                               # self_channel | endpoint_mismatch | dangling
    queue: str
    peers: tuple[str, ...]
    message: str
    fatal: bool
    code: str

    def __str__(self) -> str:
        return self.message


def collect_channel_issues(peers: Sequence) -> list[ChannelIssue]:
    """All channel-declaration issues across *peers* (Definition 2.5).

    Accepts anything with ``name``/``in_queues``/``out_queues``
    attributes (normally :class:`~repro.spec.peer.Peer` values).
    """
    issues: list[ChannelIssue] = []
    senders: dict[str, tuple[str, object]] = {}
    receivers: dict[str, tuple[str, object]] = {}
    for peer in peers:
        for q in peer.out_queues:
            if q.name in senders:
                issues.append(ChannelIssue(
                    "duplicate_sender", q.name,
                    (senders[q.name][0], peer.name),
                    f"queue {q.name!r} is an out-queue of both "
                    f"{senders[q.name][0]!r} and {peer.name!r}",
                    fatal=True, code="DWV304",
                ))
            else:
                senders[q.name] = (peer.name, q)
        for q in peer.in_queues:
            if q.name in receivers:
                issues.append(ChannelIssue(
                    "duplicate_receiver", q.name,
                    (receivers[q.name][0], peer.name),
                    f"queue {q.name!r} is an in-queue of both "
                    f"{receivers[q.name][0]!r} and {peer.name!r}",
                    fatal=True, code="DWV304",
                ))
            else:
                receivers[q.name] = (peer.name, q)

    for name in sorted(set(senders) | set(receivers)):
        out_end = senders.get(name)
        in_end = receivers.get(name)
        if out_end and in_end:
            s_peer, s_sym = out_end
            r_peer, r_sym = in_end
            if s_peer == r_peer:
                issues.append(ChannelIssue(
                    "self_channel", name, (s_peer,),
                    f"queue {name!r}: self-channels (sender == receiver "
                    f"== {s_peer!r}) are not supported; route through a "
                    "relay peer instead",
                    fatal=True, code="DWV308",
                ))
            elif (s_sym.arity != r_sym.arity
                    or s_sym.nested != r_sym.nested):
                issues.append(ChannelIssue(
                    "endpoint_mismatch", name, (s_peer, r_peer),
                    f"queue {name!r}: endpoint mismatch between "
                    f"{s_peer!r} ({s_sym.arity}, nested={s_sym.nested}) "
                    f"and {r_peer!r} ({r_sym.arity}, "
                    f"nested={r_sym.nested})",
                    fatal=True, code="DWV305",
                ))
        else:
            end_peer = (out_end or in_end)[0]
            role = "receiver" if out_end else "sender"
            issues.append(ChannelIssue(
                "dangling", name, (end_peer,),
                f"queue {name!r} has no {role}: the environment becomes "
                "the missing endpoint (open composition)",
                fatal=False, code="DWV309",
            ))
    return issues


def validate_composition_channels(peers: Sequence) -> None:
    """Raise :class:`SpecificationError` on the first fatal channel issue."""
    for issue in collect_channel_issues(peers):
        if issue.fatal:
            raise SpecificationError(issue.message)
