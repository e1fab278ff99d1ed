"""The static communication graph of a composition.

Nodes are the ``(peer, rule)`` occurrences and the ``(peer, queue)``
channel endpoints of a composition; edges record the three ways data
moves through it:

* ``send``    -- a send rule enqueues into its target channel;
* ``receive`` -- a rule of the receiver peer reads a channel's payload
  (``?Q`` atoms in its body), with the atom's polarity recorded;
* ``derive``  -- an intra-peer head/body dependency: a rule writing a
  local relation feeds every rule of the same peer that reads it (for
  input relations, reads of the derived ``prev_I`` symbol count too).

The graph is the shared substrate of the interprocedural analyzer
passes (:mod:`repro.analysis.flow`, :mod:`repro.analysis.provenance`)
and of the cost model: the DWV5xx deadlock detector reads the
channel-dependency quotient (channel ``q`` *waits for* channel ``p``
when some producer of ``q`` positively reads ``p``), and the dropped-
message detector runs a backward fixpoint over ``receive``/``send``
paths.  It is deliberately a plain syntactic object -- no abstraction
is baked in, so each pass applies its own.
"""

from __future__ import annotations

from typing import Iterator, Union

from .._record import field, record
from ..fo import formulas as fo
from ..fo.schema import prev_name
from .composition import Channel, Composition
from .rules import Rule, RuleKind


@record(frozen=True, slots=True)
class RuleNode:
    """One reaction rule of one peer (``index`` = position in the peer)."""

    peer: str
    kind: str       # the RuleKind value ("insert", "send", ...)
    target: str
    index: int

    def label(self) -> str:
        return f"peer {self.peer}, {self.kind} rule for {self.target}"


@record(frozen=True, slots=True)
class QueueNode:
    """One channel (queue) of the composition."""

    name: str

    def label(self) -> str:
        return f"queue {self.name}"


Node = Union[RuleNode, QueueNode]


@record(frozen=True, slots=True)
class CommEdge:
    """One dependency edge; ``label`` names the carrying relation."""

    src: Node
    dst: Node
    kind: str       # "send" | "receive" | "derive"
    label: str
    positive: bool = True


def formula_polarities(formula: fo.Formula,
                       positive: bool = True,
                       acc: dict[str, set[bool]] | None = None,
                       ) -> dict[str, set[bool]]:
    """Map each relation to the polarities it occurs under in *formula*."""
    if acc is None:
        acc = {}
    if isinstance(formula, fo.Atom):
        acc.setdefault(formula.rel, set()).add(positive)
    elif isinstance(formula, fo.Not):
        formula_polarities(formula.body, not positive, acc)
    elif isinstance(formula, fo.Implies):
        formula_polarities(formula.antecedent, not positive, acc)
        formula_polarities(formula.consequent, positive, acc)
    elif isinstance(formula, (fo.And, fo.Or)):
        for child in formula.children:
            formula_polarities(child, positive, acc)
    elif isinstance(formula, (fo.Exists, fo.Forall)):
        formula_polarities(formula.body, positive, acc)
    return acc


@record
class CommGraph:
    """The communication graph; query through the accessors below."""

    composition: Composition
    rule_nodes: tuple[RuleNode, ...]
    queue_nodes: tuple[QueueNode, ...]
    edges: tuple[CommEdge, ...]
    _succ: dict[Node, tuple[CommEdge, ...]] = field(repr=False)
    _pred: dict[Node, tuple[CommEdge, ...]] = field(repr=False)
    _rules: dict[RuleNode, Rule] = field(repr=False)

    def nodes(self) -> Iterator[Node]:
        yield from self.rule_nodes
        yield from self.queue_nodes

    def successors(self, node: Node) -> tuple[CommEdge, ...]:
        return self._succ.get(node, ())

    def predecessors(self, node: Node) -> tuple[CommEdge, ...]:
        return self._pred.get(node, ())

    def rule(self, node: RuleNode) -> Rule:
        return self._rules[node]

    def channel(self, name: str) -> Channel:
        return self.composition.channel(name)

    def producers(self, queue: str) -> tuple[RuleNode, ...]:
        """Send rules enqueuing into channel *queue* (sender side)."""
        node = QueueNode(queue)
        return tuple(e.src for e in self.predecessors(node)
                     if e.kind == "send")

    def consumers(self, queue: str) -> tuple[RuleNode, ...]:
        """Receiver-side rules whose body mentions channel *queue*."""
        node = QueueNode(queue)
        return tuple(e.dst for e in self.successors(node)
                     if e.kind == "receive")

    def waits_for(self, queue: str) -> tuple[str, ...]:
        """Channels some producer of *queue* positively reads.

        The channel-dependency quotient the deadlock detector runs
        SCCs over: ``q`` waits for ``p`` when a send rule producing
        ``q`` has a positive ``?p`` atom in its body.
        """
        out: set[str] = set()
        for producer in self.producers(queue):
            for edge in self.predecessors(producer):
                if edge.kind == "receive" and edge.positive:
                    out.add(edge.label)
        return tuple(sorted(out))


def build_comm_graph(composition: Composition) -> CommGraph:
    """Extract the communication graph of *composition*."""
    rule_nodes: list[RuleNode] = []
    rules_by_node: dict[RuleNode, Rule] = {}
    # per peer: local relation -> the rule nodes writing it
    writers: dict[tuple[str, str], list[RuleNode]] = {}
    channel_names = {c.name for c in composition.channels}
    receivers = {c.name: c.receiver for c in composition.channels}

    for peer in composition.peers:
        for index, rule in enumerate(peer.rules):
            node = RuleNode(peer.name, rule.kind.value, rule.target, index)
            rule_nodes.append(node)
            rules_by_node[node] = rule
            writers.setdefault((peer.name, rule.target), []).append(node)

    edges: list[CommEdge] = []
    queue_nodes = tuple(QueueNode(c.name)
                        for c in composition.channels)

    for node in rule_nodes:
        rule = rules_by_node[node]
        peer = composition.peer(node.peer)
        in_names = {q.name for q in peer.in_queues}
        polarities = formula_polarities(rule.body)

        # send edges: the rule enqueues into its target channel
        if rule.kind is RuleKind.SEND and rule.target in channel_names:
            edges.append(CommEdge(node, QueueNode(rule.target),
                                  "send", rule.target))

        for rel, pols in sorted(polarities.items()):
            for positive in sorted(pols):
                # receive edges: ?Q atoms against the peer's in-queues
                if rel in in_names and receivers.get(rel) == peer.name:
                    edges.append(CommEdge(QueueNode(rel), node,
                                          "receive", rel, positive))
                    continue
                # derive edges: intra-peer head/body dependencies
                base = rel
                if (peer.name, rel) not in writers:
                    # prev_I reads depend on the input rule for I
                    for inp in peer.inputs:
                        if rel == prev_name(inp.name):
                            base = inp.name
                            break
                for writer in writers.get((peer.name, base), ()):
                    if writer != node:
                        edges.append(CommEdge(writer, node,
                                              "derive", base, positive))

    succ: dict[Node, list[CommEdge]] = {}
    pred: dict[Node, list[CommEdge]] = {}
    for edge in edges:
        succ.setdefault(edge.src, []).append(edge)
        pred.setdefault(edge.dst, []).append(edge)
    return CommGraph(
        composition=composition,
        rule_nodes=tuple(rule_nodes),
        queue_nodes=queue_nodes,
        edges=tuple(edges),
        _succ={k: tuple(v) for k, v in succ.items()},
        _pred={k: tuple(v) for k, v in pred.items()},
        _rules=rules_by_node,
    )


__all__ = [
    "CommEdge", "CommGraph", "Node", "QueueNode", "RuleNode",
    "build_comm_graph", "formula_polarities",
]
