"""Peer and composition specifications (Section 2)."""

from .._lazy import lazy_exports
from .channels import (
    ChannelSemantics, DECIDABLE_DEFAULT, DECIDABLE_FAITHFUL,
    DETERMINISTIC_LOSSY, FlatSendDiscipline, NestedEmptySend, PERFECT_BOUNDED,
)
from .rules import Rule, RuleKind, rename_formula_relations
from .peer import Peer, PeerBuilder
from .composition import Channel, Composition
from .validate import validate_rule_vocabulary
from .dsl import (
    load, load_composition, load_databases, load_document,
    load_properties,
)

# loaded on first use: only the static analyzer builds the graph
__getattr__ = lazy_exports(__name__, {
    ".commgraph": ("CommEdge", "CommGraph", "QueueNode", "RuleNode",
                   "build_comm_graph"),
})

__all__ = [
    "Channel", "ChannelSemantics", "CommEdge", "CommGraph", "Composition",
    "DECIDABLE_DEFAULT", "DECIDABLE_FAITHFUL", "DETERMINISTIC_LOSSY",
    "FlatSendDiscipline", "NestedEmptySend", "PERFECT_BOUNDED", "Peer",
    "PeerBuilder", "QueueNode", "Rule", "RuleKind", "RuleNode",
    "build_comm_graph", "load", "load_composition", "load_databases",
    "load_document", "load_properties",
    "rename_formula_relations", "validate_rule_vocabulary",
]
