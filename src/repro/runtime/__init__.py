"""Operational semantics: snapshots, transitions, runs, environments."""

from .._lazy import lazy_exports
from .state import (
    GlobalState, Message, QueueContents, empty_queues, first_message,
    freeze_queues, last_message, snapshot_view,
)
from .step import (
    clear_rule_cache, initial_states, input_choices, peer_successors,
    rule_cache_delta, rule_cache_info, successors,
)

# loaded on first use: only open compositions step an environment, and
# only a counterexample, a simulation or a replay needs runs
__getattr__ = lazy_exports(__name__, {
    ".environment": ("environment_successors",),
    ".run": ("Lasso", "iterate_snapshot_views", "reachable_states",
             "simulate", "validate_lasso"),
})

__all__ = [
    "GlobalState", "Lasso", "Message", "QueueContents", "clear_rule_cache",
    "empty_queues", "environment_successors", "first_message",
    "freeze_queues", "initial_states", "input_choices",
    "iterate_snapshot_views", "last_message", "peer_successors",
    "reachable_states", "rule_cache_delta", "rule_cache_info",
    "simulate", "snapshot_view",
    "successors", "validate_lasso",
]
