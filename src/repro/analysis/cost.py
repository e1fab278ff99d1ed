"""The static cost model: per-peer reachable-state upper bounds.

A peer's contribution to the composition's reachable state space is
bounded by its mutable relational state over the verification domain:
each state relation ``S/k`` contributes up to ``2^(n^k)`` subsets over
an ``n``-value domain, each input/prev-input/action relation holds at
most one tuple (``n^k + 1`` options), and each queue slot of a
``k``-bounded channel holds one message or nothing.  Working in
log-space keeps the numbers additive and finite::

    bits(peer, n) =   sum_S  n^arity(S)                      (state)
                    + sum_I  2 * log2(n^arity(I) + 1)        (input + prev)
                    + sum_A  log2(n^arity(A) + 1)            (action)
                    + sum_Q  bound * log2(n^arity(Q) + 1)    (queues)

These are *hints*, not admissible bounds -- the propositional
abstraction ignores rule guards entirely -- but they are monotone in
what actually drives sweep cost (arity, domain size, queue bounds).

The lint-facing :func:`cost_pass` publishes them on the report
(``cost_hints``) for a nominal domain, and never emits diagnostics --
cost is advisory, not a defect.
"""

from __future__ import annotations

import math

from ..spec.composition import Composition
from ..spec.peer import Peer
from .diagnostics import Diagnostic
from .passes import AnalysisContext, AnalysisPass


def peer_state_bits(peer: Peer, domain_size: int,
                    queue_bound: int = 1) -> float:
    """Log2 upper bound on *peer*'s local state-space contribution."""
    n = max(2, domain_size)
    bits = 0.0
    for sym in peer.states:
        bits += float(n) ** sym.arity
    for sym in peer.inputs:
        bits += 2.0 * math.log2(float(n) ** sym.arity + 1.0)
    for sym in peer.actions:
        bits += math.log2(float(n) ** sym.arity + 1.0)
    for sym in peer.in_queues + peer.out_queues:
        slots = max(1, queue_bound)
        bits += slots * math.log2(float(n) ** sym.arity + 1.0)
    return bits


def composition_cost(composition: Composition, domain_size: int,
                     queue_bound: int = 1) -> dict[str, float]:
    """Per-peer bits plus the composition total, for one domain size."""
    peers = {
        peer.name: peer_state_bits(peer, domain_size, queue_bound)
        for peer in composition.peers
    }
    return {
        "domain_size": float(max(2, domain_size)),
        "total": sum(peers.values()),
        **{f"peer.{name}": bits for name, bits in sorted(peers.items())},
    }


def cost_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    """Publish nominal cost hints on the context; emits no diagnostics."""
    composition = ctx.composition
    nominal = max(2, len(composition.constants()) + 1)
    ctx.cost_hints = composition_cost(
        composition, nominal, max(1, ctx.semantics.queue_bound))
    return []


#: The pass object registered in :data:`repro.analysis.passes.ALL_PASSES`.
CostPass = AnalysisPass(
    "cost", cost_pass,
    "static reachable-state cost model (advisory hints)",
)


__all__ = [
    "CostPass", "composition_cost", "cost_pass", "peer_state_bits",
]
