"""A reusable forward-fixpoint dataflow engine (worklist solver).

The interprocedural passes (:mod:`.flow`, :mod:`.provenance`) and the
cost model all reduce to the same shape: a finite set of nodes, a
dependency relation, and a monotone transfer function into a finite
join-semilattice.  :func:`solve` computes the least fixpoint with a
classic worklist: a node is re-evaluated when any node it depends on
changes, so the engine does work proportional to the number of fact
changes, not to ``rounds x nodes``.

``transfer(node, facts)`` may read any entry of ``facts`` (missing
nodes read as ``bottom``), but only its declared ``dependencies`` wake
it up -- reading an undeclared node risks a stale fixpoint, so declare
everything you read.  Transfers must be *monotone* (never shrink their
output as inputs grow); the engine guards against accidental
non-monotonicity with a generous step budget and raises instead of
spinning forever.

:func:`tarjan_sccs` (iterative Tarjan) is bundled here because cycle
condensation is the other half of every flow analysis: the deadlock
detector runs it over the channel wait-for graph.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Mapping, Sequence, TypeVar

N = TypeVar("N", bound=Hashable)
F = TypeVar("F")


def solve(nodes: Sequence[N],
          dependencies: Callable[[N], Iterable[N]],
          transfer: Callable[[N, Mapping[N, F]], F],
          bottom: F = frozenset(),  # type: ignore[assignment]
          ) -> dict[N, F]:
    """Least fixpoint of *transfer* over *nodes* (forward worklist).

    ``dependencies(n)`` lists the nodes whose facts ``transfer(n, ...)``
    reads; when any of them changes, ``n`` is re-evaluated.  Facts start
    at *bottom*.  Raises :class:`RuntimeError` when the step budget is
    exhausted (a non-monotone transfer, the only way a finite lattice
    fails to converge).
    """
    node_list = list(nodes)
    facts: dict[N, F] = {n: bottom for n in node_list}
    dependents: dict[N, list[N]] = {}
    for n in node_list:
        for dep in dependencies(n):
            dependents.setdefault(dep, []).append(n)

    worklist: deque[N] = deque(node_list)
    queued = set(node_list)
    budget = 64 + 32 * len(node_list) * (len(node_list) + 1)
    while worklist:
        budget -= 1
        if budget < 0:
            raise RuntimeError(
                "dataflow solve did not converge -- non-monotone "
                "transfer function?"
            )
        node = worklist.popleft()
        queued.discard(node)
        new = transfer(node, facts)
        if new == facts[node]:
            continue
        facts[node] = new
        for dependent in dependents.get(node, ()):
            if dependent not in queued:
                worklist.append(dependent)
                queued.add(dependent)
    return facts


def tarjan_sccs(nodes: Sequence[N],
                successors: Callable[[N], Iterable[N]],
                ) -> list[tuple[N, ...]]:
    """Strongly connected components, iteratively, in deterministic order.

    Components come back in reverse topological order (a component
    before everything it reaches), each as a tuple in discovery order.
    Successors outside *nodes* are ignored.
    """
    node_set = set(nodes)
    index: dict[N, int] = {}
    lowlink: dict[N, int] = {}
    on_stack: set[N] = set()
    stack: list[N] = []
    sccs: list[tuple[N, ...]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # (node, iterator over its remaining successors)
        work = [(root, iter(sorted((s for s in successors(root)
                                    if s in node_set), key=repr)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(
                        (s for s in successors(succ) if s in node_set),
                        key=repr))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[N] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(reversed(component)))
    return sccs


__all__ = ["solve", "tarjan_sccs"]
