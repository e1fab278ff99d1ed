"""Nested depth-first search for accepting lassos (Büchi emptiness).

The classic Courcoubetis-Vardi-Wolper-Yannakakis algorithm, iterative (no
recursion limits), with counterexample extraction: the blue DFS explores
the product graph; when an accepting node is finished, a red DFS looks for
a cycle back to the blue stack.  Red marks persist across seeds, keeping
the whole search linear in the product size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import VerificationError
from ..obs import PHASE_SEARCH, counter, phase
from .product import ProductNode, ProductSystem


@dataclass
class SearchStats:
    """Counters reported by one emptiness search."""

    blue_visited: int = 0
    red_visited: int = 0

    @property
    def nodes_visited(self) -> int:
        return self.blue_visited + self.red_visited


@dataclass
class LassoNodes:
    """An accepting lasso in the product: prefix then cycle (non-empty)."""

    prefix: tuple[ProductNode, ...]
    cycle: tuple[ProductNode, ...]


def _red_search(seed: ProductNode,
                successors: Callable[[ProductNode], Iterator[ProductNode]],
                cyan: set, red: set,
                stats: SearchStats) -> list[ProductNode] | None:
    """DFS from *seed*; returns a path ``seed -> ... -> t`` with t cyan."""
    parents: dict[ProductNode, ProductNode] = {}
    stack = [seed]
    local_seen = {seed}
    while stack:
        node = stack.pop()
        for succ in successors(node):
            if succ in cyan:
                # found the closing edge; rebuild the red path
                path = [succ]
                cur = node
                while cur != seed:
                    path.append(cur)
                    cur = parents[cur]
                path.append(seed)
                path.reverse()
                return path  # seed, ..., node, t(cyan)
            if succ not in red and succ not in local_seen:
                local_seen.add(succ)
                parents[succ] = node
                stack.append(succ)
                stats.red_visited += 1
    red.update(local_seen)
    return None


def find_accepting_lasso(product: ProductSystem,
                         max_nodes: int | None = None
                         ) -> tuple[LassoNodes | None, SearchStats]:
    """Search the product for a reachable accepting cycle.

    Returns ``(lasso, stats)``; ``lasso`` is None iff no run of the system
    satisfies the automaton's (negated-property) language -- i.e. the
    property holds.
    """
    stats = SearchStats()
    try:
        with phase(PHASE_SEARCH):
            return _blue_dfs(product, stats, max_nodes)
    finally:
        counter("search.blue_visited").inc(stats.blue_visited)
        counter("search.red_visited").inc(stats.red_visited)
        counter("search.runs").inc()


def _blue_dfs(product: ProductSystem,
              stats: SearchStats,
              max_nodes: int | None = None
              ) -> tuple[LassoNodes | None, SearchStats]:
    limit = max_nodes or product.cache.budget.max_product_nodes
    cyan: set = set()
    blue: set = set()
    red: set = set()
    path: list[ProductNode] = []

    for root in product.initial_nodes():
        if root in blue:
            continue
        # iterative blue DFS from this root
        stack: list[tuple[ProductNode, Iterator[ProductNode]]] = []
        cyan.add(root)
        path.append(root)
        stack.append((root, product.successors(root)))
        stats.blue_visited += 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ in cyan or succ in blue:
                    continue
                if stats.nodes_visited >= limit:
                    raise VerificationError(
                        f"product-node budget ({limit}) exceeded"
                    )
                cyan.add(succ)
                path.append(succ)
                stack.append((succ, product.successors(succ)))
                stats.blue_visited += 1
                advanced = True
                break
            if advanced:
                continue
            # postorder: node finished
            stack.pop()
            if product.is_accepting(node):
                red_path = _red_search(node, product.successors, cyan,
                                       red, stats)
                if red_path is not None:
                    target = red_path[-1]  # the cyan node closing the cycle
                    anchor = path.index(target)
                    prefix = tuple(path[:anchor])
                    cycle = tuple(path[anchor:]) + tuple(red_path[1:-1])
                    counter("search.lassos_found").inc()
                    return LassoNodes(prefix, cycle), stats
            cyan.discard(node)
            blue.add(node)
            path.pop()
    return None, stats
