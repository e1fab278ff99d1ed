"""Tests for the nested-DFS emptiness search on synthetic products."""

import pytest

from repro.errors import VerificationError
from repro.verifier.search import find_accepting_lasso


class GraphProduct:
    """A hand-built product graph for exercising the search."""

    def __init__(self, edges, initial, accepting):
        self._edges = edges
        self._initial = initial
        self._accepting = set(accepting)

        class _Budget:
            max_product_nodes = 10_000

        class _Cache:
            budget = _Budget()

        self.cache = _Cache()

    def initial_nodes(self):
        return list(self._initial)

    def successors(self, node):
        return iter(self._edges.get(node, ()))

    def is_accepting(self, node):
        return node in self._accepting


class TestSearch:
    def test_simple_accepting_cycle(self):
        g = GraphProduct({0: [1], 1: [2], 2: [1]}, [0], [2])
        lasso, stats = find_accepting_lasso(g)
        assert lasso is not None
        assert lasso.cycle  # non-empty cycle
        assert 2 in lasso.cycle

    def test_self_loop(self):
        g = GraphProduct({0: [0]}, [0], [0])
        lasso, _ = find_accepting_lasso(g)
        assert lasso is not None
        assert lasso.cycle == (0,)

    def test_accepting_not_on_cycle(self):
        g = GraphProduct({0: [1], 1: [2], 2: []}, [0], [1])
        lasso, _ = find_accepting_lasso(g)
        assert lasso is None

    def test_cycle_without_accepting(self):
        g = GraphProduct({0: [1], 1: [0]}, [0], [])
        lasso, _ = find_accepting_lasso(g)
        assert lasso is None

    def test_accepting_cycle_behind_non_accepting_one(self):
        g = GraphProduct(
            {0: [1, 2], 1: [0], 2: [3], 3: [2]}, [0], [3],
        )
        lasso, _ = find_accepting_lasso(g)
        assert lasso is not None
        assert 3 in lasso.cycle

    def test_lasso_structure_valid(self):
        edges = {0: [1], 1: [2, 4], 2: [3], 3: [1], 4: []}
        g = GraphProduct(edges, [0], [3])
        lasso, _ = find_accepting_lasso(g)
        nodes = list(lasso.prefix) + list(lasso.cycle)
        for a, b in zip(nodes, nodes[1:]):
            assert b in edges[a]
        assert lasso.cycle[0] in edges[lasso.cycle[-1]]

    def test_multiple_initial_nodes(self):
        g = GraphProduct({0: [], 1: [1]}, [0, 1], [1])
        lasso, _ = find_accepting_lasso(g)
        assert lasso is not None

    def test_budget_exceeded(self):
        g = GraphProduct({i: [i + 1] for i in range(100)}, [0], [])
        with pytest.raises(VerificationError):
            find_accepting_lasso(g, max_nodes=5)

    def test_stats_counted(self):
        g = GraphProduct({0: [1], 1: []}, [0], [])
        lasso, stats = find_accepting_lasso(g)
        assert lasso is None
        assert stats.blue_visited == 2
