"""Büchi automata with guard-labelled transitions.

A :class:`BuchiAutomaton` reads infinite words over valuations of a finite
set of atomic propositions.  Transitions carry :class:`Guard` objects --
conjunctions of positive/negative AP literals -- rather than explicit
letters, which keeps automata over large alphabets (``2^AP``) compact.

The module provides the operations verification needs:

* membership of ultimately periodic (lasso) words,
* intersection (product) of two automata,
* emptiness with counterexample lasso extraction,
* degeneralization of generalized Büchi acceptance.
"""

from __future__ import annotations

import itertools
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .._record import record
from ..errors import FormulaError, VerificationError
from .formulas import AP

State = Hashable
Letter = frozenset


@record(frozen=True, slots=True)
class Guard:
    """A conjunction of AP literals: all of *pos* hold, none of *neg* hold."""

    pos: frozenset = frozenset()
    neg: frozenset = frozenset()

    def satisfied(self, letter: Letter) -> bool:
        return self.pos <= letter and not (self.neg & letter)

    def is_consistent(self) -> bool:
        return not (self.pos & self.neg)

    def conjoin(self, other: "Guard") -> "Guard | None":
        """Conjunction of two guards, or None if contradictory."""
        merged = Guard(self.pos | other.pos, self.neg | other.neg)
        return merged if merged.is_consistent() else None

    def __str__(self) -> str:
        parts = [str(a) for a in sorted(self.pos, key=str)]
        parts += [f"~{a}" for a in sorted(self.neg, key=str)]
        return " & ".join(parts) if parts else "true"


TRUE_GUARD = Guard()


@record(frozen=True, slots=True)
class Edge:
    """One transition: from *src*, reading a letter satisfying *guard*."""

    src: State
    guard: Guard
    dst: State


class BuchiAutomaton:
    """A nondeterministic Büchi automaton with guard-labelled edges.

    ``aps`` lists the atomic propositions the guards mention (the alphabet
    is ``2^aps``).  ``accepting`` is the set of Büchi-accepting states; a
    run is accepting iff it visits an accepting state infinitely often.
    """

    def __init__(self, states: Iterable[State], initial: Iterable[State],
                 edges: Iterable[Edge], accepting: Iterable[State],
                 aps: Iterable[AP]) -> None:
        self.states = frozenset(states)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.aps = frozenset(aps)
        by_src: dict[State, list[Edge]] = {s: [] for s in self.states}
        for edge in edges:
            if edge.src not in self.states or edge.dst not in self.states:
                raise FormulaError(
                    f"edge {edge} references unknown state"
                )
            by_src[edge.src].append(edge)
        self._edges: Mapping[State, tuple[Edge, ...]] = {
            s: tuple(es) for s, es in by_src.items()
        }
        missing = self.initial - self.states
        if missing:
            raise FormulaError(f"unknown initial states {missing}")
        if not (self.accepting <= self.states):
            raise FormulaError("accepting states not a subset of states")

    # -- basic queries ------------------------------------------------------

    def edges_from(self, state: State) -> tuple[Edge, ...]:
        return self._edges.get(state, ())

    def all_edges(self) -> Iterator[Edge]:
        for edges in self._edges.values():
            yield from edges

    def successors(self, state: State, letter: Letter) -> frozenset:
        """States reachable from *state* reading *letter*."""
        return frozenset(
            e.dst for e in self.edges_from(state) if e.guard.satisfied(letter)
        )

    def alphabet(self) -> Iterator[Letter]:
        """All letters (subsets of the APs).  Exponential; small APs only."""
        aps = sorted(self.aps, key=str)
        for r in range(len(aps) + 1):
            for combo in itertools.combinations(aps, r):
                yield frozenset(combo)

    def num_states(self) -> int:
        return len(self.states)

    def num_edges(self) -> int:
        return sum(len(es) for es in self._edges.values())

    # -- lasso-word membership -----------------------------------------------

    def accepts_lasso(self, prefix: Sequence[Letter],
                      cycle: Sequence[Letter]) -> bool:
        """True iff the automaton accepts ``prefix . cycle^omega``.

        Standard algorithm: run the subset-reachability along the prefix,
        then look for a state q reachable at the cycle entry from which the
        cycle word can be read back to q passing through an accepting state.
        Implemented via reachability in the unrolled (state, cycle-position)
        graph with an accepting-visit bit.
        """
        if not cycle:
            raise FormulaError("cycle must be non-empty")
        current: set[State] = set(self.initial)
        for letter in prefix:
            nxt: set[State] = set()
            for s in current:
                nxt |= self.successors(s, letter)
            current = nxt
            if not current:
                return False

        n = len(cycle)
        # Explore the product of the automaton with the cycle positions.
        # The word is accepted iff some reachable strongly connected
        # component of that product contains a cycle through an accepting
        # automaton state (the run can then loop there forever).
        graph: dict[tuple[State, int], set[tuple[State, int]]] = {}
        seen: set[tuple[State, int]] = {(q, 0) for q in current}
        frontier = list(seen)
        while frontier:
            node = frontier.pop()
            q, i = node
            for dst in self.successors(q, cycle[i]):
                nxt_node = (dst, (i + 1) % n)
                graph.setdefault(node, set()).add(nxt_node)
                if nxt_node not in seen:
                    seen.add(nxt_node)
                    frontier.append(nxt_node)

        for scc in _tarjan_sccs(graph, seen):
            has_cycle = len(scc) > 1 or any(
                node in graph.get(node, ()) for node in scc
            )
            if has_cycle and any(q in self.accepting for (q, _i) in scc):
                return True
        return False

    def is_empty(self) -> bool:
        """True iff the automaton accepts no word (explicit alphabet)."""
        return self.find_accepting_lasso() is None

    def find_accepting_lasso(self
                             ) -> tuple[list[Letter], list[Letter]] | None:
        """An accepted lasso word (prefix, cycle), or None if L(A) is empty.

        Explores the automaton with explicit letters; exponential in
        ``len(aps)``, intended for the small protocol/property automata.
        """
        if len(self.aps) > 16:
            raise VerificationError(
                "explicit emptiness limited to <= 16 APs; "
                "use the on-the-fly product search instead"
            )
        letters = list(self.alphabet())

        # Graph over states with letter-labelled edges; find a reachable
        # accepting state on a cycle, then reconstruct prefix and cycle.
        parents: dict[State, tuple[State, Letter] | None] = {}
        order: list[State] = []
        for s in self.initial:
            if s not in parents:
                parents[s] = None
                order.append(s)
        idx = 0
        while idx < len(order):
            s = order[idx]
            idx += 1
            for letter in letters:
                for dst in self.successors(s, letter):
                    if dst not in parents:
                        parents[dst] = (s, letter)
                        order.append(dst)

        def path_to(state: State) -> list[Letter]:
            word: list[Letter] = []
            cur = state
            while parents[cur] is not None:
                prev, letter = parents[cur]  # type: ignore[misc]
                word.append(letter)
                cur = prev
            word.reverse()
            return word

        for acc in self.accepting:
            if acc not in parents:
                continue
            cycle = self._cycle_through(acc, letters)
            if cycle is not None:
                return path_to(acc), cycle
        return None

    def _cycle_through(self, anchor: State, letters: list[Letter]
                       ) -> list[Letter] | None:
        """A non-empty word returning from *anchor* to *anchor*, or None."""
        parents: dict[State, tuple[State, Letter]] = {}
        frontier = [anchor]
        first = True
        while frontier:
            nxt_frontier: list[State] = []
            for s in frontier:
                for letter in letters:
                    for dst in self.successors(s, letter):
                        if dst == anchor and (s != anchor or not first):
                            word = [letter]
                            cur = s
                            while cur != anchor:
                                prev, lt = parents[cur]
                                word.append(lt)
                                cur = prev
                            word.reverse()
                            return word
                        if dst == anchor and first:
                            # self loop on the very first expansion
                            return [letter]
                        if dst not in parents and dst != anchor:
                            parents[dst] = (s, letter)
                            nxt_frontier.append(dst)
            frontier = nxt_frontier
            first = False
        return None

    # -- operations -----------------------------------------------------------

    def intersection(self, other: "BuchiAutomaton") -> "BuchiAutomaton":
        """Product automaton accepting ``L(self) & L(other)``.

        Classic 3-track construction (tracks switch after seeing each
        automaton's accepting states in turn).
        """
        states = set()
        edges: list[Edge] = []
        accepting = set()
        initial = set()
        for a in self.states:
            for b in other.states:
                for t in (0, 1):
                    states.add((a, b, t))
        for a in self.initial:
            for b in other.initial:
                initial.add((a, b, 0))
        for ea in self.all_edges():
            for eb in other.all_edges():
                guard = ea.guard.conjoin(eb.guard)
                if guard is None:
                    continue
                for t in (0, 1):
                    if t == 0:
                        nt = 1 if ea.dst in self.accepting else 0
                    else:
                        nt = 0 if eb.dst in other.accepting else 1
                    edges.append(
                        Edge((ea.src, eb.src, t), guard, (ea.dst, eb.dst, nt))
                    )
        for a in self.states:
            for b in other.accepting:
                accepting.add((a, b, 1))
        return BuchiAutomaton(states, initial, edges, accepting,
                              self.aps | other.aps)

    def __repr__(self) -> str:
        return (f"BuchiAutomaton(states={len(self.states)}, "
                f"edges={self.num_edges()}, "
                f"accepting={len(self.accepting)}, aps={len(self.aps)})")


def _tarjan_sccs(graph: Mapping, nodes: Iterable) -> list[set]:
    """Tarjan's strongly connected components, iterative."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[set] = []
    counter = itertools.count()

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(graph.get(root, ())))]
        index[root] = lowlink[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, ()))))
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
                scc = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


@record(frozen=True, slots=True)
class GeneralizedBuchi:
    """A generalized Büchi automaton: several acceptance sets.

    A run is accepting iff it visits *every* acceptance set infinitely
    often.  Degeneralization produces an equivalent plain NBA with a
    round-robin counter.
    """

    states: frozenset
    initial: frozenset
    edges: tuple[Edge, ...]
    acceptance_sets: tuple[frozenset, ...]
    aps: frozenset

    def degeneralize(self) -> BuchiAutomaton:
        sets = self.acceptance_sets or (frozenset(self.states),)
        k = len(sets)
        states = {(s, i) for s in self.states for i in range(k)}
        initial = {(s, 0) for s in self.initial}
        edges: list[Edge] = []
        for e in self.edges:
            for i in range(k):
                ni = (i + 1) % k if e.src in sets[i] else i
                edges.append(Edge((e.src, i), e.guard, (e.dst, ni)))
        accepting = {(s, 0) for s in sets[0]}
        return BuchiAutomaton(states, initial, edges, accepting, self.aps)
