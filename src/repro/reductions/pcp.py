"""Post's Correspondence Problem instances and a bounded solver.

PCP is the other classic undecidable problem the paper's frontier
theorems lean on (emptiness tests and non-ground nested atoms let
specifications compare unboundedly long strings).  This module provides
the problem itself: instances, a bounded-depth solver, and witnesses --
used by the frontier demonstrations and their tests.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .._record import record
from ..errors import SpecificationError


@record(frozen=True)
class PCPInstance:
    """A PCP instance: pairs of words over a finite alphabet."""

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise SpecificationError("a PCP instance needs at least one pair")
        for top, bottom in self.pairs:
            if not top and not bottom:
                raise SpecificationError("empty/empty pair is not allowed")

    def alphabet(self) -> frozenset[str]:
        out: set[str] = set()
        for top, bottom in self.pairs:
            out.update(top)
            out.update(bottom)
        return frozenset(out)

    def apply(self, indices: Sequence[int]) -> tuple[str, str]:
        """The (top, bottom) strings spelled by an index sequence."""
        top = "".join(self.pairs[i][0] for i in indices)
        bottom = "".join(self.pairs[i][1] for i in indices)
        return top, bottom

    def is_solution(self, indices: Sequence[int]) -> bool:
        if not indices:
            return False
        top, bottom = self.apply(indices)
        return top == bottom


def solve_bounded(instance: PCPInstance, max_length: int = 12
                  ) -> tuple[int, ...] | None:
    """Search for a solution of at most *max_length* indices.

    Depth-first over partial matches: a partial index sequence is viable
    only while one string is a prefix of the other.  Returns the first
    solution found, or None if none exists within the bound (which, PCP
    being undecidable, proves nothing about longer solutions).
    """
    n = len(instance.pairs)

    def extend(indices: list[int], top: str, bottom: str
               ) -> tuple[int, ...] | None:
        if indices and top == bottom:
            return tuple(indices)
        if len(indices) >= max_length:
            return None
        for i in range(n):
            t = top + instance.pairs[i][0]
            b = bottom + instance.pairs[i][1]
            if t.startswith(b) or b.startswith(t):
                indices.append(i)
                found = extend(indices, t, b)
                if found is not None:
                    return found
                indices.pop()
        return None

    return extend([], "", "")


def enumerate_solutions(instance: PCPInstance, max_length: int = 8
                        ) -> Iterator[tuple[int, ...]]:
    """All solutions up to *max_length* indices (exhaustive)."""
    n = len(instance.pairs)

    def walk(indices: list[int], top: str, bottom: str):
        if indices and top == bottom:
            yield tuple(indices)
        if len(indices) >= max_length:
            return
        for i in range(n):
            t = top + instance.pairs[i][0]
            b = bottom + instance.pairs[i][1]
            if t.startswith(b) or b.startswith(t):
                indices.append(i)
                yield from walk(indices, t, b)
                indices.pop()

    yield from walk([], "", "")


#: A classic solvable instance: solution (0, 1, 2) or similar.
SOLVABLE = PCPInstance((("a", "baa"), ("ab", "aa"), ("bba", "bb")))

#: An instance with no solution (mismatched first letters everywhere).
UNSOLVABLE = PCPInstance((("ab", "ba"), ("ba", "ab")))
