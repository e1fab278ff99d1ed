"""Runs of a composition (Definition 2.6) and simulation helpers.

An infinite run is represented as a *lasso*: a finite prefix of snapshots
followed by a cycle repeated forever.  Counterexamples produced by the
verifier are lassos; the :func:`simulate` helper generates random finite
run prefixes for testing and exploration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from ..errors import SimulationError
from ..fo.instance import Instance
from ..fo.terms import Value
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .state import GlobalState, snapshot_view
from .step import Domain, _row_key, initial_states, successors


@dataclass(frozen=True)
class Lasso:
    """An ultimately periodic run: ``prefix . cycle^omega``.

    ``prefix`` may be empty; ``cycle`` is non-empty.  ``snapshot(i)``
    returns the i-th snapshot of the infinite unfolding.
    """

    prefix: tuple[GlobalState, ...]
    cycle: tuple[GlobalState, ...]

    def __post_init__(self) -> None:
        if not self.cycle:
            raise SimulationError("a lasso needs a non-empty cycle")

    def snapshot(self, i: int) -> GlobalState:
        if i < len(self.prefix):
            return self.prefix[i]
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def __len__(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def states(self) -> tuple[GlobalState, ...]:
        return self.prefix + self.cycle

    def active_domain(self) -> frozenset[Value]:
        """``Dom(rho)``: all values occurring anywhere in the run."""
        dom: set[Value] = set()
        for state in self.states():
            dom |= state.active_domain()
        return frozenset(dom)

    def movers(self) -> tuple[str | None, ...]:
        return tuple(s.mover for s in self.states())

    def describe(self, composition: Composition,
                 relations: Sequence[str] | None = None,
                 max_rows: int = 6) -> str:
        """A human-readable rendering of the lasso, for counterexamples."""
        lines: list[str] = []
        for idx, state in enumerate(self.states()):
            marker = "  (cycle)" if idx >= len(self.prefix) else ""
            lines.append(
                f"step {idx}: mover={state.mover or '-'}{marker}"
            )
            view = snapshot_view(state, composition)
            for rel in (relations or view.relations()):
                rows = view[rel]
                if not rows:
                    continue
                shown = sorted(rows, key=_row_key)[:max_rows]
                suffix = " ..." if len(rows) > max_rows else ""
                lines.append(f"    {rel} = {shown}{suffix}")
            queued = {
                name: [sorted(m, key=_row_key) for m in contents]
                for name, contents in state.queues if contents
            }
            if queued:
                lines.append(f"    queues: {queued}")
        return "\n".join(lines)


def simulate(composition: Composition,
             databases: Mapping[str, Instance],
             domain: Domain,
             steps: int,
             semantics: ChannelSemantics = DECIDABLE_DEFAULT,
             seed: int | None = None,
             choose: Callable[[list[GlobalState]], GlobalState] | None = None,
             ) -> list[GlobalState]:
    """Generate one random run prefix of the given length.

    ``choose`` overrides the uniform random successor choice (useful for
    steering the simulation in tests).
    """
    rng = random.Random(seed)
    pick = choose or (lambda options: rng.choice(options))
    starts = initial_states(composition, databases, domain)
    if not starts:
        raise SimulationError("no initial states")
    current = pick(starts)
    trace = [current]
    for _ in range(steps):
        options = successors(composition, current, domain, semantics)
        if not options:
            raise SimulationError("deadlock: no successor states")
        current = pick(options)
        trace.append(current)
    return trace


def validate_lasso(composition: Composition,
                   databases: Mapping[str, Instance],
                   domain: Domain,
                   lasso: Lasso,
                   semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                   env_value_domain: Domain | None = None,
                   ) -> list[str]:
    """Replay a lasso through the legal-successor relation.

    Returns a list of problems (empty iff the lasso is a genuine run):
    the first snapshot must be a legal initial snapshot, every
    consecutive pair must be a legal transition, and the cycle must close
    back onto its own first snapshot.  Used by the counterexample-replay
    tests to guard against prefix/cycle-splicing bugs in the emptiness
    search, and available to callers that want defence-in-depth on
    verifier output.

    Environment moves of an open composition are judged as the verifier
    explores them (one environment action per move); ``env_value_domain``
    must match the one the verifier searched with.
    """
    problems: list[str] = []
    states = lasso.states()
    if not states:
        return ["empty lasso"]

    starts = initial_states(composition, databases, domain)
    if states[0] not in starts:
        problems.append("first snapshot is not a legal initial snapshot")

    def succs(state: GlobalState) -> list[GlobalState]:
        return successors(
            composition, state, domain, semantics,
            env_one_action_per_move=True,
            env_value_domain=env_value_domain,
        )

    for idx in range(len(states) - 1):
        if states[idx + 1] not in succs(states[idx]):
            problems.append(
                f"snapshot {idx + 1} is not a legal successor of "
                f"snapshot {idx}"
            )
    if lasso.cycle[0] not in succs(lasso.cycle[-1]):
        problems.append("the cycle does not close back onto its start")
    return problems


def reachable_states(composition: Composition,
                     databases: Mapping[str, Instance],
                     domain: Domain,
                     semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                     limit: int = 100_000) -> set[GlobalState]:
    """The full reachable snapshot set (breadth-first, bounded by *limit*).

    Raises :class:`SimulationError` when the bound is exceeded -- the
    composition is then too large for explicit exploration with this
    domain, or the queues are effectively unbounded.
    """
    seen: set[GlobalState] = set()
    frontier = list(initial_states(composition, databases, domain))
    seen.update(frontier)
    while frontier:
        state = frontier.pop()
        for nxt in successors(composition, state, domain, semantics):
            if nxt not in seen:
                if len(seen) >= limit:
                    raise SimulationError(
                        f"reachable-state limit {limit} exceeded"
                    )
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def iterate_snapshot_views(composition: Composition,
                           states: Sequence[GlobalState]
                           ) -> Iterator[Instance]:
    """Snapshot views of a sequence of states (convenience for tests)."""
    for state in states:
        yield snapshot_view(state, composition)
