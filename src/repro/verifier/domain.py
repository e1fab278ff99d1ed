"""Verification-domain computation (the bounded-domain principle).

The decidability results (Theorem 3.4 and its relatives) rest on the
bounded-domain property inherited from [12]: an input-bounded property is
violated by some run iff it is violated by a run whose data values are
drawn from a domain of size computable from the specification -- the
constants mentioned anywhere, plus a fresh value for each variable a rule
or property can bind simultaneously.

:func:`verification_domain` computes that domain.  The returned
:class:`VerificationDomain` separates constants from interchangeable fresh
values so the verifier can canonicalize valuations (fresh values are
symmetric under permutation as long as they do not occur in the database).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .._record import record
from ..fo.instance import Instance
from ..fo.terms import Value, value_sort_key
from ..ltlfo.formulas import LTLFOSentence
from ..obs import PHASE_VALUATIONS, phase
from ..spec.composition import Composition

FRESH_PREFIX = "$v"


@record(frozen=True)
class VerificationDomain:
    """The finite data domain a verification run ranges over.

    ``constants`` are values pinned by the specification, the property, or
    the concrete databases; ``fresh`` are interchangeable extra values
    representing "any other data value".
    """

    constants: tuple[Value, ...]
    fresh: tuple[Value, ...]

    @property
    def values(self) -> tuple[Value, ...]:
        return self.constants + self.fresh

    def __len__(self) -> int:
        return len(self.constants) + len(self.fresh)

    def __iter__(self):
        return iter(self.values)

    def describe(self) -> str:
        return (f"{len(self.constants)} constants + "
                f"{len(self.fresh)} fresh values")


def fresh_values(count: int, taken: Iterable[Value]) -> tuple[str, ...]:
    """*count* fresh string values distinct from everything in *taken*."""
    taken_set = set(taken)
    out: list[str] = []
    i = 0
    while len(out) < count:
        candidate = f"{FRESH_PREFIX}{i}"
        if candidate not in taken_set:
            out.append(candidate)
        i += 1
    return tuple(out)


def verification_domain(
    composition: Composition,
    properties: Sequence[LTLFOSentence] = (),
    databases: Mapping[str, Instance] | None = None,
    extra_fresh: int = 0,
    fresh_count: int | None = None,
) -> VerificationDomain:
    """The default verification domain for a composition and properties.

    Constants: every constant in any rule or property payload, plus the
    active domains of the given databases.  Fresh values: one per distinct
    variable of the largest rule or property (so any single rule firing or
    valuation can be served by fresh values alone), plus one headroom
    value, plus *extra_fresh*.  ``fresh_count`` overrides the computed
    number entirely (smaller domains remain sound for *bug finding*:
    every counterexample found is real; they may only miss bugs needing
    more distinct values).
    """
    constants: set[Value] = set(composition.constants())
    for prop in properties:
        constants |= prop.constants()
    for db in (databases or {}).values():
        constants |= db.active_domain()

    if fresh_count is None:
        width = composition.max_rule_variables()
        for prop in properties:
            width = max(width, prop.variable_count())
        fresh_count = width + 1 + extra_fresh

    fresh = fresh_values(fresh_count, constants)
    ordered = tuple(sorted(constants, key=value_sort_key))
    return VerificationDomain(ordered, fresh)


def canonical_valuations(
    variables: Sequence, domain: VerificationDomain,
    candidates: Mapping[str, Sequence[Value]] | None = None,
) -> list[dict]:
    """Valuations of the closure variables, up to fresh-value symmetry.

    Fresh values are interchangeable (they occur in no database and no
    formula), so a valuation using fresh values is canonical iff the fresh
    values it uses are the first ones, introduced in order of first use.
    This prunes the ``|domain|^k`` enumeration substantially without
    losing completeness.

    ``candidates`` (variable name -> values) restricts each variable it
    names to those values, skipped while enumerating: the result is the
    unrestricted enumeration with every valuation outside the candidates
    left out, in the same order.
    """
    results: list[dict] = []
    candidates = candidates or {}

    def extend(idx: int, current: dict, used_fresh: int) -> None:
        if idx == len(variables):
            results.append(dict(current))
            return
        var = variables[idx]
        allowed = candidates.get(var.name)
        for value in domain.constants:
            if allowed is None or value in allowed:
                current[var] = value
                extend(idx + 1, current, used_fresh)
        # fresh choices: reuse any already-used fresh value, or take the
        # next unused one (introducing fresh values in order)
        limit = min(used_fresh + 1, len(domain.fresh))
        for j in range(limit):
            if allowed is None or domain.fresh[j] in allowed:
                current[var] = domain.fresh[j]
                extend(idx + 1, current, max(used_fresh, j + 1))
        current.pop(var, None)

    with phase(PHASE_VALUATIONS):
        extend(0, {}, 0)
    return results


def canonicalize_valuation(
    variables: Sequence, valuation: Mapping, domain: VerificationDomain
) -> dict:
    """The canonical representative of a valuation's symmetry orbit.

    Fresh values are interchangeable, so two valuations that differ only
    by a permutation of fresh values describe the same verification
    obligation.  The representative renames fresh values to the first
    ones of ``domain.fresh`` in order of first use (constants are left
    untouched).  :func:`canonical_valuations` enumerates exactly the
    fixpoints of this map -- a property the property-based tests check.
    """
    fresh_set = set(domain.fresh)
    rename: dict = {}
    out: dict = {}
    for var in variables:
        value = valuation[var]
        if value in fresh_set:
            if value not in rename:
                rename[value] = domain.fresh[len(rename)]
            value = rename[value]
        out[var] = value
    return out


def enumerate_databases(
    relation_arities: Mapping[str, int],
    domain: Sequence[Value],
    max_rows: int = 1,
) -> list[Instance]:
    """All databases over *domain* with at most *max_rows* rows per relation.

    Exhaustive and exponential -- intended for completeness experiments on
    tiny schemas.  Relations are filled independently; the result is the
    cross product of per-relation row subsets.
    """
    import itertools

    per_relation: list[list[tuple[str, frozenset]]] = []
    for name in sorted(relation_arities):
        arity = relation_arities[name]
        rows = sorted(
            itertools.product(domain, repeat=arity),
            key=lambda r: tuple(value_sort_key(v) for v in r),
        )
        choices: list[tuple[str, frozenset]] = []
        for size in range(max_rows + 1):
            for combo in itertools.combinations(rows, size):
                choices.append((name, frozenset(combo)))
        per_relation.append(choices)

    out: list[Instance] = []
    for combo in itertools.product(*per_relation):
        out.append(Instance({name: rows for name, rows in combo}))
    return out
