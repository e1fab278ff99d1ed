"""Peer reaction rules (Definition 2.1).

Five rule families, each pairing a target relation with an FO body:

* input rules    ``Options_I(x̄) <- phi_I(x̄)``   over D, S, PrevI, Qin
* insertion rules ``S(x̄) <- phi+_S(x̄)``          over D, S, I, PrevI, Qin
* deletion rules  ``~S(x̄) <- phi-_S(x̄)``          over D, S, I, PrevI, Qin
* action rules    ``A(x̄) <- phi_A(x̄)``            over D, S, I, PrevI, Qin
* send rules      ``Q(x̄) <- phi_Q(x̄)``            over D, S, I, PrevI, Qin

The head is an ordered tuple of distinct variables whose length matches the
target relation's arity; the body's free variables must be among the head
variables.  Vocabulary restrictions are validated when the rule is attached
to a peer (see :mod:`repro.spec.validate`).
"""

from __future__ import annotations

import enum

from .._record import record
from ..errors import SpecificationError
from ..fo.formulas import Formula, free_vars
from ..fo.terms import Var


class RuleKind(enum.Enum):
    INPUT = "input"
    INSERT = "insert"
    DELETE = "delete"
    ACTION = "action"
    SEND = "send"


@record(frozen=True, slots=True)
class Rule:
    """One reaction rule: ``target(head) <- body``."""

    kind: RuleKind
    target: str
    head: tuple[Var, ...]
    body: Formula

    def __post_init__(self) -> None:
        names = [v.name for v in self.head]
        if len(set(names)) != len(names):
            raise SpecificationError(
                f"rule for {self.target!r}: head variables must be distinct, "
                f"got {names}"
            )
        extra = {v.name for v in free_vars(self.body)} - set(names)
        if extra:
            raise SpecificationError(
                f"rule for {self.target!r}: body has free variables "
                f"{sorted(extra)} not in the head {names}"
            )

    def rename_relations(self, mapping: dict[str, str]) -> "Rule":
        """A copy with relation names rewritten through *mapping*."""
        from ..fo.formulas import Atom

        def rewrite(f: Formula) -> Formula:
            from ..fo.formulas import (
                And, Eq, Exists, FalseF, Forall, Implies, Not, Or, TrueF,
            )
            if isinstance(f, Atom):
                return Atom(mapping.get(f.rel, f.rel), f.terms)
            if isinstance(f, (TrueF, FalseF, Eq)):
                return f
            if isinstance(f, Not):
                return Not(rewrite(f.body))
            if isinstance(f, And):
                return And(tuple(rewrite(c) for c in f.children))
            if isinstance(f, Or):
                return Or(tuple(rewrite(c) for c in f.children))
            if isinstance(f, Implies):
                return Implies(rewrite(f.antecedent), rewrite(f.consequent))
            if isinstance(f, Exists):
                return Exists(f.variables, rewrite(f.body))
            if isinstance(f, Forall):
                return Forall(f.variables, rewrite(f.body))
            raise SpecificationError(f"cannot rewrite {f!r}")

        return Rule(
            self.kind,
            mapping.get(self.target, self.target),
            self.head,
            rewrite(self.body),
        )

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        neg = "~" if self.kind is RuleKind.DELETE else ""
        return f"{neg}{self.target}({head}) <- {self.body}"


def rename_formula_relations(formula: Formula,
                             mapping: dict[str, str]) -> Formula:
    """Rewrite relation names of *formula* through *mapping* (public helper)."""
    rule = Rule(RuleKind.ACTION, "__tmp__",
                tuple(sorted(free_vars(formula), key=lambda v: v.name)),
                formula)
    return rule.rename_relations(mapping).body
