"""LTL-FO: first-order linear temporal logic (Definition 3.1).

An LTL-FO *formula* is propositional LTL whose atomic propositions are FO
formulas over the composition schema (quantifiers may not scope over
temporal operators, so every maximal FO subformula is self-contained).  An
LTL-FO *sentence* is the universal closure of such a formula: its free
variables are universally quantified over the active domain of each run.

We reuse the propositional machinery of :mod:`repro.ltl` directly: an
LTL-FO formula is an :class:`~repro.ltl.formulas.LTLFormula` whose
``LAtom`` payloads are :class:`~repro.fo.formulas.Formula` values.

The paper's Section 5 "strictly input-bounded" sentences are those with no
temporal operator in the scope of any quantifier -- in this representation,
exactly the sentences with an empty closure-variable tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import FormulaError
from ..fo import formulas as fo
from ..fo.terms import Value, Var
from ..ltl.formulas import (
    LAtom, LTLFormula, lnot, lwalk,
)


@dataclass(frozen=True, slots=True)
class LTLFOSentence:
    """The universal closure ``forall x̄ . body`` of an LTL-FO formula.

    ``body`` is an :class:`LTLFormula` whose atom payloads are FO
    formulas; every free variable of every payload must appear in
    ``variables``.
    """

    variables: tuple[Var, ...]
    body: LTLFormula

    def __post_init__(self) -> None:
        declared = {v.name for v in self.variables}
        if len(declared) != len(self.variables):
            raise FormulaError("repeated closure variables")
        free = {v.name for v in self.free_payload_vars()}
        missing = free - declared
        if missing:
            raise FormulaError(
                f"free variables {sorted(missing)} not closed by the "
                f"sentence's universal closure {sorted(declared)}"
            )

    # -- queries ----------------------------------------------------------

    def fo_payloads(self) -> tuple[fo.Formula, ...]:
        """The maximal FO subformulas (the temporal skeleton's atoms),
        distinct, in the order a left-to-right walk of the body meets
        them."""
        return tuple(dict.fromkeys(
            node.ap for node in lwalk(self.body) if isinstance(node, LAtom)
        ))

    def free_payload_vars(self) -> frozenset[Var]:
        out: set[Var] = set()
        for payload in self.fo_payloads():
            out |= fo.free_vars(payload)
        return frozenset(out)

    def constants(self) -> frozenset[Value]:
        out: set[Value] = set()
        for payload in self.fo_payloads():
            out |= fo.constants(payload)
        return frozenset(out)

    def relations(self) -> frozenset[str]:
        out: set[str] = set()
        for payload in self.fo_payloads():
            out |= fo.relations(payload)
        return frozenset(out)

    @property
    def is_strict(self) -> bool:
        """True iff no temporal operator is under a quantifier (Section 5).

        With the closure-variable representation this is exactly "the
        closure is empty": all quantification lives inside FO payloads.
        """
        return not self.variables

    def variable_count(self) -> int:
        """Distinct variables anywhere (closure + bound in payloads)."""
        names = {v.name for v in self.variables}
        for payload in self.fo_payloads():
            names |= {v.name for v in fo.all_vars(payload)}
        return len(names)

    # -- transformations ------------------------------------------------------

    def instantiate(self, valuation: Mapping[Var, Value]) -> LTLFormula:
        """The closed LTL formula for one valuation of the closure vars.

        Payloads become closed FO sentences, which act as the atomic
        propositions during model checking.
        """
        missing = [v.name for v in self.variables if v not in valuation]
        if missing:
            raise FormulaError(f"valuation misses variables {missing}")
        return map_payloads(
            self.body, lambda p: fo.instantiate(p, valuation)
        )

    def negated_body(self) -> LTLFormula:
        """``~body`` -- the paper verifies by searching for a violation."""
        return lnot(self.body)

    def __str__(self) -> str:
        if self.variables:
            names = ", ".join(v.name for v in self.variables)
            return f"forall {names}: {self.body}"
        return str(self.body)


def map_payloads(formula: LTLFormula, transform) -> LTLFormula:
    """Apply *transform* to every FO payload of an LTL-FO formula."""
    from ..ltl.formulas import (
        LAnd, LFalse, LNext, LNot, LOr, LRelease, LTrue, LUntil,
    )
    if isinstance(formula, (LTrue, LFalse)):
        return formula
    if isinstance(formula, LAtom):
        return LAtom(transform(formula.ap))
    if isinstance(formula, LNot):
        return LNot(map_payloads(formula.body, transform))
    if isinstance(formula, LNext):
        return LNext(map_payloads(formula.body, transform))
    if isinstance(formula, LAnd):
        return LAnd(map_payloads(formula.left, transform),
                    map_payloads(formula.right, transform))
    if isinstance(formula, LOr):
        return LOr(map_payloads(formula.left, transform),
                   map_payloads(formula.right, transform))
    if isinstance(formula, LUntil):
        return LUntil(map_payloads(formula.left, transform),
                      map_payloads(formula.right, transform))
    if isinstance(formula, LRelease):
        return LRelease(map_payloads(formula.left, transform),
                        map_payloads(formula.right, transform))
    raise FormulaError(f"not an LTL formula: {formula!r}")


def sentence(body: LTLFormula,
             variables: tuple[Var, ...] | None = None) -> LTLFOSentence:
    """Build a sentence, auto-closing free payload variables if needed."""
    if variables is None:
        free: set[Var] = set()
        for node in lwalk(body):
            if isinstance(node, LAtom):
                free |= fo.free_vars(node.ap)
        variables = tuple(sorted(free, key=lambda v: v.name))
    return LTLFOSentence(tuple(variables), body)


def lift_fo(formula: fo.Formula) -> LTLFormula:
    """An FO formula as an (atomic) LTL-FO formula."""
    return LAtom(formula)


def rename_payload_relations(formula: LTLFormula,
                             mapping: dict[str, str]) -> LTLFormula:
    """Rewrite relation names inside every FO payload."""
    from ..spec.rules import rename_formula_relations
    return map_payloads(
        formula, lambda p: rename_formula_relations(p, mapping)
    )


def relativize(formula: LTLFormula, alpha: fo.Formula) -> LTLFormula:
    """Replace X and U by the move-relativized X_alpha / U_alpha (Section 5).

    The paper's semantics: ``X_alpha phi`` holds at j iff ``phi`` holds at
    the next position *strictly after* j where ``alpha`` holds;
    ``xi1 U_alpha xi2`` requires a future alpha-position satisfying
    ``xi2``, with ``xi1`` at every intermediate alpha-position.  Both are
    expressible in plain LTL::

        X_alpha phi     ==  X( ~alpha U (alpha & phi) )
        xi1 U_alpha xi2 ==  (alpha -> xi1) U (alpha & xi2)

    Release nodes are rewritten through their Until dual before
    relativizing.
    """
    from ..ltl.formulas import (
        LAnd, LFalse, LNext, LNot, LOr, LRelease, LTrue, LUntil,
        land, limplies, lnot as pnot,
    )
    a = lift_fo(alpha)
    if isinstance(formula, (LTrue, LFalse, LAtom)):
        return formula
    if isinstance(formula, LNot):
        return LNot(relativize(formula.body, alpha))
    if isinstance(formula, LAnd):
        return LAnd(relativize(formula.left, alpha),
                    relativize(formula.right, alpha))
    if isinstance(formula, LOr):
        return LOr(relativize(formula.left, alpha),
                   relativize(formula.right, alpha))
    if isinstance(formula, LNext):
        body = relativize(formula.body, alpha)
        return LNext(LUntil(pnot(a), land(a, body)))
    if isinstance(formula, LUntil):
        left = relativize(formula.left, alpha)
        right = relativize(formula.right, alpha)
        return LUntil(limplies(a, left), land(a, right))
    if isinstance(formula, LRelease):
        dual = pnot(LUntil(pnot(formula.left), pnot(formula.right)))
        return relativize(dual, alpha)
    raise FormulaError(f"not an LTL formula: {formula!r}")
