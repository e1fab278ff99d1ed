"""First-order formula abstract syntax.

The FO fragment of the paper: relational atoms, equality atoms, Boolean
connectives, and quantifiers.  Formulas are immutable, hashable trees.

Construction helpers (:func:`conj`, :func:`disj`, ...) perform light
simplification (dropping ``true``/``false`` units) so generated formulas stay
readable; they never change semantics.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Union

from .._record import record
from ..errors import FormulaError
from .terms import Const, Term, Value, Var

Formula = Union[
    "TrueF", "FalseF", "Atom", "Eq", "Not", "And", "Or", "Implies",
    "Exists", "Forall",
]


@record(frozen=True, slots=True)
class TrueF:
    """The constant true formula."""

    def __str__(self) -> str:
        return "true"


@record(frozen=True, slots=True)
class FalseF:
    """The constant false formula."""

    def __str__(self) -> str:
        return "false"


@record(frozen=True, slots=True)
class Atom:
    """A relational atom ``R(t1, ..., tk)``.

    ``rel`` is the relation *name* as used for lookup in the enclosing
    scope (peer-local or qualified composition name).
    """

    rel: str
    terms: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.terms:
            return self.rel
        return f"{self.rel}({', '.join(map(str, self.terms))})"


@record(frozen=True, slots=True)
class Eq:
    """An equality atom ``t1 = t2``."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@record(frozen=True, slots=True)
class Not:
    """Negation."""

    body: Formula

    def __str__(self) -> str:
        return f"~({self.body})"


@record(frozen=True, slots=True)
class And:
    """N-ary conjunction."""

    children: tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " & ".join(map(str, self.children)) + ")"


@record(frozen=True, slots=True)
class Or:
    """N-ary disjunction."""

    children: tuple[Formula, ...]

    def __str__(self) -> str:
        return "(" + " | ".join(map(str, self.children)) + ")"


@record(frozen=True, slots=True)
class Implies:
    """Implication ``antecedent -> consequent``."""

    antecedent: Formula
    consequent: Formula

    def __str__(self) -> str:
        return f"({self.antecedent} -> {self.consequent})"


@record(frozen=True, slots=True)
class Exists:
    """Existential quantification over one or more variables."""

    variables: tuple[Var, ...]
    body: Formula

    def __post_init__(self) -> None:
        if not self.variables:
            raise FormulaError("Exists with no variables")
        if len({v.name for v in self.variables}) != len(self.variables):
            raise FormulaError("Exists with repeated variables")

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"exists {names}. ({self.body})"


@record(frozen=True, slots=True)
class Forall:
    """Universal quantification over one or more variables."""

    variables: tuple[Var, ...]
    body: Formula

    def __post_init__(self) -> None:
        if not self.variables:
            raise FormulaError("Forall with no variables")
        if len({v.name for v in self.variables}) != len(self.variables):
            raise FormulaError("Forall with repeated variables")

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"forall {names}. ({self.body})"


# -- constructors with light simplification ----------------------------------

TRUE = TrueF()
FALSE = FalseF()


def atom(rel: str, *terms: Term | Value) -> Atom:
    """Build an atom, lifting raw values to :class:`Const` terms."""
    lifted = tuple(
        t if isinstance(t, (Var, Const)) else Const(t) for t in terms
    )
    return Atom(rel, lifted)


def eq(left: Term | Value, right: Term | Value) -> Eq:
    """Build an equality atom, lifting raw values to constants."""
    lt = left if isinstance(left, (Var, Const)) else Const(left)
    rt = right if isinstance(right, (Var, Const)) else Const(right)
    return Eq(lt, rt)


def neg(body: Formula) -> Formula:
    """Negation with double-negation and constant elimination."""
    if isinstance(body, TrueF):
        return FALSE
    if isinstance(body, FalseF):
        return TRUE
    if isinstance(body, Not):
        return body.body
    return Not(body)


def conj(*parts: Formula) -> Formula:
    """N-ary conjunction, flattening and dropping ``true`` units."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, TrueF):
            continue
        if isinstance(p, FalseF):
            return FALSE
        if isinstance(p, And):
            flat.extend(p.children)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*parts: Formula) -> Formula:
    """N-ary disjunction, flattening and dropping ``false`` units."""
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, FalseF):
            continue
        if isinstance(p, TrueF):
            return TRUE
        if isinstance(p, Or):
            flat.extend(p.children)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    """Implication (kept as a node for readability)."""
    return Implies(antecedent, consequent)


def exists(variables: Iterable[Var | str], body: Formula) -> Formula:
    """Existential closure over *variables* (names or Vars)."""
    vs = tuple(Var(v) if isinstance(v, str) else v for v in variables)
    if not vs:
        return body
    return Exists(vs, body)


def forall(variables: Iterable[Var | str], body: Formula) -> Formula:
    """Universal closure over *variables* (names or Vars)."""
    vs = tuple(Var(v) if isinstance(v, str) else v for v in variables)
    if not vs:
        return body
    return Forall(vs, body)


# -- structural queries -------------------------------------------------------

def children(formula: Formula) -> tuple[Formula, ...]:
    """Immediate sub-formulas of *formula*."""
    if isinstance(formula, (TrueF, FalseF, Atom, Eq)):
        return ()
    if isinstance(formula, Not):
        return (formula.body,)
    if isinstance(formula, (And, Or)):
        return formula.children
    if isinstance(formula, Implies):
        return (formula.antecedent, formula.consequent)
    if isinstance(formula, (Exists, Forall)):
        return (formula.body,)
    raise FormulaError(f"not an FO formula: {formula!r}")


def walk(formula: Formula) -> Iterator[Formula]:
    """Pre-order traversal of all sub-formulas (including *formula*)."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def atoms(formula: Formula) -> Iterator[Atom]:
    """All relational atoms occurring in *formula*."""
    for node in walk(formula):
        if isinstance(node, Atom):
            yield node


@lru_cache(maxsize=65536)
def relations(formula: Formula) -> frozenset[str]:
    """Names of all relations mentioned in *formula* (memoized)."""
    return frozenset(a.rel for a in atoms(formula))


def constants(formula: Formula) -> frozenset[Value]:
    """All constant values occurring in *formula*."""
    out: set[Value] = set()
    for node in walk(formula):
        if isinstance(node, Atom):
            out.update(t.value for t in node.terms if isinstance(t, Const))
        elif isinstance(node, Eq):
            for t in (node.left, node.right):
                if isinstance(t, Const):
                    out.add(t.value)
    return frozenset(out)


@lru_cache(maxsize=65536)
def free_vars(formula: Formula) -> frozenset[Var]:
    """The free variables of *formula* (memoized)."""
    if isinstance(formula, (TrueF, FalseF)):
        return frozenset()
    if isinstance(formula, Atom):
        return frozenset(t for t in formula.terms if isinstance(t, Var))
    if isinstance(formula, Eq):
        return frozenset(
            t for t in (formula.left, formula.right) if isinstance(t, Var)
        )
    if isinstance(formula, (Exists, Forall)):
        return free_vars(formula.body) - frozenset(formula.variables)
    out: set[Var] = set()
    for child in children(formula):
        out |= free_vars(child)
    return frozenset(out)


def all_vars(formula: Formula) -> frozenset[Var]:
    """All variables (free or bound) occurring in *formula*."""
    out: set[Var] = set()
    for node in walk(formula):
        if isinstance(node, Atom):
            out.update(t for t in node.terms if isinstance(t, Var))
        elif isinstance(node, Eq):
            out.update(
                t for t in (node.left, node.right) if isinstance(t, Var)
            )
        elif isinstance(node, (Exists, Forall)):
            out.update(node.variables)
    return frozenset(out)


def substitute(formula: Formula, binding: Mapping[Var, Term]) -> Formula:
    """Capture-avoiding substitution of free variables by terms.

    Raises :class:`FormulaError` if a substitution would be captured by a
    quantifier (the library always substitutes constants, where capture is
    impossible, but the guard keeps the function safe for general terms).
    """

    def sub_term(t: Term) -> Term:
        if isinstance(t, Var) and t in binding:
            return binding[t]
        return t

    if isinstance(formula, (TrueF, FalseF)):
        return formula
    if isinstance(formula, Atom):
        return Atom(formula.rel, tuple(sub_term(t) for t in formula.terms))
    if isinstance(formula, Eq):
        return Eq(sub_term(formula.left), sub_term(formula.right))
    if isinstance(formula, Not):
        return Not(substitute(formula.body, binding))
    if isinstance(formula, And):
        return And(tuple(substitute(c, binding) for c in formula.children))
    if isinstance(formula, Or):
        return Or(tuple(substitute(c, binding) for c in formula.children))
    if isinstance(formula, Implies):
        return Implies(substitute(formula.antecedent, binding),
                       substitute(formula.consequent, binding))
    if isinstance(formula, (Exists, Forall)):
        bound = set(formula.variables)
        inner = {v: t for v, t in binding.items() if v not in bound}
        for v, t in inner.items():
            if isinstance(t, Var) and t in bound:
                raise FormulaError(
                    f"substitution of {v} by {t} captured by quantifier"
                )
        new_body = substitute(formula.body, inner)
        cls = type(formula)
        return cls(formula.variables, new_body)
    raise FormulaError(f"not an FO formula: {formula!r}")


def instantiate(formula: Formula, valuation: Mapping[Var, Value]) -> Formula:
    """Substitute free variables by constant values."""
    return substitute(
        formula, {v: Const(val) for v, val in valuation.items()}
    )


def is_ground_atom(a: Atom) -> bool:
    """True iff the atom contains no variables."""
    return all(isinstance(t, Const) for t in a.terms)


def is_existential_prenex(formula: Formula) -> bool:
    """True iff *formula* is in the ``exists* (quantifier-free)`` fragment.

    This is the shape input-boundedness requires of input rules and of
    flat-queue send rules (Section 3.1, condition 2).
    """
    body = formula
    while isinstance(body, Exists):
        body = body.body
    return not any(
        isinstance(node, (Exists, Forall)) for node in walk(body)
    )
