"""Propositional linear temporal logic over an arbitrary atom type.

The temporal layer of LTL-FO (Definition 3.1) is ordinary LTL whose atomic
propositions are (instantiated) FO sentences.  This module is generic: an
atomic proposition is any hashable object.

Core operators are ``X`` (next) and ``U`` (until), exactly as in the paper;
``R`` (release) exists as the dual needed for negation normal form.  The
derived operators the paper uses as shorthand -- ``G``, ``F`` and ``B``
(before) -- are provided as constructors:

* ``F phi  ==  true U phi``
* ``G phi  ==  false B phi  ==  ~F~phi``
* ``phi B psi`` ("phi must hold before psi fails") ``==  ~(~phi U ~psi)``
"""

from __future__ import annotations

from typing import Hashable, Iterator, Union

from .._record import record
from ..errors import FormulaError

AP = Hashable

LTLFormula = Union[
    "LTrue", "LFalse", "LAtom", "LNot", "LAnd", "LOr",
    "LNext", "LUntil", "LRelease",
]


@record(frozen=True, slots=True)
class LTrue:
    def __str__(self) -> str:
        return "true"


@record(frozen=True, slots=True)
class LFalse:
    def __str__(self) -> str:
        return "false"


@record(frozen=True, slots=True)
class LAtom:
    """An atomic proposition (any hashable payload)."""

    ap: AP

    def __str__(self) -> str:
        return str(self.ap)


@record(frozen=True, slots=True)
class LNot:
    body: LTLFormula

    def __str__(self) -> str:
        return f"~({self.body})"


@record(frozen=True, slots=True)
class LAnd:
    left: LTLFormula
    right: LTLFormula

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@record(frozen=True, slots=True)
class LOr:
    left: LTLFormula
    right: LTLFormula

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@record(frozen=True, slots=True)
class LNext:
    body: LTLFormula

    def __str__(self) -> str:
        return f"X({self.body})"


@record(frozen=True, slots=True)
class LUntil:
    left: LTLFormula
    right: LTLFormula

    def __str__(self) -> str:
        return f"({self.left} U {self.right})"


@record(frozen=True, slots=True)
class LRelease:
    """Release, the dual of until: ``phi R psi == ~(~phi U ~psi)``."""

    left: LTLFormula
    right: LTLFormula

    def __str__(self) -> str:
        return f"({self.left} R {self.right})"


LTRUE = LTrue()
LFALSE = LFalse()


# -- constructors --------------------------------------------------------

def latom(ap: AP) -> LAtom:
    return LAtom(ap)


def lnot(body: LTLFormula) -> LTLFormula:
    if isinstance(body, LTrue):
        return LFALSE
    if isinstance(body, LFalse):
        return LTRUE
    if isinstance(body, LNot):
        return body.body
    return LNot(body)


def land(*parts: LTLFormula) -> LTLFormula:
    """Conjunction of any number of formulas (binary tree internally)."""
    useful = [p for p in parts if not isinstance(p, LTrue)]
    if any(isinstance(p, LFalse) for p in useful):
        return LFALSE
    if not useful:
        return LTRUE
    result = useful[0]
    for p in useful[1:]:
        result = LAnd(result, p)
    return result


def lor(*parts: LTLFormula) -> LTLFormula:
    """Disjunction of any number of formulas (binary tree internally)."""
    useful = [p for p in parts if not isinstance(p, LFalse)]
    if any(isinstance(p, LTrue) for p in useful):
        return LTRUE
    if not useful:
        return LFALSE
    result = useful[0]
    for p in useful[1:]:
        result = LOr(result, p)
    return result


def limplies(a: LTLFormula, b: LTLFormula) -> LTLFormula:
    return lor(lnot(a), b)


def lnext(body: LTLFormula) -> LTLFormula:
    return LNext(body)


def luntil(left: LTLFormula, right: LTLFormula) -> LTLFormula:
    return LUntil(left, right)


def lrelease(left: LTLFormula, right: LTLFormula) -> LTLFormula:
    return LRelease(left, right)


def lfinally(body: LTLFormula) -> LTLFormula:
    """``F phi == true U phi``."""
    return LUntil(LTRUE, body)


def lglobally(body: LTLFormula) -> LTLFormula:
    """``G phi == false R phi``."""
    return LRelease(LFALSE, body)


def lbefore(left: LTLFormula, right: LTLFormula) -> LTLFormula:
    """The paper's ``B``: "phi must hold before psi fails".

    ``phi B psi == ~(~phi U ~psi)`` (Section 3).
    """
    return lnot(LUntil(lnot(left), lnot(right)))


# -- structure ------------------------------------------------------------

def lchildren(formula: LTLFormula) -> tuple[LTLFormula, ...]:
    if isinstance(formula, (LTrue, LFalse, LAtom)):
        return ()
    if isinstance(formula, (LNot, LNext)):
        return (formula.body,)
    if isinstance(formula, (LAnd, LOr, LUntil, LRelease)):
        return (formula.left, formula.right)
    raise FormulaError(f"not an LTL formula: {formula!r}")


def lwalk(formula: LTLFormula) -> Iterator[LTLFormula]:
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(lchildren(node)))


def atom_payloads(formula: LTLFormula) -> frozenset[AP]:
    """All atomic-proposition payloads mentioned in *formula*."""
    return frozenset(
        node.ap for node in lwalk(formula) if isinstance(node, LAtom)
    )


def to_nnf(formula: LTLFormula) -> LTLFormula:
    """Negation normal form: negations pushed down to atoms.

    Uses the dualities ``~X phi == X ~phi``, ``~(phi U psi) == ~phi R ~psi``
    and ``~(phi R psi) == ~phi U ~psi``.
    """
    if isinstance(formula, (LTrue, LFalse, LAtom)):
        return formula
    if isinstance(formula, LAnd):
        return LAnd(to_nnf(formula.left), to_nnf(formula.right))
    if isinstance(formula, LOr):
        return LOr(to_nnf(formula.left), to_nnf(formula.right))
    if isinstance(formula, LNext):
        return LNext(to_nnf(formula.body))
    if isinstance(formula, LUntil):
        return LUntil(to_nnf(formula.left), to_nnf(formula.right))
    if isinstance(formula, LRelease):
        return LRelease(to_nnf(formula.left), to_nnf(formula.right))
    if isinstance(formula, LNot):
        body = formula.body
        if isinstance(body, LTrue):
            return LFALSE
        if isinstance(body, LFalse):
            return LTRUE
        if isinstance(body, LAtom):
            return formula
        if isinstance(body, LNot):
            return to_nnf(body.body)
        if isinstance(body, LAnd):
            return LOr(to_nnf(lnot(body.left)), to_nnf(lnot(body.right)))
        if isinstance(body, LOr):
            return LAnd(to_nnf(lnot(body.left)), to_nnf(lnot(body.right)))
        if isinstance(body, LNext):
            return LNext(to_nnf(lnot(body.body)))
        if isinstance(body, LUntil):
            return LRelease(to_nnf(lnot(body.left)),
                            to_nnf(lnot(body.right)))
        if isinstance(body, LRelease):
            return LUntil(to_nnf(lnot(body.left)),
                          to_nnf(lnot(body.right)))
    raise FormulaError(f"not an LTL formula: {formula!r}")


def evaluate_on_word(formula: LTLFormula,
                     prefix: list[frozenset[AP]],
                     cycle: list[frozenset[AP]]) -> bool:
    """Truth of *formula* on the ultimately periodic word ``prefix cycle^w``.

    Reference semantics used by tests: evaluated by unrolling positions;
    position ``i >= len(prefix)`` maps into the cycle.  Correctness relies on
    the standard fact that an LTL formula's truth at positions of an
    ultimately periodic word is itself ultimately periodic with the same
    period, so checking ``len(prefix) + 2 * len(cycle) * (size of formula)``
    unrollings suffices; we implement the classic fixpoint evaluation over
    the lasso instead, which is exact.
    """
    if not cycle:
        raise FormulaError("cycle must be non-empty")
    total = len(prefix) + len(cycle)

    def letter(i: int) -> frozenset[AP]:
        if i < len(prefix):
            return prefix[i]
        return cycle[(i - len(prefix)) % len(cycle)]

    def succ(i: int) -> int:
        nxt = i + 1
        if nxt >= total:
            nxt = len(prefix)
        return nxt

    cache: dict[tuple[int, LTLFormula], bool] = {}

    def ev(i: int, f: LTLFormula) -> bool:
        key = (i, f)
        if key in cache:
            return cache[key]
        if isinstance(f, LTrue):
            result = True
        elif isinstance(f, LFalse):
            result = False
        elif isinstance(f, LAtom):
            result = f.ap in letter(i)
        elif isinstance(f, LNot):
            result = not ev(i, f.body)
        elif isinstance(f, LAnd):
            result = ev(i, f.left) and ev(i, f.right)
        elif isinstance(f, LOr):
            result = ev(i, f.left) or ev(i, f.right)
        elif isinstance(f, LNext):
            result = ev(succ(i), f.body)
        elif isinstance(f, LUntil):
            # walk forward at most `total` steps from i
            result = False
            j = i
            for _ in range(total + 1):
                if ev(j, f.right):
                    result = True
                    break
                if not ev(j, f.left):
                    result = False
                    break
                j = succ(j)
        elif isinstance(f, LRelease):
            result = not ev(i, LUntil(lnot(f.left), lnot(f.right)))
        else:
            raise FormulaError(f"not an LTL formula: {f!r}")
        cache[key] = result
        return result

    # Guard against the self-referential Until cache trap: evaluate untils
    # by explicit bounded walk (done above), all else memoized.
    return ev(0, formula)
