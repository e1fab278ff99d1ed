"""Active-domain evaluation of FO formulas over relational instances.

The paper evaluates rule bodies and property sub-formulas over the current
configuration, with quantifiers ranging over the data domain.  Because
configurations are finite, evaluation over the *relevant finite domain*
(the verification domain, or the active domain plus mentioned constants) is
exact.

Two entry points:

* :func:`evaluate` -- truth of a formula under a full binding of its free
  variables: a check that the binding covers them, then :func:`decide`,
  timed under the ``fo-eval`` phase.  The verifier's truth memo calls
  :func:`decide` directly, with a payload *template* and the valuation's
  values of its free variables as the binding (or a closed formula and
  no binding): it checks the template's free variables once per binding,
  not once per truth, and enters the phase once per batch of truths;
* :func:`answers` -- the set of tuples for a head variable list that make a
  rule body true (used to fire input/state/action/send rules).

``answers`` computes *satisfying-binding sets* recursively.  For a
formula ``phi`` and a partial environment ``env``, ``sat_set`` returns the
set of bindings of ``free_vars(phi) \\ dom(env)`` under which ``phi`` holds.
Conjunction joins child binding sets; negation and universal quantification
enumerate their unbound variables over the domain (sound and complete for
finite domains; efficient for the guarded formulas that input-bounded
specifications produce, where negations have few unbound variables).

``evaluate`` needs one truth, not a binding set: its env binds every free
variable, so it decides the quantifier-free skeleton (atoms by tuple
membership, equalities, connectives) by short-circuit recursion, and hands
only the ``Exists``/``Forall`` subformulas it reaches, with that env, to
``sat_set``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from ..errors import FormulaError
from ..obs import PHASE_FO_EVAL, counter, phase
from .formulas import (
    And, Atom, Eq, Exists, Forall, Formula, FalseF, Implies, Not, Or, TrueF,
    constants, free_vars,
)
from .instance import Instance
from .terms import Const, Term, Value, Var, value_sort_key

#: A (partial) variable binding, keyed by variable name.
Env = dict[str, Value]
#: Hashable form of a binding, for deduplication.
FrozenEnv = frozenset[tuple[str, Value]]


def _freeze(env: Env) -> FrozenEnv:
    return frozenset(env.items())


def _thaw(frozen: FrozenEnv) -> Env:
    return dict(frozen)


def _resolve(term: Term, env: Env) -> Value | None:
    """Value of *term* under *env*, or None for an unbound variable."""
    if isinstance(term, Const):
        return term.value
    return env.get(term.name)


#: Relations smaller than this are scanned directly; building a hash
#: index only pays off once the scan itself is non-trivial.
_INDEX_MIN_ROWS = 5


def _match_atom(a: Atom, inst: Instance, env: Env) -> set[FrozenEnv]:
    """Bindings of the atom's unbound variables matching rows of *inst*."""
    out: set[FrozenEnv] = set()
    rows: Iterable = inst[a.rel]
    if len(rows) >= _INDEX_MIN_ROWS:
        # probe the per-instance hash index on the bound positions
        # instead of scanning the full extension
        positions: list[int] = []
        key: list[Value] = []
        for i, term in enumerate(a.terms):
            value = (term.value if isinstance(term, Const)
                     else env.get(term.name))
            if value is not None:
                positions.append(i)
                key.append(value)
        if positions:
            try:
                rows = inst.rows_matching(a.rel, tuple(positions),
                                          tuple(key))
            except IndexError:
                rows = inst[a.rel]  # arity clash: let the scan report it
    for row in rows:
        if len(row) != len(a.terms):
            raise FormulaError(
                f"atom {a} does not match arity of stored rows ({len(row)})"
            )
        local: Env = {}
        ok = True
        for term, value in zip(a.terms, row):
            if isinstance(term, Const):
                if term.value != value:
                    ok = False
                    break
            else:
                bound = env.get(term.name, local.get(term.name))
                if bound is None:
                    local[term.name] = value
                elif bound != value:
                    ok = False
                    break
        if ok:
            out.add(_freeze(local))
    return out


def _extend_all(bindings: set[FrozenEnv], missing: Sequence[str],
                domain: Sequence[Value]) -> set[FrozenEnv]:
    """Extend each binding with every assignment of *missing* over *domain*."""
    if not missing:
        return bindings
    out: set[FrozenEnv] = set()
    for frozen in bindings:
        base = _thaw(frozen)
        for combo in itertools.product(domain, repeat=len(missing)):
            ext = dict(base)
            ext.update(zip(missing, combo))
            out.add(_freeze(ext))
    return out


def _conjunct_rank(child: Formula, inst: Instance) -> tuple[int, int]:
    """Sort key for conjunct evaluation order (selectivity heuristic).

    Constants and groundable equalities first, then atoms by ascending
    extension size, then the remaining positive connectives, and
    negation-like children last (their enumeration shrinks with every
    variable already bound).  A variable-variable equality sorts with
    the positive connectives, not first: with neither side bound it
    enumerates the whole domain.
    """
    if isinstance(child, (TrueF, FalseF)):
        return (0, 0)
    if isinstance(child, Eq):
        if isinstance(child.left, Const) or isinstance(child.right, Const):
            return (0, 1)
        return (2, 0)
    if isinstance(child, Atom):
        return (1, len(inst[child.rel]))
    if isinstance(child, (Not, Forall, Implies)):
        return (3, 0)
    return (2, 1)


def sat_set(formula: Formula, inst: Instance, domain: Sequence[Value],
            env: Env | None = None) -> set[FrozenEnv]:
    """Bindings of the unbound free variables under which *formula* holds.

    ``env`` binds some of the formula's free variables; each returned
    binding covers exactly ``free_vars(formula)`` minus the bound ones.
    """
    env = env or {}

    if isinstance(formula, TrueF):
        return {frozenset()}
    if isinstance(formula, FalseF):
        return set()

    if isinstance(formula, Atom):
        return _match_atom(formula, inst, env)

    if isinstance(formula, Eq):
        lv = _resolve(formula.left, env)
        rv = _resolve(formula.right, env)
        if lv is not None and rv is not None:
            return {frozenset()} if lv == rv else set()
        if lv is not None:
            assert isinstance(formula.right, Var)
            return {_freeze({formula.right.name: lv})}
        if rv is not None:
            assert isinstance(formula.left, Var)
            return {_freeze({formula.left.name: rv})}
        assert isinstance(formula.left, Var)
        assert isinstance(formula.right, Var)
        if formula.left.name == formula.right.name:
            return {_freeze({formula.left.name: v}) for v in domain}
        return {
            _freeze({formula.left.name: v, formula.right.name: v})
            for v in domain
        }

    if isinstance(formula, Not):
        unbound = sorted(
            v.name for v in free_vars(formula.body) if v.name not in env
        )
        out: set[FrozenEnv] = set()
        for combo in itertools.product(domain, repeat=len(unbound)):
            full = dict(env)
            full.update(zip(unbound, combo))
            if not sat_set(formula.body, inst, domain, full):
                out.add(_freeze(dict(zip(unbound, combo))))
        return out

    if isinstance(formula, And):
        result: set[FrozenEnv] = {frozenset()}
        # Selectivity-ordered join: cheap binding producers first, then
        # atoms by ascending extension size, negation-like children last
        # so they see their variables bound (efficiency only; correctness
        # is independent of order because every child is evaluated under
        # all join contexts).
        ordered = sorted(
            formula.children,
            key=lambda c: _conjunct_rank(c, inst),
        )
        for child in ordered:
            next_result: set[FrozenEnv] = set()
            for frozen in result:
                ctx = dict(env)
                ctx.update(_thaw(frozen))
                for extra in sat_set(child, inst, domain, ctx):
                    merged = _thaw(frozen)
                    merged.update(_thaw(extra))
                    next_result.add(_freeze(merged))
            result = next_result
            if not result:
                return set()
        return result

    if isinstance(formula, Or):
        all_free = sorted(
            v.name for v in free_vars(formula) if v.name not in env
        )
        out = set()
        for child in formula.children:
            child_sat = sat_set(child, inst, domain, env)
            covered = {
                v.name for v in free_vars(child) if v.name not in env
            }
            missing = [v for v in all_free if v not in covered]
            out |= _extend_all(child_sat, missing, domain)
        return out

    if isinstance(formula, Implies):
        rewritten = Or((Not(formula.antecedent), formula.consequent))
        return sat_set(rewritten, inst, domain, env)

    if isinstance(formula, Exists):
        bound_names = {v.name for v in formula.variables}
        # quantified variables shadow any outer binding of the same name
        inner_env = {k: v for k, v in env.items() if k not in bound_names}
        body_sat = sat_set(formula.body, inst, domain, inner_env)
        out = set()
        for frozen in body_sat:
            kept = {
                name: val for name, val in _thaw(frozen).items()
                if name not in bound_names
            }
            out.add(_freeze(kept))
        return out

    if isinstance(formula, Forall):
        rewritten = Not(Exists(formula.variables, Not(formula.body)))
        return sat_set(rewritten, inst, domain, env)

    raise FormulaError(f"not an FO formula: {formula!r}")


def evaluate(formula: Formula, inst: Instance, domain: Sequence[Value],
             env: Mapping[str, Value] | None = None) -> bool:
    """Truth of *formula* over *inst* with quantifiers ranging over *domain*.

    Every free variable of the formula must be bound by *env*.
    """
    env = dict(env or {})
    unbound = [v.name for v in free_vars(formula) if v.name not in env]
    if unbound:
        raise FormulaError(
            f"evaluate() requires all free variables bound; "
            f"missing {sorted(unbound)} in {formula}"
        )
    with phase(PHASE_FO_EVAL):
        return decide(formula, inst, domain, env)


def decide(formula: Formula, inst: Instance, domain: Sequence[Value],
           env: Env) -> bool:
    """:func:`evaluate` without its free-variable check and its phase:
    the caller guarantees that *env* binds every free variable of
    *formula*, and times the call under the ``fo-eval`` phase.

    Counted in ``fo.evaluate_calls``, as :func:`evaluate` is.
    """
    counter("fo.evaluate_calls").inc()
    return _decide(formula, inst, domain, env)


def _decide(formula: Formula, inst: Instance, domain: Sequence[Value],
            env: Env) -> bool:
    """Truth of *formula* under *env*, which binds its free variables.

    The quantifier-free skeleton is decided by short circuit; a quantified
    subformula goes, with *env*, to :func:`sat_set`, whose binding set
    under a full env is ``{frozenset()}`` (true) or empty (false).
    """
    if isinstance(formula, Atom):
        row = tuple(term.value if isinstance(term, Const) else env[term.name]
                    for term in formula.terms)
        rows = inst[formula.rel]
        if row in rows:
            return True
        if rows and len(next(iter(rows))) != len(row):
            raise FormulaError(
                f"atom {formula} does not match arity of stored rows "
                f"({len(next(iter(rows)))})")
        return False
    if isinstance(formula, Implies):
        return (not _decide(formula.antecedent, inst, domain, env)
                or _decide(formula.consequent, inst, domain, env))
    if isinstance(formula, And):
        return all(_decide(child, inst, domain, env)
                   for child in formula.children)
    if isinstance(formula, Or):
        return any(_decide(child, inst, domain, env)
                   for child in formula.children)
    if isinstance(formula, Not):
        return not _decide(formula.body, inst, domain, env)
    if isinstance(formula, Eq):
        return _resolve(formula.left, env) == _resolve(formula.right, env)
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    return bool(sat_set(formula, inst, domain, env))


def answers(formula: Formula, head: Sequence[Var],
            inst: Instance, domain: Sequence[Value],
            env: Mapping[str, Value] | None = None
            ) -> frozenset[tuple[Value, ...]]:
    """All tuples for the *head* variables under which *formula* holds.

    Head variables not constrained by the formula range over *domain*
    (active-domain semantics).  This is the rule-firing primitive: for a
    rule ``R(x̄) <- phi(x̄)`` the new rows of ``R`` are
    ``answers(phi, x̄, configuration, domain)``.
    """
    env = dict(env or {})
    counter("fo.answers_calls").inc()
    with phase(PHASE_FO_EVAL):
        sat = sat_set(formula, inst, domain, env)
    head_names = [v.name for v in head]
    covered = {v.name for v in free_vars(formula)} | set(env)
    missing = [n for n in head_names if n not in covered]
    sat = _extend_all(sat, missing, list(domain))
    out: set[tuple[Value, ...]] = set()
    for frozen in sat:
        binding = dict(env)
        binding.update(_thaw(frozen))
        out.add(tuple(binding[n] for n in head_names))
    return frozenset(out)


def evaluate_naive(formula: Formula, inst: Instance,
                   domain: Sequence[Value],
                   env: Mapping[str, Value] | None = None) -> bool:
    """Reference brute-force evaluator (used by tests as ground truth).

    Enumerates quantifier assignments directly from the textbook semantics;
    exponential, but unambiguous.
    """
    env = dict(env or {})

    def ev(f: Formula, e: Env) -> bool:
        if isinstance(f, TrueF):
            return True
        if isinstance(f, FalseF):
            return False
        if isinstance(f, Atom):
            row = []
            for t in f.terms:
                v = _resolve(t, e)
                if v is None:
                    raise FormulaError(f"unbound variable in {f}")
                row.append(v)
            return tuple(row) in inst[f.rel]
        if isinstance(f, Eq):
            lv, rv = _resolve(f.left, e), _resolve(f.right, e)
            if lv is None or rv is None:
                raise FormulaError(f"unbound variable in {f}")
            return lv == rv
        if isinstance(f, Not):
            return not ev(f.body, e)
        if isinstance(f, And):
            return all(ev(c, e) for c in f.children)
        if isinstance(f, Or):
            return any(ev(c, e) for c in f.children)
        if isinstance(f, Implies):
            return (not ev(f.antecedent, e)) or ev(f.consequent, e)
        if isinstance(f, Exists):
            names = [v.name for v in f.variables]
            return any(
                ev(f.body, {**e, **dict(zip(names, combo))})
                for combo in itertools.product(domain, repeat=len(names))
            )
        if isinstance(f, Forall):
            names = [v.name for v in f.variables]
            return all(
                ev(f.body, {**e, **dict(zip(names, combo))})
                for combo in itertools.product(domain, repeat=len(names))
            )
        raise FormulaError(f"not an FO formula: {f!r}")

    unbound = [v.name for v in free_vars(formula) if v.name not in env]
    if unbound:
        raise FormulaError(f"unbound free variables: {unbound}")
    return ev(formula, env)


def default_domain(formula: Formula, inst: Instance,
                   extra: Iterable[Value] = ()) -> tuple[Value, ...]:
    """The active domain of *inst* plus the formula's constants and *extra*.

    Sorted deterministically so evaluation is reproducible.
    """
    dom = set(inst.active_domain())
    dom |= set(constants(formula))
    dom |= set(extra)
    return tuple(sorted(dom, key=value_sort_key))
