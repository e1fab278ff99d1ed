"""Property-based tests (hypothesis) for the FO evaluator and the
valuation canonicalizer.

Two independently implemented evaluators must agree on random formulas
over random small instances: the production evaluator
(:func:`repro.fo.evaluator.evaluate`, which decides the quantifier-free
skeleton by short circuit and quantified subformulas by
satisfying-binding sets under the bound env) and the textbook
brute-force one (:func:`repro.fo.evaluator.evaluate_naive`).  Binary
relations reach 9 rows, past the 5 from which the atom matcher probes a
hash index instead of scanning, so both paths are drawn.  The same
instances also check :func:`answers` against direct enumeration.

For :mod:`repro.verifier.domain`, the symmetry canonicalization must
actually be canonical: ``canonical_valuations`` enumerates exactly the
fixpoints of :func:`canonicalize_valuation`, and the representative of
a valuation is invariant under any permutation of the fresh values.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo.evaluator import answers, evaluate, evaluate_naive
from repro.fo.formulas import (
    And, Atom, Eq, Exists, Forall, Implies, Not, Or, TrueF,
)
from repro.fo.instance import Instance
from repro.fo.terms import Const, Var
from repro.obs import counters_snapshot
from repro.verifier.domain import (
    VerificationDomain, canonical_valuations, canonicalize_valuation,
)

DOMAIN = ("a", "b", "c")
VAR_NAMES = ("x", "y", "z")

# -- formula strategy -------------------------------------------------------

terms = st.one_of(
    st.sampled_from([Var(n) for n in VAR_NAMES]),
    st.sampled_from([Const(v) for v in DOMAIN]),
)


def atoms():
    unary = st.tuples(terms).map(lambda t: Atom("S", t))
    binary = st.tuples(terms, terms).map(lambda t: Atom("R", t))
    eq = st.tuples(terms, terms).map(lambda t: Eq(t[0], t[1]))
    return st.one_of(unary, binary, eq, st.just(TrueF()))


def formulas():
    quantified_vars = st.lists(
        st.sampled_from([Var(n) for n in VAR_NAMES]),
        min_size=1, max_size=2, unique=True,
    ).map(tuple)
    return st.recursive(
        atoms(),
        lambda children: st.one_of(
            children.map(Not),
            st.tuples(children, children).map(And),
            st.tuples(children, children).map(Or),
            st.tuples(children, children).map(
                lambda p: Implies(p[0], p[1])
            ),
            st.tuples(quantified_vars, children).map(
                lambda p: Exists(p[0], p[1])
            ),
            st.tuples(quantified_vars, children).map(
                lambda p: Forall(p[0], p[1])
            ),
        ),
        max_leaves=6,
    )


rows1 = st.frozensets(
    st.tuples(st.sampled_from(DOMAIN)), max_size=3
)
rows2 = st.frozensets(
    st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN)), max_size=9
)
instances = st.builds(
    lambda s, r: Instance({"S": s, "R": r}), rows1, rows2
)
full_envs = st.fixed_dictionaries(
    {n: st.sampled_from(DOMAIN) for n in VAR_NAMES}
)


def assert_evaluators_agree(formula, inst, env):
    assert evaluate(formula, inst, DOMAIN, env) == \
        evaluate_naive(formula, inst, DOMAIN, env), (
            f"evaluators disagree on {formula} over {dict(env)}"
        )


@settings(max_examples=120, deadline=None)
@given(formula=formulas(), inst=instances, env=full_envs)
def test_evaluator_agrees_with_naive(formula, inst, env):
    assert_evaluators_agree(formula, inst, env)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(formula=formulas(), inst=instances, env=full_envs)
def test_evaluator_agrees_with_naive_at_depth(formula, inst, env):
    """The same differential over 2,000 examples."""
    assert_evaluators_agree(formula, inst, env)


def test_quantified_subformula_under_a_bound_env_probes_the_index():
    """A quantified subformula that ``evaluate`` hands to the binding-set
    evaluator under its env matches a bound atom against a relation of 5+
    rows through the hash index; the truths still match the reference."""
    rows = [(u, v) for u in DOMAIN for v in DOMAIN if (u, v) != ("a", "c")]
    inst = Instance({"S": [("a",), ("c",)], "R": rows})
    x, y = Var("x"), Var("y")
    formula = Implies(
        Atom("S", (x,)),
        Exists((y,), And((Atom("R", (x, y)), Not(Atom("S", (y,)))))))
    before = counters_snapshot().get("fo.index_builds", 0)
    for value in DOMAIN:
        assert_evaluators_agree(formula, inst, {"x": value})
    assert counters_snapshot()["fo.index_builds"] > before


@settings(max_examples=60, deadline=None)
@given(formula=formulas(), inst=instances)
def test_answers_agree_with_naive_enumeration(formula, inst):
    head = tuple(Var(n) for n in VAR_NAMES)
    got = answers(formula, head, inst, DOMAIN)
    expected = frozenset(
        combo
        for combo in itertools.product(DOMAIN, repeat=len(head))
        if evaluate_naive(formula, inst, DOMAIN,
                          dict(zip(VAR_NAMES, combo)))
    )
    assert got == expected


# -- canonicalization -------------------------------------------------------

domains = st.builds(
    VerificationDomain,
    st.just(("k1", "k2")),
    st.sampled_from([("$v0",), ("$v0", "$v1"), ("$v0", "$v1", "$v2")]),
)
variable_tuples = st.sampled_from([
    (Var("x"),), (Var("x"), Var("y")), (Var("x"), Var("y"), Var("z")),
])


@st.composite
def domain_vars_valuation(draw):
    domain = draw(domains)
    variables = draw(variable_tuples)
    valuation = {
        var: draw(st.sampled_from(domain.values)) for var in variables
    }
    return domain, variables, valuation


@settings(max_examples=150, deadline=None)
@given(data=domain_vars_valuation())
def test_canonicalize_lands_in_canonical_set(data):
    domain, variables, valuation = data
    canon = canonicalize_valuation(variables, valuation, domain)
    assert canon in canonical_valuations(variables, domain)
    # idempotence
    assert canonicalize_valuation(variables, canon, domain) == canon


@settings(max_examples=100, deadline=None)
@given(data=domain_vars_valuation(),
       perm_index=st.integers(min_value=0, max_value=5))
def test_canonical_form_invariant_under_fresh_renaming(data, perm_index):
    domain, variables, valuation = data
    perms = list(itertools.permutations(domain.fresh))
    perm = dict(zip(domain.fresh, perms[perm_index % len(perms)]))
    renamed = {
        var: perm.get(value, value) for var, value in valuation.items()
    }
    assert canonicalize_valuation(variables, renamed, domain) == \
        canonicalize_valuation(variables, valuation, domain)


@given(domain=domains, variables=variable_tuples)
@settings(max_examples=40, deadline=None)
def test_canonical_valuations_are_exactly_the_fixpoints(domain, variables):
    canon_set = canonical_valuations(variables, domain)
    # every enumerated valuation is a fixpoint of canonicalization
    for valuation in canon_set:
        assert canonicalize_valuation(variables, valuation, domain) == \
            valuation
    # and the enumeration covers every orbit exactly once: canonicalizing
    # the full product enumeration reaches each representative, and no
    # two representatives are equivalent
    seen = []
    for combo in itertools.product(domain.values, repeat=len(variables)):
        valuation = dict(zip(variables, combo))
        canon = canonicalize_valuation(variables, valuation, domain)
        if canon not in seen:
            seen.append(canon)
    assert {tuple(sorted((v.name, val) for v, val in c.items()))
            for c in seen} == \
        {tuple(sorted((v.name, val) for v, val in c.items()))
         for c in canon_set}
