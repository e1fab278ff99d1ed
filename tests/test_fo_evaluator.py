"""Tests for the FO evaluator, including hypothesis equivalence with the
brute-force reference semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FormulaError
from repro.fo import (
    Instance, Var, answers, atom, conj, default_domain, disj, eq, evaluate,
    evaluate_naive, exists, forall, implies, neg,
)
from repro.fo.formulas import And, Atom, Eq, Exists, Forall, Not, Or

DOMAIN = ("a", "b", "c")


def inst(**relations):
    return Instance({k: v for k, v in relations.items()})


class TestBasics:
    def test_atom_truth(self):
        i = inst(r=[("a",)])
        assert evaluate(atom("r", "a"), i, DOMAIN)
        assert not evaluate(atom("r", "b"), i, DOMAIN)

    def test_equality(self):
        assert evaluate(eq("a", "a"), inst(), DOMAIN)
        assert not evaluate(eq("a", "b"), inst(), DOMAIN)

    def test_env_binding(self):
        i = inst(r=[("a",)])
        assert evaluate(atom("r", Var("x")), i, DOMAIN, {"x": "a"})
        assert not evaluate(atom("r", Var("x")), i, DOMAIN, {"x": "b"})

    def test_unbound_free_var_raises(self):
        with pytest.raises(FormulaError):
            evaluate(atom("r", Var("x")), inst(), DOMAIN)

    def test_unbound_free_var_raises_wherever_it_occurs(self):
        """Unbound in an equality, behind a short circuit, or free in a
        quantified subformula: every case raises before evaluating."""
        i = inst(r=[("a", "b")])
        for formula in (
            eq(Var("x"), "a"),
            disj(atom("r", "a", "b"), atom("r", Var("x"), "b")),
            exists(["y"], atom("r", Var("x"), Var("y"))),
        ):
            with pytest.raises(FormulaError, match="missing"):
                evaluate(formula, i, DOMAIN)

    def test_atom_arity_clash_raises(self):
        """An evaluated atom whose stored rows have another arity raises,
        decided by membership or matched under a quantifier."""
        i = inst(r=[("a", "b")])
        for formula, env in (
            (atom("r", "a"), {}),
            (atom("r", Var("x")), {"x": "a"}),
            (neg(atom("r", "a", "b", "c")), {}),
            (exists(["x"], atom("r", Var("x"))), {}),
        ):
            with pytest.raises(FormulaError, match="arity"):
                evaluate(formula, i, DOMAIN, env)

    def test_exists(self):
        i = inst(r=[("b",)])
        assert evaluate(exists(["x"], atom("r", Var("x"))), i, DOMAIN)
        assert not evaluate(exists(["x"], atom("s", Var("x"))), i, DOMAIN)

    def test_forall(self):
        i = inst(r=[(v,) for v in DOMAIN])
        assert evaluate(forall(["x"], atom("r", Var("x"))), i, DOMAIN)
        j = inst(r=[("a",)])
        assert not evaluate(forall(["x"], atom("r", Var("x"))), j, DOMAIN)

    def test_negation_of_exists(self):
        f = neg(exists(["x"], atom("r", Var("x"))))
        assert evaluate(f, inst(), DOMAIN)

    def test_implication(self):
        f = forall(["x"], implies(atom("r", Var("x")), atom("s", Var("x"))))
        assert evaluate(f, inst(r=[("a",)], s=[("a",)]), DOMAIN)
        assert not evaluate(f, inst(r=[("a",)]), DOMAIN)

    def test_join_across_atoms(self):
        f = exists(["x", "y"], conj(
            atom("r", Var("x"), Var("y")), atom("s", Var("y")),
        ))
        assert evaluate(f, inst(r=[("a", "b")], s=[("b",)]), DOMAIN)
        assert not evaluate(f, inst(r=[("a", "b")], s=[("c",)]), DOMAIN)


class TestAnswers:
    def test_simple_selection(self):
        i = inst(r=[("a", "b"), ("b", "c")])
        result = answers(atom("r", Var("x"), Var("y")),
                         [Var("x"), Var("y")], i, DOMAIN)
        assert result == frozenset({("a", "b"), ("b", "c")})

    def test_projection_order(self):
        i = inst(r=[("a", "b")])
        result = answers(atom("r", Var("x"), Var("y")),
                         [Var("y"), Var("x")], i, DOMAIN)
        assert result == frozenset({("b", "a")})

    def test_unconstrained_head_var_ranges_over_domain(self):
        result = answers(atom("p"), [Var("x")], inst(p=[()]), DOMAIN)
        assert result == frozenset({(v,) for v in DOMAIN})

    def test_negation_in_body(self):
        i = inst(r=[("a",), ("b",)], bad=[("b",)])
        body = conj(atom("r", Var("x")), neg(atom("bad", Var("x"))))
        assert answers(body, [Var("x")], i, DOMAIN) == frozenset({("a",)})

    def test_disjunctive_body(self):
        i = inst(r=[("a",)], s=[("b",)])
        body = disj(atom("r", Var("x")), atom("s", Var("x")))
        assert answers(body, [Var("x")], i, DOMAIN) == frozenset(
            {("a",), ("b",)}
        )

    def test_false_body(self):
        from repro.fo import FALSE
        assert answers(FALSE, [Var("x")], inst(), DOMAIN) == frozenset()

    def test_equality_guard(self):
        body = conj(atom("r", Var("x")), eq(Var("x"), "a"))
        i = inst(r=[("a",), ("b",)])
        assert answers(body, [Var("x")], i, DOMAIN) == frozenset({("a",)})


class TestDefaultDomain:
    def test_includes_adom_constants_and_extra(self):
        f = eq(Var("x"), "zz")
        i = inst(r=[("a",)])
        dom = default_domain(f, i, extra=["q"])
        assert set(dom) == {"a", "zz", "q"}


# -- property-based equivalence with the reference semantics ---------------

_values = st.sampled_from(["a", "b", "c"])
_varnames = st.sampled_from(["x", "y", "z"])


def _terms():
    return st.one_of(
        _varnames.map(Var),
        _values.map(lambda v: __import__(
            "repro.fo.terms", fromlist=["Const"]).Const(v)),
    )


def _formulas(depth=3):
    base = st.one_of(
        st.tuples(st.sampled_from(["r", "s"]), _terms(), _terms()).map(
            lambda t: Atom(t[0], (t[1], t[2]))
        ),
        st.tuples(_terms(), _terms()).map(lambda t: Eq(*t)),
    )
    if depth == 0:
        return base
    sub = _formulas(depth - 1)
    return st.one_of(
        base,
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(t)),
        st.tuples(sub, sub).map(lambda t: Or(t)),
        st.tuples(_varnames, sub).map(
            lambda t: Exists((Var(t[0]),), t[1])
        ),
        st.tuples(_varnames, sub).map(
            lambda t: Forall((Var(t[0]),), t[1])
        ),
    )


# up to all 9 rows, so atoms are matched both by scan and, from 5 rows,
# through the instance's hash index
_instances = st.builds(
    lambda r_rows, s_rows: Instance({"r": r_rows, "s": s_rows}),
    st.lists(st.tuples(_values, _values), max_size=9, unique=True),
    st.lists(st.tuples(_values, _values), max_size=9, unique=True),
)


@given(formula=_formulas(), instance=_instances,
       env_vals=st.tuples(_values, _values, _values))
@settings(max_examples=200, deadline=None)
def test_evaluator_matches_reference(formula, instance, env_vals):
    """The optimized evaluator agrees with the brute-force semantics."""
    env = dict(zip(["x", "y", "z"], env_vals))
    fast = evaluate(formula, instance, DOMAIN, env)
    slow = evaluate_naive(formula, instance, DOMAIN, env)
    assert fast == slow


@given(formula=_formulas(depth=2), instance=_instances)
@settings(max_examples=100, deadline=None)
def test_answers_matches_pointwise_evaluation(formula, instance):
    """answers() returns exactly the satisfying head tuples."""
    from repro.fo.formulas import free_vars
    head = sorted(free_vars(formula), key=lambda v: v.name)
    result = answers(formula, head, instance, DOMAIN)
    import itertools
    for combo in itertools.product(DOMAIN, repeat=len(head)):
        env = {v.name: c for v, c in zip(head, combo)}
        expected = evaluate_naive(formula, instance, DOMAIN, env)
        assert (tuple(combo) in result) == expected
