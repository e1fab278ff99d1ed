"""Tests for verification-domain computation and valuation enumeration."""

from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.ltlfo import parse_ltlfo
from repro.fo.terms import Var
from repro.verifier import (
    VerificationDomain, canonical_valuations, enumerate_databases,
    fresh_values, verification_domain,
)


class TestFreshValues:
    def test_distinct_from_taken(self):
        fresh = fresh_values(3, {"$v0", "x"})
        assert len(fresh) == 3
        assert "$v0" not in fresh
        assert len(set(fresh)) == 3


class TestVerificationDomain:
    def test_constants_from_spec_property_db(self, sender_receiver):
        prop = parse_ltlfo('G( R.got(x) -> x = "k" )',
                           sender_receiver.schema)
        dbs = {"S": Instance({"items": [("a",)]})}
        dom = verification_domain(sender_receiver, [prop], dbs)
        assert "k" in dom.constants
        assert "a" in dom.constants

    def test_fresh_count_default_covers_rule_width(self, sender_receiver):
        dom = verification_domain(sender_receiver, [], {})
        # widest rule has 1 variable -> at least 2 fresh values
        assert len(dom.fresh) >= 2

    def test_fresh_count_override(self, sender_receiver):
        dom = verification_domain(sender_receiver, [], {}, fresh_count=5)
        assert len(dom.fresh) == 5

    def test_values_ordering_stable(self, sender_receiver):
        d1 = verification_domain(sender_receiver, [], {})
        d2 = verification_domain(sender_receiver, [], {})
        assert d1.values == d2.values


class TestCanonicalValuations:
    def test_single_variable(self):
        dom = VerificationDomain(("c",), ("f0", "f1"))
        vals = canonical_valuations([Var("x")], dom)
        # c, or the FIRST fresh value only (symmetry)
        assert [v[Var("x")] for v in vals] == ["c", "f0"]

    def test_two_variables_fresh_in_order(self):
        dom = VerificationDomain((), ("f0", "f1", "f2"))
        vals = canonical_valuations([Var("x"), Var("y")], dom)
        pairs = {(v[Var("x")], v[Var("y")]) for v in vals}
        # x must take f0; y may reuse f0 or introduce f1 -- never f2
        assert pairs == {("f0", "f0"), ("f0", "f1")}

    def test_empty_variables(self):
        dom = VerificationDomain(("c",), ("f",))
        assert canonical_valuations([], dom) == [{}]

    def test_count_vs_naive(self):
        dom = VerificationDomain(("a", "b"), ("f0", "f1", "f2"))
        vals = canonical_valuations([Var("x"), Var("y")], dom)
        # naive would be 5^2 = 25; canonical collapses fresh symmetry
        assert len(vals) < 25
        # constants fully enumerated
        pairs = {(v[Var("x")], v[Var("y")]) for v in vals}
        assert ("a", "b") in pairs and ("b", "a") in pairs


def _filtered(variables, domain, candidates):
    """The full enumeration, restricted to *candidates* after the fact."""
    valuations = canonical_valuations(variables, domain)
    if not candidates:
        return valuations
    return [
        v for v in valuations
        if all(var.name not in candidates or v[var] in candidates[var.name]
               for var in variables)
    ]


@st.composite
def _candidate_cases(draw):
    constants = tuple(f"c{i}" for i in range(draw(st.integers(0, 4))))
    fresh = tuple(f"$v{i}" for i in range(draw(st.integers(0, 3))))
    domain = VerificationDomain(constants, fresh)
    names = ["x", "y", "z", "w"][:draw(st.integers(1, 4))]
    variables = [Var(name) for name in names]
    # values from the domain, a fresh value the domain lacks, and
    # values outside it
    pool = list(domain.values) + ["$v3", "outside", 7]
    keys = st.sampled_from(names + ["not_a_variable"])
    candidates = draw(st.one_of(
        st.none(),
        st.just({}),
        st.dictionaries(keys, st.lists(st.sampled_from(pool), max_size=5),
                        max_size=5),
    ))
    return variables, domain, candidates


class TestCandidateEnumeration:
    @given(case=_candidate_cases())
    @settings(max_examples=400, deadline=None)
    def test_equals_filtered_enumeration(self, case):
        variables, domain, candidates = case
        assert canonical_valuations(variables, domain, candidates) == \
            _filtered(variables, domain, candidates)

    def test_skips_non_candidates(self):
        dom = VerificationDomain(("a", "b"), ("f0", "f1"))
        x, y = Var("x"), Var("y")
        vals = canonical_valuations([x, y], dom, {"x": ["b", "f0"],
                                                  "y": ["f1"]})
        assert vals == [{x: "f0", y: "f1"}]


class TestEnumerateDatabases:
    def test_counts(self):
        dbs = enumerate_databases({"r": 1}, ("a", "b"), max_rows=1)
        # 0 rows or 1 of 2 rows = 3 instances
        assert len(dbs) == 3

    def test_cross_product_of_relations(self):
        dbs = enumerate_databases({"r": 1, "s": 1}, ("a",), max_rows=1)
        assert len(dbs) == 4
