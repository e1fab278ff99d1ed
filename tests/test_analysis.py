"""The static analyzer: diagnostics, passes, classifier, SARIF."""

import json

import pytest

from repro.analysis import (
    CODES, Severity, classify, classification_diagnostics,
    classify_protocol, lint_composition, lint_text, make, render_report,
    sort_key, to_json, to_sarif,
)
from repro.analysis.rules_pass import abstract, implies, satisfiable
from repro.ib import check_composition, summarize
from repro.library import ecommerce, loan, travel
from repro.library.synthetic import relay_chain
from repro.ltlfo.parser import parse_ltlfo
from repro.spec.channels import (
    ChannelSemantics, DECIDABLE_DEFAULT, DECIDABLE_FAITHFUL,
    DETERMINISTIC_LOSSY, PERFECT_BOUNDED,
)
from repro.spec.dsl import load_composition


def errors_of(report):
    return [d for d in report.diagnostics
            if d.severity is Severity.ERROR]


# ---------------------------------------------------------------------------
# diagnostics plumbing


class TestDiagnostics:
    def test_every_code_has_catalog_entry(self):
        for code, info in CODES.items():
            assert code.startswith("DWV") and len(code) == 6
            assert info.title and info.ref

    def test_make_defaults_from_catalog(self):
        d = make("DWV001", "msg", where="peer X", subject="phi")
        assert d.severity is Severity.ERROR
        assert d.ref == CODES["DWV001"].ref
        assert d.hint == CODES["DWV001"].hint

    def test_render_has_code_severity_location(self):
        d = make("DWV101", "never fires", where="peer X, insert rule "
                 "for s", subject="s(x) <- false")
        line = d.render().splitlines()[0]
        assert line.startswith("DWV101 warning [peer X, insert rule "
                               "for s]")
        assert "s(x) <- false" in line

    def test_sort_errors_first(self):
        note = make("DWV202", "unused", where="a")
        err = make("DWV001", "unguarded", where="z")
        assert sorted([note, err], key=sort_key)[0] is err

    def test_json_schema(self):
        payload = json.loads(to_json([make("DWV001", "m")]))
        assert payload["schema"] == "repro.lint/1"
        assert payload["counts"]["error"] == 1
        assert payload["diagnostics"][0]["code"] == "DWV001"

    def test_empty_report_is_clean(self):
        assert render_report([]) == "clean: no diagnostics"


# ---------------------------------------------------------------------------
# golden runs over the library specs (acceptance: zero errors)


class TestLibraryGolden:
    @pytest.mark.parametrize("composition", [
        loan.loan_composition(),
        ecommerce.ecommerce_composition(),
        travel.travel_composition(),
    ], ids=["loan", "ecommerce", "travel"])
    def test_no_error_diagnostics(self, composition):
        report = lint_composition(composition)
        assert errors_of(report) == []
        assert report.passes_run == [
            "ib", "rules", "reachability", "channels",
            "flow", "provenance", "decidability",
        ]

    def test_loan_flat_db_join_is_noted(self):
        report = lint_composition(loan.loan_composition())
        notes = report.by_code("DWV306")
        assert {d.peer for d in notes} == {"O", "CR"}

    def test_auction_example_lints_clean(self):
        text = open("examples/specs/auction.dws").read()
        report = lint_text(text)
        assert errors_of(report) == []


# ---------------------------------------------------------------------------
# seeded defects: each must produce exactly the expected code


NON_IB = """
peer A {
    state s/1
    state t/1
    in flat q/1
    insert s(x) <- ?q(x) & (exists y. (t(y)))
    insert t(x) <- ?q(x)
}
"""

UNREACHABLE = """
peer A {
    state s/1
    state never/1
    in flat q/1
    insert s(x) <- ?q(x) & never(x)
}
"""

UNDECLARED_QUEUE = """
peer A {
    state s/1
    in flat q/1
    insert s(x) <- ?q(x)
    send r(x) <- ?q(x)
}
"""

UNSAT_GUARD = """
peer A {
    state s/1
    state done/0
    in flat q/1
    insert s(x) <- ?q(x) & done & ~done
}
"""


class TestSeededDefects:
    def test_non_ib_rule(self):
        report = lint_text(NON_IB)
        assert [d.code for d in errors_of(report)] == ["DWV001"]

    def test_unreachable_state(self):
        report = lint_text(UNREACHABLE)
        assert report.by_code("DWV201")
        [diag] = report.by_code("DWV201")
        assert diag.subject == "never"
        assert errors_of(report) == []

    def test_undeclared_queue(self):
        report = lint_text(UNDECLARED_QUEUE)
        assert [d.code for d in errors_of(report)] == ["DWV301"]
        # structure-only: the document is not built
        assert report.passes_run == ["structure"]

    def test_unsatisfiable_guard(self):
        report = lint_text(UNSAT_GUARD)
        [diag] = report.by_code("DWV101")
        assert diag.peer == "A"

    def test_literal_false_body_is_not_dead(self):
        text = UNSAT_GUARD.replace("?q(x) & done & ~done", "false")
        report = lint_text(text)
        assert report.by_code("DWV101") == []


# ---------------------------------------------------------------------------
# structural scan


class TestStructuralScan:
    def test_wrong_kind_target(self):
        report = lint_text("""
peer A {
    database d/1
    in flat q/1
    state s/1
    insert s(x) <- ?q(x)
    send d(x) <- ?q(x)
}
""")
        assert [d.code for d in errors_of(report)] == ["DWV302"]

    def test_head_arity_mismatch(self):
        report = lint_text("""
peer A {
    state s/2
    in flat q/1
    insert s(x) <- ?q(x)
}
""")
        assert [d.code for d in errors_of(report)] == ["DWV303"]

    def test_duplicate_sender(self):
        report = lint_text("""
peer A {
    state s/1
    out flat q/1
    send q(x) <- s(x)
}
peer B {
    state t/1
    out flat q/1
    send q(x) <- t(x)
}
""")
        assert "DWV304" in [d.code for d in errors_of(report)]

    def test_endpoint_mismatch(self):
        report = lint_text("""
peer A {
    state s/1
    out flat q/1
    send q(x) <- s(x)
}
peer B {
    state t/2
    in flat q/2
    insert t(x, y) <- ?q(x, y)
}
""")
        assert [d.code for d in errors_of(report)] == ["DWV305"]

    def test_self_channel(self):
        report = lint_text("""
peer A {
    state s/1
    out flat q/1
    in flat q/1
    send q(x) <- s(x)
    insert s(x) <- ?q(x)
}
""")
        codes = [d.code for d in errors_of(report)]
        assert "DWV308" in codes or "DWV304" in codes


# ---------------------------------------------------------------------------
# dead/shadowed rule machinery


class TestPropositionalAbstraction:
    def test_contradiction_is_unsat(self):
        comp = load_composition(UNSAT_GUARD)
        rule = comp.peers[0].rules[0]
        assert not satisfiable(abstract(rule.body))

    def test_quantifiers_stay_opaque(self):
        # (exists x: t(x)) & ~(exists x: ~t(x)) is satisfiable; a naive
        # abstraction descending into the quantifiers would refute it.
        comp = load_composition("""
peer A {
    state t/1
    state s/0
    in flat q/1
    insert s <- (exists x. (t(x))) & ~(exists x. (~t(x)))
}
""")
        rule = comp.peers[0].rules[0]
        assert satisfiable(abstract(rule.body))

    def test_implies_same_skeleton(self):
        comp = load_composition(UNREACHABLE)
        body = comp.peers[0].rules[0].body
        assert implies(abstract(body), abstract(body))

    def test_insert_delete_shadow(self):
        report = lint_text("""
peer A {
    state s/1
    in flat q/1
    insert s(x) <- ?q(x)
    delete s(y) <- ?q(y)
}
""")
        # insert and delete always fire together: both are no-ops
        assert len(report.by_code("DWV102")) == 2

    def test_shadowed_disjunct(self):
        report = lint_text("""
peer A {
    state s/1
    state p/0
    in flat q/1
    insert s(x) <- ?q(x) | (?q(x) & p)
}
""")
        [diag] = report.by_code("DWV103")
        assert "disjunct 2" in diag.message


# ---------------------------------------------------------------------------
# reachability / unused


class TestReachability:
    def test_unused_relation(self):
        report = lint_text("""
peer A {
    database d/1
    state s/1
    in flat q/1
    insert s(x) <- ?q(x)
}
""")
        [diag] = report.by_code("DWV202")
        assert diag.subject == "d"

    def test_chain_states_are_reachable(self):
        report = lint_composition(relay_chain(2))
        assert report.by_code("DWV201") == []

    def test_closed_channel_feeds_reachability(self):
        # s is populated only via the channel from B; must not be flagged
        report = lint_text("""
peer A {
    state s/1
    in flat q/1
    state done/0
    insert s(x) <- ?q(x)
    insert done <- (exists x. (?q(x) & s(x)))
}
peer B {
    database d/1
    input pick/1
    out flat q/1
    input pick(x) <- d(x)
    send q(x) <- pick(x)
}
""")
        assert report.by_code("DWV201") == []


# ---------------------------------------------------------------------------
# channel discipline


class TestChannels:
    def test_never_consumed_queue(self):
        report = lint_text("""
peer A {
    state s/0
    in flat q/1
    insert s <- true
}
peer B {
    database d/1
    input pick/1
    out flat q/1
    input pick(x) <- d(x)
    send q(x) <- pick(x)
}
""")
        [diag] = report.by_code("DWV307")
        assert diag.subject == "q"

    def test_dangling_endpoint_is_note(self, open_relay):
        report = lint_composition(open_relay)
        codes = {d.code for d in report.diagnostics}
        assert "DWV309" in codes
        assert all(d.severity is not Severity.ERROR
                   for d in report.by_code("DWV309"))


# ---------------------------------------------------------------------------
# decidability classifier


class TestClassifier:
    def test_loan_is_pspace_decidable(self):
        sentences = [
            parse_ltlfo(loan.PROPERTY_BANK_POLICY_POINTWISE,
                        loan.loan_composition().schema),
        ]
        c = classify(loan.loan_composition(), sentences,
                     DECIDABLE_DEFAULT)
        assert c.decidable
        assert c.theorem == "Theorem 3.4"
        assert c.complexity == "PSPACE"

    def test_perfect_channels_undecidable(self):
        c = classify(loan.loan_composition(), (), PERFECT_BOUNDED)
        assert not c.decidable
        assert c.theorem == "Theorem 3.7"
        assert c.restriction_violated == "lossy channels"

    def test_unbounded_queues_undecidable(self):
        c = classify(loan.loan_composition(), (),
                     ChannelSemantics(lossy=True, queue_bound=None))
        assert not c.decidable
        assert c.theorem == "Corollary 3.6"

    def test_deterministic_sends_undecidable(self):
        c = classify(loan.loan_composition(), (), DETERMINISTIC_LOSSY)
        assert not c.decidable
        assert c.theorem == "Theorem 3.8"

    def test_non_ib_names_the_restriction(self):
        comp = load_composition(NON_IB)
        c = classify(comp)
        assert not c.decidable
        assert c.restriction_violated == "input-boundedness"

    def test_nested_emptiness_test_under_faithful_semantics(self):
        # loan's manager consults empty_recommend on a nested queue;
        # with empty nested sends enqueued that is Theorem 3.9 territory
        c = classify(loan.loan_composition(), (), DECIDABLE_FAITHFUL)
        assert not c.decidable
        assert c.theorem == "Theorem 3.9"

    def test_classification_diagnostics(self):
        decidable = classify(relay_chain(1))
        [d] = classification_diagnostics(decidable)
        assert d.code == "DWV401" and d.severity is Severity.NOTE
        [d] = classification_diagnostics(
            classify(relay_chain(1), (), PERFECT_BOUNDED))
        assert d.code == "DWV402" and d.severity is Severity.WARNING

    def test_protocol_rows(self):
        from repro.protocols.base import AgnosticProtocol, Observer
        recipient = AgnosticProtocol.from_ltl("G(a -> F b)")
        assert classify_protocol(recipient).decidable
        assert classify_protocol(recipient).theorem == "Theorem 4.2"
        source = AgnosticProtocol.from_ltl(
            "G(a -> F b)", observer=Observer.SOURCE)
        verdict = classify_protocol(source)
        assert not verdict.decidable
        assert verdict.theorem == "Theorem 4.3"


# ---------------------------------------------------------------------------
# check/lint rendering consistency (satellite: ib.report through Diagnostic)


class TestCheckLintConsistency:
    def test_summarize_matches_lint_rendering(self):
        comp = load_composition(NON_IB)
        check_lines = summarize(check_composition(comp),
                                comp).splitlines()
        report = lint_text(NON_IB)
        lint_lines = [
            line
            for d in report.by_code("DWV001")
            for line in d.render().splitlines()
        ]
        assert check_lines == lint_lines

    def test_clean_summary_keeps_wording(self):
        assert "no violations" in summarize([])


# ---------------------------------------------------------------------------
# SARIF


class TestSarif:
    def test_minimal_document_shape(self):
        report = lint_text(NON_IB)
        doc = json.loads(to_sarif(report.diagnostics,
                                  artifact_uri="spec.dws"))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "DWV001" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] in rule_ids
        assert result["level"] in ("error", "warning", "note")
        assert (result["locations"][0]["physicalLocation"]
                ["artifactLocation"]["uri"] == "spec.dws")

    def test_rule_index_consistent(self):
        report = lint_composition(loan.loan_composition())
        doc = json.loads(to_sarif(report.diagnostics))
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
