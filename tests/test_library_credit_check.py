"""Tests for the credit-check open composition (Section 5 demos)."""

import pytest

from repro.fo import Instance
from repro.ib import is_input_bounded_composition
from repro.library.loan import (
    ENV_SPEC_RATING_CONTENT, PROPERTY_RECORDED_CATEGORIES_KNOWN,
    credit_check_composition,
)
from repro.verifier import verification_domain, verify, verify_modular
from repro.verifier.domain import VerificationDomain


@pytest.fixture(scope="module")
def setup():
    composition = credit_check_composition()
    databases = {"O": Instance({"customer": [("c1", "s1", "ann")]})}
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    if "fair" not in domain.constants:
        domain = VerificationDomain(domain.constants + ("fair",),
                                    domain.fresh)
    env_values = ("s1", "fair", domain.fresh[0])
    candidates = {"ssn": ("s1",), "r": ("fair", domain.fresh[0])}
    return composition, databases, domain, env_values, candidates


class TestStructure:
    def test_open_with_flat_env_channels(self):
        composition = credit_check_composition()
        assert not composition.is_closed
        assert all(
            not c.nested for c in composition.environment_channels()
        )

    def test_input_bounded(self):
        assert is_input_bounded_composition(credit_check_composition())


class TestModularWorkflow:
    def test_unconstrained_env_violates(self, setup):
        composition, databases, domain, env_values, candidates = setup
        result = verify(composition, PROPERTY_RECORDED_CATEGORIES_KNOWN,
                        databases, domain=domain,
                        valuation_candidates=candidates,
                        env_value_domain=env_values)
        assert not result.satisfied
        assert result.counterexample.valuation["r"] == domain.fresh[0]

    def test_source_spec_restores(self, setup):
        composition, databases, domain, env_values, candidates = setup
        result = verify_modular(
            composition, PROPERTY_RECORDED_CATEGORIES_KNOWN,
            ENV_SPEC_RATING_CONTENT, databases, domain=domain,
            observer="source", valuation_candidates=candidates,
            env_value_domain=env_values,
        )
        assert result.satisfied

    def test_recipient_translation_leaves_unsolicited_open(self, setup):
        composition, databases, domain, env_values, candidates = setup
        ex51 = (
            "G forall ssn: ?getRating(ssn) -> "
            '( !rating(ssn, "poor") | !rating(ssn, "fair") '
            '| !rating(ssn, "good") | !rating(ssn, "excellent") )'
        )
        result = verify_modular(
            composition, PROPERTY_RECORDED_CATEGORIES_KNOWN, ex51,
            databases, domain=domain, observer="recipient",
            valuation_candidates=candidates, env_value_domain=env_values,
        )
        assert not result.satisfied

    def test_good_rating_actually_recorded(self, setup):
        """The satisfied case is not vacuous: a 'fair' rating flows in."""
        composition, databases, domain, env_values, _ = setup
        from repro.spec import DECIDABLE_DEFAULT
        from repro.verifier import SharedExploration
        exploration = SharedExploration(composition, databases,
                                        domain.values, DECIDABLE_DEFAULT,
                                        env_value_domain=env_values)
        assert exploration.complete()
        recorded = set()
        for sid in range(len(exploration.interner)):
            recorded |= exploration.state_of(sid).data["O.gotRating"]
        assert ("s1", "fair") in recorded
