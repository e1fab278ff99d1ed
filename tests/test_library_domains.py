"""The payments/chargeback and ride-hailing dispatch library domains.

Each domain documents two satisfied and two violated LTL-FO properties
(the violated ones are races the lossy semantics makes real).  The
verdicts must be identical under the verifier, the per-valuation
reference engine (:func:`repro.fuzz.seed_engine.verify_seed`), and a
worker pool -- the same determinism contract the fuzzer checks on
random specs, pinned here on the curated ones.
"""

from __future__ import annotations

import pytest

from repro.fuzz.seed_engine import verify_seed
from repro.library import dispatch, payments
from repro.runtime import validate_lasso
from repro.verifier import verification_domain, verify

PAYMENT_PROPERTIES = [
    (payments.PROPERTY_CAPTURE_CLEARED, True),
    (payments.PROPERTY_DISPUTE_HONEST, True),
    (payments.PROPERTY_REFUND_AFTER_CAPTURE, False),
    (payments.PROPERTY_PAYMENT_CAPTURED, False),
]

DISPATCH_PROPERTIES = [
    (dispatch.PROPERTY_OFFERS_FROM_FLEET, True),
    (dispatch.PROPERTY_TAKE_NEEDS_OFFER, True),
    (dispatch.PROPERTY_PICKUP_REQUESTED, False),
    (dispatch.PROPERTY_REQUEST_SERVED, False),
]


def _domain_case(name):
    if name == "payments":
        return (payments.payments_composition(),
                payments.standard_database(),
                payments.STANDARD_CANDIDATES, PAYMENT_PROPERTIES)
    return (dispatch.dispatch_composition(),
            dispatch.standard_database(),
            dispatch.STANDARD_CANDIDATES, DISPATCH_PROPERTIES)


@pytest.mark.parametrize("name", ["payments", "dispatch"])
def test_documented_verdicts(name):
    comp, dbs, candidates, expected = _domain_case(name)
    for prop, satisfied in expected:
        result = verify(comp, prop, dbs,
                        valuation_candidates=candidates)
        assert result.satisfied == satisfied, (
            f"{name}: {prop}: got {result.verdict}"
        )


@pytest.mark.parametrize("name", ["payments", "dispatch"])
def test_engines_and_workers_agree(name):
    """Reference engine, verifier, and a 2-worker pool: same answers."""
    comp, dbs, candidates, expected = _domain_case(name)
    for prop, _satisfied in expected:
        shared = verify(comp, prop, dbs,
                        valuation_candidates=candidates)
        seeded = verify_seed(comp, prop, dbs,
                             valuation_candidates=candidates)
        pooled = verify(comp, prop, dbs,
                        valuation_candidates=candidates, workers=2)
        for other in (seeded, pooled):
            assert other.verdict == shared.verdict
            assert (other.stats.valuations_checked
                    == shared.stats.valuations_checked)
            assert (other.stats.product_nodes_visited
                    == shared.stats.product_nodes_visited)
            if shared.counterexample is not None:
                assert (other.counterexample.valuation
                        == shared.counterexample.valuation)
                assert (other.counterexample.lasso
                        == shared.counterexample.lasso)


@pytest.mark.parametrize("name", ["payments", "dispatch"])
def test_counterexamples_replay(name):
    """Every violated property's lasso is a genuine lossy run."""
    comp, dbs, candidates, expected = _domain_case(name)
    domain = verification_domain(comp, [], dbs)
    for prop, satisfied in expected:
        if satisfied:
            continue
        result = verify(comp, prop, dbs,
                        valuation_candidates=candidates)
        assert result.counterexample is not None
        problems = validate_lasso(comp, dbs, domain.values,
                                  result.counterexample.lasso)
        assert not problems, problems


def test_domains_are_lintable_targets():
    """`repro lint payments|dispatch` stays green (CI smoke loop)."""
    from repro.cli import main
    assert main(["lint", "payments"]) == 0
    assert main(["lint", "dispatch"]) == 0
