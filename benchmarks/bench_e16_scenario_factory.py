"""E16 (PR7): the scenario factory -- new domains + fuzzed frontier.

Two new library domains in the spirit of the paper's cited
application-suite references [11] -- a payments/chargeback flow and a
ride-hailing dispatch flow -- each with two satisfied and two violated
LTL-FO properties (the violated ones are message races the lossy
semantics makes real).  Rows measured here:

* every documented property of both domains verified by the
  per-valuation reference engine (``verify_seed``), the verifier, and
  the verifier as a 4-worker pool, with
  verdicts, valuation/node counts, and counterexample lassos asserted
  identical across the three configurations (the determinism contract
  on curated, rather than generated, specs);
* a 20-case fuzz batch over theorem rows 3.4/3.7/3.9 run through the
  full oracle stack (classifier, dump/load round-trip, reference-engine
  differential, 2-worker pool, 2-shard merge, lasso replay) -- zero
  oracle violations expected.
"""

import pytest

from repro.fuzz import fuzz
from repro.fuzz.seed_engine import verify_seed
from repro.library import dispatch, payments
from repro.verifier import verify

from harness import record, repro_seed

EXPERIMENT = "E16"

DOMAINS = {
    "payments": (
        payments.payments_composition, payments.standard_database,
        payments.STANDARD_CANDIDATES,
        [("capture-cleared", payments.PROPERTY_CAPTURE_CLEARED, True),
         ("dispute-honest", payments.PROPERTY_DISPUTE_HONEST, True),
         ("refund-after-capture",
          payments.PROPERTY_REFUND_AFTER_CAPTURE, False),
         ("payment-captured", payments.PROPERTY_PAYMENT_CAPTURED,
          False)],
    ),
    "dispatch": (
        dispatch.dispatch_composition, dispatch.standard_database,
        dispatch.STANDARD_CANDIDATES,
        [("offers-from-fleet", dispatch.PROPERTY_OFFERS_FROM_FLEET,
          True),
         ("take-needs-offer", dispatch.PROPERTY_TAKE_NEEDS_OFFER, True),
         ("pickup-requested", dispatch.PROPERTY_PICKUP_REQUESTED,
          False),
         ("request-served", dispatch.PROPERTY_REQUEST_SERVED, False)],
    ),
}

CONFIGURATIONS = (
    ("seed x1", verify_seed, {}),
    ("shared x1", verify, {}),
    ("shared x4", verify, dict(workers=4)),
)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_domain_configuration_grid(benchmark, domain):
    """Each property: identical results under seed/shared/4 workers."""
    build, databases, candidates, properties = DOMAINS[domain]
    comp, dbs = build(), databases()

    def _grid():
        rows = []
        for prop_name, text, expected in properties:
            results = {}
            for config_name, verifier, kwargs in CONFIGURATIONS:
                results[config_name] = verifier(
                    comp, text, dbs, valuation_candidates=candidates,
                    **kwargs)
            rows.append((prop_name, expected, results))
        return rows

    rows = benchmark.pedantic(_grid, rounds=1, iterations=1)
    for prop_name, expected, results in rows:
        reference = results["shared x1"]
        for config_name, result in results.items():
            case = f"{domain} {prop_name} [{config_name}]"
            record(EXPERIMENT, case, result, expected)
            assert result.verdict == reference.verdict
            assert (result.stats.valuations_checked
                    == reference.stats.valuations_checked)
            assert (result.stats.product_nodes_visited
                    == reference.stats.product_nodes_visited), (
                f"{case}: node counts diverged"
            )
            if reference.counterexample is not None:
                assert (result.counterexample.valuation
                        == reference.counterexample.valuation)
                assert (result.counterexample.lasso
                        == reference.counterexample.lasso), (
                    f"{case}: lassos diverged"
                )


def test_fuzz_batch(benchmark):
    """20 generated cases, rows 3.4/3.7/3.9: zero oracle violations."""
    report = benchmark.pedantic(
        fuzz,
        kwargs=dict(count=20, seed=repro_seed(),
                    rows=("3.4", "3.7", "3.9")),
        rounds=1, iterations=1,
    )
    assert report.ok, report.summary()
    verified = sum(1 for o in report.outcomes if o.verified)
    # every 3.4/3.7/3.9 case has bounded queues, so all sweep
    assert verified == 20
    print(f"[{EXPERIMENT}] fuzz batch: {len(report.outcomes)} cases, "
          f"{verified} verified, {len(report.failures)} violations "
          f"(seed {report.seed})")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-only"]))
