"""E12: the headline practicality row -- every library composition
against its full property batch.

The paper's Section 1/7 claim: the favourable single-peer verification
results of [11] should carry over to compositions.  This benchmark is the
composition-level measurement: end-to-end verification time of each
library application against all of its shipped properties (shared
transition cache, as a user would run it).
"""

import pytest

from repro.library import ecommerce, loan, travel
from repro.verifier import verification_domain, verify_all, verify

from harness import (
    Row, bench_workers, cores_available, record_speedup, report,
)


def test_loan_property_batch(benchmark):
    composition = loan.loan_composition()
    databases = loan.standard_database("fair")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    props = [
        loan.PROPERTY_BANK_POLICY_POINTWISE,
        loan.PROPERTY_LETTER_NEEDS_APPLICATION,
    ]

    def run():
        return verify_all(composition, props, databases, domain=domain,
                          valuation_candidates=loan.STANDARD_CANDIDATES)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.satisfied for r in results)
    total = sum(r.stats.wall_seconds for r in results)
    report(Row("E12", f"loan batch: {len(props)} properties",
               "SATISFIED", "SATISFIED",
               max(r.stats.system_states for r in results), total))


def test_ecommerce_property_batch(benchmark):
    composition = ecommerce.ecommerce_composition()
    databases = ecommerce.standard_database("good")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    candidates = {"p": ("widget",), "card": ("visa", "amex")}
    props = [
        ecommerce.PROPERTY_SHIP_REQUIRES_AUTH,
        ecommerce.PROPERTY_NO_SHIP_ON_DECLINE,
        ecommerce.PROPERTY_AUTH_HONEST,
    ]

    def run():
        return verify_all(composition, props, databases, domain=domain,
                          valuation_candidates=candidates)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.satisfied for r in results)
    total = sum(r.stats.wall_seconds for r in results)
    report(Row("E12", f"e-commerce batch: {len(props)} properties",
               "SATISFIED", "SATISFIED",
               max(r.stats.system_states for r in results), total))


def test_travel_property_batch(benchmark):
    composition = travel.travel_composition()
    databases = travel.standard_database()
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    candidates = {"f": ("fl1",), "d": ("rome",)}
    props = [
        travel.PROPERTY_ITINERARY_CONFIRMED,
        travel.PROPERTY_OFFERS_FROM_CATALOG,
    ]

    def run():
        return verify_all(composition, props, databases, domain=domain,
                          valuation_candidates=candidates)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(r.satisfied for r in results)
    total = sum(r.stats.wall_seconds for r in results)
    report(Row("E12", f"travel batch: {len(props)} properties",
               "SATISFIED", "SATISFIED",
               max(r.stats.system_states for r in results), total))


def test_parallel_sweep_speedup(benchmark):
    """Sequential vs local-shard valuation sweep on the e-commerce batch.

    Four valuations of the ship-requires-auth property, each a full
    nested-DFS product search, split over four local shards (forked
    children, each exploring the graph once).  On a multi-core box the
    sharded sweep must be at least 1.5x faster at four workers; on a
    single-core box only the determinism contract is asserted and the
    speedup is reported informationally.
    """
    composition = ecommerce.ecommerce_composition()
    databases = ecommerce.standard_database("good")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    candidates = {"p": ("widget", "$v0"), "card": ("visa", "amex")}
    prop = ecommerce.PROPERTY_SHIP_REQUIRES_AUTH
    workers = bench_workers()

    seq = verify(composition, prop, databases, domain=domain,
                 valuation_candidates=candidates, workers=1)

    def run_parallel():
        return verify(composition, prop, databases, domain=domain,
                      valuation_candidates=candidates, workers=workers)

    par = benchmark.pedantic(run_parallel, rounds=1, iterations=1)
    assert seq.satisfied and par.satisfied
    assert par.stats.valuations_checked == 4
    speedup = record_speedup("E12", "parallel sweep: 4 valuations",
                             seq, par, workers)
    if cores_available() >= 2:
        assert speedup >= 1.5, (
            f"expected >=1.5x speedup at {workers} workers on "
            f"{cores_available()} cores, got {speedup:.2f}x"
        )
