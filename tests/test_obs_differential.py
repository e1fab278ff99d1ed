"""Results carry their observability breakdowns.

Phase timers and counters are always on.  A result's stats carry its
per-phase seconds and counts and its rule-cache counters, for the
in-process sweep and for four local shards, whose children ship theirs
back in their fragments.
"""

import json

import pytest

from repro.library import loan
from repro.obs import REGISTRY
from repro.verifier import verification_domain, verify


@pytest.fixture(autouse=True)
def _clean_obs():
    REGISTRY.reset()
    yield
    REGISTRY.reset()


def _run(workers):
    # two canonical valuations after candidate filtering, so two of the
    # four local shards check one valuation each
    comp, dbs = loan.loan_composition(), loan.standard_database("fair")
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    return verify(comp, loan.PROPERTY_LETTER_NEEDS_APPLICATION, dbs,
                  domain=dom, valuation_candidates=loan.STANDARD_CANDIDATES,
                  workers=workers)


@pytest.mark.parametrize("workers", [1, 4])
def test_stats_carry_phase_and_cache_breakdowns(workers):
    result = _run(workers)
    stats = result.stats

    assert stats.phase_seconds, "no phase breakdown recorded"
    assert all(v >= 0 for v in stats.phase_seconds.values())
    assert "search" in stats.phase_seconds
    assert "expand" in stats.phase_seconds
    lookups = (stats.rule_cache.get("hits", 0)
               + stats.rule_cache.get("misses", 0))
    assert lookups > 0, "rule-cache counters not shipped back"
    assert stats.rule_cache_hit_rate is not None

    assert stats.workers == workers
    if workers > 1:
        # one row per valuation, each from the child that checked it
        assert sorted(t.order for t in stats.per_task) == [0, 1]
        assert stats.phase_counts["search"] == 2

    # to_dict round-trips through JSON (the --metrics-json contract)
    assert json.loads(json.dumps(stats.to_dict())) == stats.to_dict()
