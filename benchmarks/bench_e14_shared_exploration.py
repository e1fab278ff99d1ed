"""E14 (PR5): shared-exploration sweep -- cross-valuation reuse.

The verifier interns global states, completes the reachable
snapshot graph into memoized successor rows after the first valuation
(sound by Theorem 3.4: the snapshot graph does not depend on the
valuation), and memoizes FO truths across valuations on
``(template id, values, ext_id)`` keys; valuations whose letters
agree on every state, read off their bindings, share one search and
its letter evaluator, which reads letters as bitmasks over its bit
table (one letter class: all 180 on the wide sweep).  Rows measured
here:

* a wide loan sweep (>= 8 valuations of the letter property) run
  sequentially by the verifier and by the per-valuation reference
  engine (:func:`repro.fuzz.seed_engine.verify_seed`) -- the verifier
  must be at least ``REPRO_BENCH_MIN_SPEEDUP`` (default 3x) faster
  while agreeing node-for-node with the reference;
* the same sweep at ``--workers`` -- each local shard's child completes
  the graph once and serves its valuations from it, so the run must
  show memoized-row serving (``graph.reuse_hits``) and at most one
  full expansion per child (``product.states_expanded``);
* a quick parity row over the standard candidates for the CI smoke
  job.

All rows land in ``BENCH_PR5.json`` (see harness.snapshot_metrics).
"""

import os

import pytest

from repro.fuzz.seed_engine import verify_seed
from repro.library.loan import (
    PROPERTY_LETTER_NEEDS_APPLICATION, STANDARD_CANDIDATES,
    loan_composition, standard_database,
)
from repro.obs import counters_snapshot
from repro.verifier import verification_domain, verify

from harness import bench_workers, record, record_speedup, snapshot_metrics

EXPERIMENT = "PR5"

#: Candidate pool for the wide sweep: every value is drawn from the
#: standard database's active domain, widened so the letter property is
#: checked under 180 canonical valuations (>= 8 required by the
#: experiment definition) -- enough for the cross-valuation caches to
#: amortise the one-off freeze.
WIDE_CANDIDATES = {
    "id": ("c1", "s1", "ann", "small", "acct1"),
    "name": ("ann", "c1", "small", "high"),
    "loan": ("small", "large", "c1", "fair"),
    "dec": ("approved", "denied", "large", "high"),
}


def _min_speedup() -> float:
    raw = os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "").strip()
    return float(raw) if raw else 3.0


def _sweep(verifier=verify, candidates=WIDE_CANDIDATES, **kwargs):
    composition = loan_composition()
    databases = standard_database("fair")
    domain = verification_domain(composition, [], databases,
                                 fresh_count=1)
    return verifier(composition, PROPERTY_LETTER_NEEDS_APPLICATION,
                    databases, domain=domain,
                    valuation_candidates=candidates, **kwargs)


def test_shared_vs_seed_sequential(benchmark):
    """The tentpole row: one frozen graph amortised over the sweep."""
    seed = _sweep(verify_seed)
    shared = benchmark.pedantic(_sweep, kwargs={"workers": 1},
                                rounds=1, iterations=1)
    assert seed.stats.valuations_checked >= 8
    speedup = record_speedup(
        EXPERIMENT, "loan letter sweep, shared vs seed", seed, shared,
        workers=1,
    )
    floor = _min_speedup()
    assert speedup >= floor, (
        f"verifier only {speedup:.2f}x faster than seed "
        f"(required {floor:.1f}x): seed={seed.stats.wall_seconds:.3f}s "
        f"shared={shared.stats.wall_seconds:.3f}s"
    )


def test_workers_serve_frozen_graph(benchmark):
    """Each local shard expands the graph once, then walks its rows."""
    before = counters_snapshot()
    workers = bench_workers()
    result = benchmark.pedantic(_sweep, kwargs={"workers": workers},
                                rounds=1, iterations=1)
    after = counters_snapshot()
    record(EXPERIMENT, f"loan letter sweep, frozen graph x{workers}",
           result, True)

    reuse = after.get("graph.reuse_hits", 0) - before.get(
        "graph.reuse_hits", 0)
    expanded = after.get("product.states_expanded", 0) - before.get(
        "product.states_expanded", 0)
    snapshot_metrics(EXPERIMENT, f"frozen-graph counters x{workers}",
                     result, extra={"reuse_hits": reuse,
                                    "states_expanded": expanded,
                                    "workers": workers})
    assert reuse > 0, "no frozen-graph serving recorded"
    # One expansion per local shard at most (the children's counters
    # are folded into this process): re-expanding per valuation would
    # show far more than workers * |graph| here.
    assert expanded <= workers * result.stats.system_states, (
        f"graph re-expanded: {expanded} states expanded for a "
        f"{result.stats.system_states}-state frozen graph by "
        f"{workers} local shards"
    )


def test_quick_parity(benchmark):
    """CI smoke row: standard candidates, both engines, equal verdicts."""
    seed = _sweep(verify_seed, candidates=STANDARD_CANDIDATES)
    shared = benchmark.pedantic(
        _sweep, kwargs={"candidates": STANDARD_CANDIDATES},
        rounds=1, iterations=1,
    )
    record(EXPERIMENT, "loan letter, standard candidates [shared]",
           shared, True)
    assert shared.verdict == seed.verdict
    assert (shared.stats.product_nodes_visited
            == seed.stats.product_nodes_visited)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q", "--benchmark-only"]))
