"""Shard fragments and their merge: one sweep split across processes.

``repro verify --shard i/N`` runs the i-th residue class of the
valuation sweep (``order % N == i``) and writes a JSON *fragment* --
verdict, decisive order, per-valuation rows, counterexample, and a full
``repro.metrics/2`` registry snapshot.  ``repro merge-shards`` reads all
N fragments and reassembles the exact global result.  The same merge
joins the local shards of ``workers > 1``
(:func:`repro.verifier.run_local_shards`), whose children return
fragments instead of writing them.

The merge is deterministic and provably equal to the unsharded sweep:

* **Verdict.**  A property is violated iff any shard found a
  violation; the decisive valuation is the one with the *lowest global
  order* across fragments, so the merged decisive valuation and lasso
  are bit-for-bit the unsharded ones.
* **Headline stats.**  Each fragment ships one row per valuation it
  checked, with its global order.  The merge recomputes
  ``valuations_checked`` / ``product_nodes_visited`` /
  ``nba_states_total`` from the union of rows at or before the
  *global* decisive order.  Every such row exists in exactly one
  fragment (a shard stops at its own first violation, whose order is
  >= the global one), so the recount equals the sequential sweep's.
  Rows charge each valuation its letter class's search, so the recount
  holds with classes too.  ``valuation_classes``, the searches run, is
  the sum over fragments: each shard searches its own classes.
* **Metrics.**  Registry snapshots merge by kind: counters and phase
  accumulators add, gauges take the maximum, histograms add bucket-wise
  (:func:`merge_metrics_snapshots`, through the registry's own fold).
  Wall time is the max across shards (they run concurrently); compute
  seconds, per-property phases and rule-cache counters add.
"""

from __future__ import annotations

import base64
import hashlib
import pickle
from typing import Mapping, Sequence

from ..obs.metrics import (
    REGISTRY, MetricsRegistry, merge_numeric, merge_registry_snapshot,
)
from ..spec.composition import Composition
from .result import Counterexample, VerificationResult, VerifierStats

#: Version tag stamped on every shard fragment.
SHARD_SCHEMA = "repro.shard/1"

#: Version tag stamped on the merged document.
MERGED_SCHEMA = "repro.shard-merged/1"

_UNDECIDED = 2 ** 62


def spec_sha(composition: Composition) -> str | None:
    """A content hash of the composition's canonical ``.dws`` emission.

    Fragments stamp this hash so :func:`merge_fragments` can reject a
    merge of shards that ran *different* specs -- mixing fragments of
    two compositions that happen to declare the same properties would
    silently produce a meaningless global verdict.  ``None`` when the
    composition cannot be emitted (values the surface syntax cannot
    represent); such fragments skip the check.
    """
    from ..spec.dsl import dump_composition

    try:
        text = dump_composition(composition)
    except Exception:
        return None
    return hashlib.sha256(text.encode()).hexdigest()


def shard_fragment(results: Sequence[VerificationResult],
                   shard: tuple[int, int],
                   composition: Composition | None = None) -> dict:
    """The JSON-able fragment one shard writes for its sweep results.

    The counterexample (if any) travels twice: pre-rendered text for
    human consumption at merge time (rendering needs the composition,
    which the merging machine may not have loaded), and a base64 pickle
    so :func:`result_from_merged` can reconstruct the exact
    :class:`Counterexample` object for differential comparison.
    """
    index, count = shard
    properties = []
    for result in results:
        entry = {
            "property": result.property_text,
            "verdict": result.verdict,
            "satisfied": result.satisfied,
            "decisive_order": result.stats.decisive_order,
            "domain": result.domain_description,
            "semantics": result.semantics_description,
            "stats": result.stats.to_dict(),
            "counterexample": None,
        }
        if result.counterexample is not None:
            cex = result.counterexample
            entry["counterexample"] = {
                "pickle": base64.b64encode(
                    pickle.dumps(cex, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii"),
                "text": (cex.describe(composition)
                         if composition is not None
                         else f"counterexample to: {cex.property_text}"),
            }
        properties.append(entry)
    return {
        "schema": SHARD_SCHEMA,
        "shard": {"index": index, "count": count},
        "spec_sha": (spec_sha(composition)
                     if composition is not None else None),
        "metrics": REGISTRY.snapshot(),
        "properties": properties,
    }


def merge_metrics_snapshots(snapshots: Sequence[Mapping]) -> dict:
    """Fold ``repro.metrics/2`` snapshots into one, without touching the
    process registry: each folds into a fresh
    :class:`~repro.obs.metrics.MetricsRegistry`
    (:func:`~repro.obs.metrics.merge_registry_snapshot`), whose snapshot
    is the result.
    """
    registry = MetricsRegistry()
    for snap in snapshots:
        merge_registry_snapshot(snap, registry)
    return registry.snapshot()


def _validate_fragments(fragments: Sequence[Mapping]) -> int:
    if not fragments:
        raise ValueError("no shard fragments to merge")
    for frag in fragments:
        if frag.get("schema") != SHARD_SCHEMA:
            raise ValueError(
                f"fragment schema {frag.get('schema')!r} is not "
                f"{SHARD_SCHEMA!r}"
            )
    shas = {frag.get("spec_sha") for frag in fragments} - {None}
    if len(shas) > 1:
        raise ValueError(
            "fragments come from different specs (spec hashes "
            f"{sorted(s[:12] for s in shas)}); every shard must run "
            "the same composition"
        )
    counts = {frag["shard"]["count"] for frag in fragments}
    if len(counts) != 1:
        raise ValueError(f"fragments disagree on shard count: {counts}")
    count = counts.pop()
    indices = sorted(frag["shard"]["index"] for frag in fragments)
    duplicates = sorted({i for i in indices if indices.count(i) > 1})
    if duplicates:
        raise ValueError(
            f"overlapping shard fragments: index(es) {duplicates} "
            "appear more than once"
        )
    if indices != list(range(count)):
        raise ValueError(
            f"need every shard 0..{count - 1} exactly once, got {indices}"
        )
    texts = {
        tuple(p["property"] for p in frag["properties"])
        for frag in fragments
    }
    if len(texts) != 1:
        raise ValueError("fragments disagree on the property list")
    return count


def _merge_property(entries: Sequence[Mapping]) -> dict:
    """Merge one property's per-shard entries into the global result."""
    violated = [e for e in entries if not e["satisfied"]]
    decisive = min(
        violated, key=lambda e: e["decisive_order"], default=None
    )
    cutoff = (decisive["decisive_order"] if decisive is not None
              else _UNDECIDED)
    valuations = nodes = nba = tasks_past = classes = 0
    task_seconds = past_seconds = 0.0
    system_states = 0
    wall = 0.0
    workers = 1
    seconds: dict = {}
    counts: dict = {}
    rule_cache: dict = {}
    for entry in entries:
        stats = entry["stats"]
        wall = max(wall, stats["wall_seconds"])
        workers = max(workers, stats["workers"])
        system_states = max(system_states, stats["system_states"])
        classes += stats.get("valuation_classes", 0)
        merge_numeric(seconds, stats.get("phase_seconds", {}))
        merge_numeric(counts, stats.get("phase_counts", {}))
        merge_numeric(rule_cache, stats.get("rule_cache", {}))
        for row in stats["per_task"]:
            if row["order"] <= cutoff:
                valuations += 1
                nodes += row["product_nodes"]
                nba += row["nba_states"]
                task_seconds += row["wall_seconds"]
            else:
                tasks_past += 1
                past_seconds += row["wall_seconds"]
    merged = {
        "property": entries[0]["property"],
        "verdict": "VIOLATED" if decisive is not None else "SATISFIED",
        "satisfied": decisive is None,
        "decisive_order": (decisive["decisive_order"]
                           if decisive is not None else None),
        "decisive_shard": (decisive["_shard_index"]
                           if decisive is not None else None),
        "domain": entries[0]["domain"],
        "semantics": entries[0]["semantics"],
        "counterexample": (decisive["counterexample"]
                           if decisive is not None else None),
        "stats": {
            "valuations_checked": valuations,
            "valuation_classes": classes,
            "product_nodes_visited": nodes,
            "nba_states_total": nba,
            "system_states": system_states,
            "wall_seconds": wall,
            "workers": workers,
            "tasks_run": valuations,
            "tasks_cancelled": tasks_past,
            "task_seconds": task_seconds,
            "cancelled_task_seconds": past_seconds,
            "phase_seconds": seconds,
            "phase_counts": counts,
            "rule_cache": rule_cache,
        },
    }
    return merged


def merge_fragments(fragments: Sequence[Mapping]) -> dict:
    """Reassemble the global verdict + stats from all N shard fragments.

    Fragments may be passed in any order; every shard ``0..N-1`` must
    appear exactly once and all must list the same properties.
    """
    count = _validate_fragments(fragments)
    ordered = sorted(fragments, key=lambda f: f["shard"]["index"])
    n_properties = len(ordered[0]["properties"])
    properties = []
    for p_idx in range(n_properties):
        entries = []
        for frag in ordered:
            entry = dict(frag["properties"][p_idx])
            entry["_shard_index"] = frag["shard"]["index"]
            entries.append(entry)
        properties.append(_merge_property(entries))
    return {
        "schema": MERGED_SCHEMA,
        "shards": count,
        "metrics": merge_metrics_snapshots(
            [frag["metrics"] for frag in ordered]
        ),
        "properties": properties,
    }


def result_from_merged(entry: Mapping) -> VerificationResult:
    """Reconstruct a :class:`VerificationResult` from one merged entry.

    The counterexample is unpickled from the decisive shard's fragment,
    so differential tests can compare the merged lasso bit-for-bit
    against an unsharded run.  Unpickling runs whatever the pickle
    names, so call this only on fragments this process tree made
    (:func:`~repro.verifier.run_local_shards`, the fuzz harness,
    tests); ``repro merge-shards`` reads fragment files and prints the
    merged entry's own fields instead.
    """
    stats_in = entry["stats"]
    stats = VerifierStats(
        valuations_checked=stats_in["valuations_checked"],
        valuation_classes=stats_in["valuation_classes"],
        system_states=stats_in["system_states"],
        product_nodes_visited=stats_in["product_nodes_visited"],
        nba_states_total=stats_in["nba_states_total"],
        wall_seconds=stats_in["wall_seconds"],
        workers=stats_in["workers"],
        decisive_order=entry["decisive_order"],
        tasks_run=stats_in["tasks_run"],
        tasks_cancelled=stats_in["tasks_cancelled"],
        task_seconds=stats_in["task_seconds"],
        cancelled_task_seconds=stats_in["cancelled_task_seconds"],
        phase_seconds=dict(stats_in["phase_seconds"]),
        phase_counts=dict(stats_in["phase_counts"]),
        rule_cache=dict(stats_in["rule_cache"]),
    )
    counterexample: Counterexample | None = None
    if entry["counterexample"] is not None:
        counterexample = pickle.loads(
            base64.b64decode(entry["counterexample"]["pickle"])
        )
    return VerificationResult(
        satisfied=entry["satisfied"],
        property_text=entry["property"],
        counterexample=counterexample,
        stats=stats,
        domain_description=entry["domain"],
        semantics_description=entry["semantics"],
    )
