"""Decision procedures: LTL-FO verification, protocol compliance,
modular (assume-guarantee) verification."""

from .atoms import (
    InternedSnapshotEvaluator, OccursAtom, SharedSnapshotContext,
    SnapshotEvaluator,
)
from .domain import (
    VerificationDomain, canonical_valuations, canonicalize_valuation,
    enumerate_databases, fresh_values, verification_domain,
)
from .graph import (
    ExploredGraph, InternedProduct, SharedExploration, StateInterner,
    resolve_engine,
)
from .parallel import (
    SweepContext, SweepPayload, SweepTask, check_one_valuation,
    default_workers, resolve_shard, resolve_workers, run_sweep,
    shard_filter,
)
from .shards import (
    MERGED_SCHEMA, SHARD_SCHEMA, merge_fragments,
    merge_metrics_snapshots, result_from_merged, shard_fragment,
    spec_sha,
)
from .shm import (
    GraphSegment, ShmGraphHandle, attach_graph, detach_graph,
    leaked_segments, shm_available,
)
from .product import ProductSystem, SearchBudget, TransitionCache
from .result import (
    Counterexample, TaskStats, VerificationResult, VerifierStats,
)
from .search import (
    LassoNodes, SearchCancelled, SearchStats, find_accepting_lasso,
)
from .ltlfo_verifier import (
    preflight, property_engines, verify, verify_all,
    verify_over_databases,
)
from .modular import (
    environment_schema, observer_translate, parse_env_spec,
    translate_env_spec, verify_modular,
)

__all__ = [
    "Counterexample", "ExploredGraph", "GraphSegment",
    "InternedProduct",
    "InternedSnapshotEvaluator", "LassoNodes", "MERGED_SCHEMA",
    "OccursAtom",
    "ProductSystem",
    "SHARD_SCHEMA", "SearchBudget", "SearchCancelled", "SearchStats",
    "SharedExploration", "SharedSnapshotContext", "ShmGraphHandle",
    "SnapshotEvaluator",
    "StateInterner",
    "SweepContext", "SweepPayload", "SweepTask", "TaskStats",
    "TransitionCache", "VerificationDomain", "VerificationResult",
    "VerifierStats", "attach_graph", "canonical_valuations",
    "detach_graph",
    "canonicalize_valuation",
    "check_one_valuation", "default_workers", "enumerate_databases",
    "environment_schema", "find_accepting_lasso", "fresh_values",
    "leaked_segments", "merge_fragments", "merge_metrics_snapshots",
    "observer_translate", "parse_env_spec", "preflight",
    "property_engines",
    "resolve_engine", "resolve_shard", "resolve_workers",
    "result_from_merged",
    "run_sweep", "shard_filter", "shard_fragment", "shm_available",
    "spec_sha",
    "translate_env_spec", "verification_domain", "verify",
    "verify_all", "verify_modular", "verify_over_databases",
]
