"""Decision procedures: LTL-FO verification, protocol compliance,
modular (assume-guarantee) verification."""

from .atoms import (
    InternedSnapshotEvaluator, OccursAtom, SharedSnapshotContext,
    bit_table, decode_letter,
)
from .domain import (
    VerificationDomain, canonical_valuations, canonicalize_valuation,
    enumerate_databases, fresh_values, verification_domain,
)
from .graph import SharedExploration, StateInterner
from .shards import (
    MERGED_SCHEMA, SHARD_SCHEMA, merge_fragments,
    merge_metrics_snapshots, result_from_merged, shard_fragment,
    spec_sha,
)
from .product import ProductSystem, SearchBudget
from .result import (
    Counterexample, TaskStats, VerificationResult, VerifierStats,
)
from .search import LassoNodes, SearchStats, find_accepting_lasso
from .ltlfo_verifier import (
    local_shards, preflight, property_engines, resolve_shard,
    resolve_workers, run_local_shards, shard_filter, verify, verify_all,
    verify_over_databases,
)
from .modular import (
    environment_schema, observer_translate, parse_env_spec,
    translate_env_spec, verify_modular,
)

__all__ = [
    "Counterexample", "InternedSnapshotEvaluator", "LassoNodes",
    "MERGED_SCHEMA", "OccursAtom", "ProductSystem", "SHARD_SCHEMA",
    "SearchBudget", "SearchStats", "SharedExploration",
    "SharedSnapshotContext", "StateInterner", "TaskStats",
    "VerificationDomain",
    "VerificationResult", "VerifierStats", "bit_table",
    "canonical_valuations", "canonicalize_valuation", "decode_letter",
    "enumerate_databases",
    "environment_schema", "find_accepting_lasso", "fresh_values",
    "local_shards", "merge_fragments", "merge_metrics_snapshots",
    "observer_translate", "parse_env_spec", "preflight",
    "property_engines", "resolve_shard",
    "resolve_workers", "result_from_merged", "run_local_shards",
    "shard_filter", "shard_fragment", "spec_sha",
    "translate_env_spec", "verification_domain", "verify",
    "verify_all", "verify_modular", "verify_over_databases",
]
