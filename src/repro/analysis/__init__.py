"""Static analysis over peer/composition specs (``repro lint``).

The package is organised as a pluggable pipeline of passes
(:mod:`repro.analysis.passes`) producing structured
:class:`~repro.analysis.diagnostics.Diagnostic` records:

* :mod:`~repro.analysis.ib_pass` -- input-boundedness (Section 3.1),
  with provenance explanations on every violation;
* :mod:`~repro.analysis.rules_pass` -- dead and shadowed rules;
* :mod:`~repro.analysis.reachability` -- unreachable states, unused symbols;
* :mod:`~repro.analysis.channels_pass` -- channel discipline;
* :mod:`~repro.analysis.flow` -- interprocedural communication flow
  (deadlocks, orphan flows, dropped-message chains) over the
  communication graph;
* :mod:`~repro.analysis.provenance` -- taint-style data provenance
  (invented values crossing peers);
* :mod:`~repro.analysis.decidability` -- which theorem row applies.

:mod:`~repro.analysis.cache` wraps the pipeline in a content-addressed
per-peer lint cache (``repro lint --cache``).

Only :mod:`.diagnostics` is imported eagerly: ``repro.ib.report`` renders
through it, so loading anything heavier here would close an import cycle
(ib.report -> analysis -> passes -> ib.checker -> ib.report).
"""

import importlib

from .diagnostics import (
    CODES, Diagnostic, LintReport, Severity, count_by_severity, has_errors,
    make, render_github, render_report, sort_key, to_json,
)

__all__ = [
    "CODES", "Diagnostic", "LintReport", "Severity", "count_by_severity",
    "has_errors", "make", "render_github", "render_report", "sort_key",
    "to_json",
    # lazy:
    "lint_composition", "lint_text", "lint_path",
    "structural_diagnostics", "error_codes", "classify",
    "classify_protocol", "classification_diagnostics", "Classification",
    "to_sarif", "sarif_document", "ALL_PASSES", "AnalysisContext",
    "AnalysisPass", "run_passes",
    "build_comm_graph", "FlowPass", "ProvenancePass",
    "compute_provenance",
    "LintCache", "lint_cached", "lint_cached_composition",
    "default_cache_dir",
]

_LAZY = {
    "lint_composition": "lint",
    "lint_text": "lint",
    "lint_path": "lint",
    "structural_diagnostics": "lint",
    "error_codes": "lint",
    "ALL_PASSES": "passes",
    "AnalysisContext": "passes",
    "AnalysisPass": "passes",
    "run_passes": "passes",
    "classify": "decidability",
    "classify_protocol": "decidability",
    "classification_diagnostics": "decidability",
    "Classification": "decidability",
    "to_sarif": "sarif",
    "sarif_document": "sarif",
    "build_comm_graph": "flow",
    "FlowPass": "flow",
    "ProvenancePass": "provenance",
    "compute_provenance": "provenance",
    "LintCache": "cache",
    "lint_cached": "cache",
    "lint_cached_composition": "cache",
    "default_cache_dir": "cache",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
