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

Every name loads its module on first use, :mod:`.diagnostics` (and
``json`` with it) too: ``repro verify`` reaches this package only for
the decidability classifier and never renders a diagnostic.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, {
    ".diagnostics": ("CODES", "Diagnostic", "LintReport", "Severity",
                     "count_by_severity", "has_errors", "make",
                     "render_github", "render_report", "sort_key",
                     "to_json"),
    ".lint": ("lint_composition", "lint_text", "structural_diagnostics"),
    ".passes": ("ALL_PASSES", "AnalysisContext", "AnalysisPass",
                "run_passes"),
    ".decidability": ("classify", "classify_protocol",
                      "classification_diagnostics", "Classification"),
    ".sarif": ("to_sarif", "sarif_document"),
    ".flow": ("build_comm_graph", "FlowPass"),
    ".provenance": ("ProvenancePass", "compute_provenance"),
    ".cache": ("LintCache", "lint_cached", "lint_cached_composition",
               "default_cache_dir"),
})

__all__ = [name for names in __getattr__.sources.values() for name in names]
