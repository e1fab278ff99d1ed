"""The pluggable pass framework of the static analyzer.

A pass is a named function from an :class:`AnalysisContext` (the built
composition plus the parsed properties and the channel semantics under
which verification would run) to a list of
:class:`~repro.analysis.diagnostics.Diagnostic` records.  The driver
(:func:`run_passes`) times every pass through the observability layer --
each pass gets its own ``lint:<name>`` phase and a
``lint.<name>.diagnostics`` counter -- so ``repro profile`` style
breakdowns extend to the analyzer.

The default pipeline (:data:`ALL_PASSES`) mirrors the paper's
restrictions in dependency order: input-boundedness first (Section 3.1),
then the purely syntactic rule/reachability/channel analyses, then the
decidability classification that consumes the earlier findings.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .._record import field, record
from ..ltlfo.formulas import LTLFOSentence
from ..obs import PHASE_LINT, counter, lint_phase, phase
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .diagnostics import Diagnostic, LintReport


@record
class AnalysisContext:
    """Everything a pass may look at.

    ``sentences`` holds the parsed properties (name -> sentence);
    ``strict`` selects the literal Section 3.1 guard definition for the
    input-boundedness pass (no database guards).
    """

    composition: Composition
    sentences: dict[str, LTLFOSentence] = field(default_factory=dict)
    semantics: ChannelSemantics = DECIDABLE_DEFAULT
    strict: bool = False


PassFn = Callable[[AnalysisContext], list[Diagnostic]]


@record(frozen=True, slots=True)
class AnalysisPass:
    """One named analysis pass."""

    name: str
    run: PassFn
    description: str = ""


def run_passes(ctx: AnalysisContext,
               passes: Sequence[AnalysisPass] | None = None) -> LintReport:
    """Run *passes* (default: all) over *ctx*, timing each one."""
    if passes is None:
        passes = default_passes()
    report = LintReport()
    with phase(PHASE_LINT):
        for p in passes:
            with phase(lint_phase(p.name)):
                found = p.run(ctx)
            counter(f"lint.{p.name}.diagnostics").inc(len(found))
            report.extend(found)
            report.passes_run.append(p.name)
    counter("lint.runs").inc()
    counter("lint.diagnostics").inc(len(report.diagnostics))
    return report


_DEFAULT_PASSES: tuple[AnalysisPass, ...] | None = None


def default_passes() -> tuple[AnalysisPass, ...]:
    """The full pipeline, built lazily (the pass modules import this one)."""
    global _DEFAULT_PASSES
    if _DEFAULT_PASSES is None:
        from .channels_pass import channels_pass
        from .decidability import decidability_pass
        from .flow import FlowPass
        from .ib_pass import ib_pass
        from .provenance import ProvenancePass
        from .reachability import reachability_pass
        from .rules_pass import rules_pass

        _DEFAULT_PASSES = (
            AnalysisPass("ib", ib_pass,
                         "input-boundedness (Section 3.1)"),
            AnalysisPass("rules", rules_pass,
                         "dead and shadowed rules"),
            AnalysisPass("reachability", reachability_pass,
                         "unreachable states and unused relations"),
            AnalysisPass("channels", channels_pass,
                         "channel discipline (Definition 2.5)"),
            FlowPass,
            ProvenancePass,
            AnalysisPass("decidability", decidability_pass,
                         "which theorem row applies"),
        )
    return _DEFAULT_PASSES


def __getattr__(name: str):
    if name == "ALL_PASSES":
        return default_passes()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
