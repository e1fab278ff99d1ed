"""Diagnostics for input-boundedness violations.

:class:`Violation` is the checker's native record; since the analyzer
landed it also carries the stable ``DWV0xx`` diagnostic code of the
specific Section 3.1 condition violated, and renders through
:class:`repro.analysis.diagnostics.Diagnostic` so ``repro check`` and
``repro lint`` print identical, code-prefixed messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.diagnostics import Diagnostic, make

#: Fallback code for violations constructed without one (old call sites).
DEFAULT_CODE = "DWV001"


@dataclass(frozen=True, slots=True)
class Violation:
    """One reason a formula/peer/composition fails input-boundedness.

    ``where`` locates the problem (peer/rule/property), ``formula`` is the
    offending (sub)formula rendered as text, ``reason`` explains which part
    of the Section 3.1 definition is violated, and ``code`` is the stable
    ``DWV0xx`` diagnostic code for that condition.  ``relations`` names
    the relations implicated by the violation (guard candidates or the
    clashing atoms' relations) so the provenance analysis can attach an
    origin chain to the diagnostic.
    """

    where: str
    formula: str
    reason: str
    code: str = DEFAULT_CODE
    relations: tuple[str, ...] = ()

    def as_diagnostic(self) -> Diagnostic:
        """This violation as a structured analyzer diagnostic."""
        peer = None
        rule = None
        if self.where.startswith("peer "):
            parts = self.where.split(", ", 1)
            peer = parts[0][len("peer "):]
            if len(parts) == 2:
                rule = parts[1]
        return make(
            self.code, self.reason, where=self.where,
            peer=peer, rule=rule, subject=self.formula,
        )

    def __str__(self) -> str:
        return f"[{self.where}] {self.reason}: {self.formula}"


def summarize(violations: list[Violation],
              composition=None) -> str:
    """A multi-line report, one code-prefixed violation per entry.

    This is the exact rendering ``repro lint`` uses for the same
    findings, so the two commands stay textually consistent.  With
    *composition*, each violation additionally carries the same
    provenance explanation the lint ib pass attaches (lazy import:
    the analysis package imports this module).
    """
    if not violations:
        return "input-bounded: no violations"
    if composition is None:
        return "\n".join(v.as_diagnostic().render() for v in violations)
    from ..analysis.ib_pass import attach_provenance
    from ..analysis.provenance import compute_provenance
    facts = compute_provenance(composition)
    return "\n".join(attach_provenance(composition, facts, v).render()
                     for v in violations)
