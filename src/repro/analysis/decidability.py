"""Analyzer pass 5: the decidability classifier.

Given a composition, its properties, and the channel semantics the
verifier would run under, report which row of the paper's
decidability map applies:

==================================================  ==================
configuration                                       verdict
==================================================  ==================
lossy, k-bounded, input-bounded (incl. the remark   decidable,
after Thm 3.4: perfect *nested* channels are fine)  PSPACE (Thm 3.4)
unbounded queues                                    undecidable
                                                    (Cor 3.6)
perfect (non-lossy) channels, even 1-bounded        undecidable
                                                    (Thm 3.7)
deterministic flat sends (error_Q discipline)       undecidable
                                                    (Thm 3.8)
emptiness tests on nested queues, when empty        undecidable
nested messages are enqueued                        (Thm 3.9)
input-boundedness violated                          undecidable
                                                    (Thm 3.5 / 3.10)
==================================================  ==================

Protocols (Section 4) have their own map: data-agnostic protocols
observed at the recipient are decidable (Theorem 4.2), observed at the
source undecidable (Theorem 4.3); data-aware protocols with
input-bounded guard formulas are decidable (Theorems 4.5/4.6).

``repro verify`` consults :func:`classify` pre-flight and warns before
searching an undecidable configuration (the search stays sound for bug
finding over the bounded domain; only exhaustiveness loses meaning).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .._record import field, record
from ..ib.checker import check_composition, check_sentence
from ..ltlfo.formulas import LTLFOSentence
from ..spec.channels import (
    ChannelSemantics, DECIDABLE_DEFAULT, FlatSendDiscipline,
    NestedEmptySend,
)
from ..spec.composition import Composition

# the lint functions' types: ``repro verify`` only calls classify()
if TYPE_CHECKING:
    from .diagnostics import Diagnostic
    from .passes import AnalysisContext


@record(frozen=True)
class Classification:
    """Which theorem row applies to one verification configuration."""

    decidable: bool
    theorem: str
    complexity: str | None = None       # decidable rows only
    restriction_violated: str | None = None  # undecidable rows only
    reasons: tuple[str, ...] = field(default_factory=tuple)

    def describe(self) -> str:
        if self.decidable:
            comp = f", {self.complexity}" if self.complexity else ""
            head = f"decidable ({self.theorem}{comp})"
        else:
            head = (f"undecidable ({self.theorem}; violated restriction: "
                    f"{self.restriction_violated})")
        if self.reasons:
            head += ": " + "; ".join(self.reasons)
        return head


def _nested_emptiness_tests(composition: Composition) -> list[str]:
    """``empty_Q`` flags of *nested* in-queues some rule consults."""
    from ..fo.formulas import relations as formula_relations
    from ..fo.schema import empty_name

    hits: list[str] = []
    for peer in composition.peers:
        nested_flags = {
            empty_name(q.name): q.name
            for q in peer.in_queues if q.nested
        }
        if not nested_flags:
            continue
        mentioned: set[str] = set()
        for rule in peer.rules:
            mentioned |= formula_relations(rule.body)
        for flag in sorted(nested_flags):
            if flag in mentioned:
                hits.append(f"{peer.name}.{flag}")
    return hits


def classify(composition: Composition,
             sentences: Iterable[LTLFOSentence] = (),
             semantics: ChannelSemantics = DECIDABLE_DEFAULT,
             strict: bool = False) -> Classification:
    """The decidability verdict for verifying *sentences* of *composition*."""
    if not semantics.bounded:
        return Classification(
            decidable=False, theorem="Corollary 3.6",
            restriction_violated="bounded queues",
            reasons=("queue_bound=None: even lossy unbounded queues make "
                     "verification undecidable",),
        )
    if not semantics.lossy:
        return Classification(
            decidable=False, theorem="Theorem 3.7",
            restriction_violated="lossy channels",
            reasons=(f"perfect {semantics.queue_bound}-bounded channels "
                     "encode two-counter machines",),
        )
    if semantics.flat_send is FlatSendDiscipline.DETERMINISTIC_ERROR:
        return Classification(
            decidable=False, theorem="Theorem 3.8",
            restriction_violated="nondeterministic flat sends",
            reasons=("deterministic flat sends with error_Q flags restore "
                     "enough synchronization for undecidability",),
        )

    violations = check_composition(composition, strict=strict)
    for idx, sentence in enumerate(sentences):
        violations.extend(check_sentence(
            sentence, composition.schema, where=f"property #{idx}",
            strict=strict,
        ))
    if violations:
        theorem = "Theorem 3.5"
        if any(v.code == "DWV005" for v in violations):
            theorem = "Theorems 3.5/3.10"
        return Classification(
            decidable=False, theorem=theorem,
            restriction_violated="input-boundedness",
            reasons=(f"{len(violations)} input-boundedness violation(s); "
                     "run `repro check` for the list",),
        )

    if semantics.nested_empty_send is NestedEmptySend.ENQUEUE:
        tests = _nested_emptiness_tests(composition)
        if tests:
            return Classification(
                decidable=False, theorem="Theorem 3.9",
                restriction_violated=(
                    "no emptiness tests on nested messages"
                ),
                reasons=("empty nested messages are enqueued and "
                         f"{', '.join(tests)} test(s) observe them",),
            )

    arity = composition.max_arity()
    reasons = [
        f"lossy {semantics.queue_bound}-bounded queues, input-bounded "
        "composition and properties",
        f"PSPACE for the fixed maximum arity {arity} "
        "(EXPSPACE when the arity is part of the input)",
    ]
    if semantics.perfect_nested:
        reasons.append("perfect nested channels stay decidable "
                       "(remark after Theorem 3.4)")
    return Classification(
        decidable=True, theorem="Theorem 3.4", complexity="PSPACE",
        reasons=tuple(reasons),
    )


def classify_protocol(protocol) -> Classification:
    """The decidability verdict for protocol compliance (Section 4)."""
    from ..protocols.base import AgnosticProtocol, DataAwareProtocol, Observer

    if isinstance(protocol, AgnosticProtocol):
        if protocol.observer is Observer.SOURCE:
            return Classification(
                decidable=False, theorem="Theorem 4.3",
                restriction_violated="observer at the recipient",
                reasons=("observing send *attempts* at the source defeats "
                         "the lossy-channel abstraction",),
            )
        return Classification(
            decidable=True, theorem="Theorem 4.2", complexity="PSPACE",
            reasons=("data-agnostic protocol observed at the recipient",),
        )
    if isinstance(protocol, DataAwareProtocol):
        return Classification(
            decidable=True, theorem="Theorems 4.5/4.6",
            complexity="PSPACE",
            reasons=("data-aware protocol over the out-queue schema, "
                     "observed at the recipient (guard formulas must be "
                     "input-bounded)",),
        )
    raise TypeError(f"not a protocol: {protocol!r}")


def classification_diagnostics(classification: Classification
                               ) -> list[Diagnostic]:
    """The classifier verdict as ``DWV401``/``DWV402`` diagnostics."""
    from .diagnostics import make

    if classification.decidable:
        return [make(
            "DWV401", classification.describe(),
            where="configuration", subject=classification.theorem,
        )]
    return [make(
        "DWV402", classification.describe(),
        where="configuration", subject=classification.theorem,
    )]


def decidability_pass(ctx: AnalysisContext) -> list[Diagnostic]:
    classification = classify(
        ctx.composition, list(ctx.sentences.values()), ctx.semantics,
        strict=ctx.strict,
    )
    return classification_diagnostics(classification)
