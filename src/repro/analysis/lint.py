"""The lint driver: structural scanning plus the analysis pipeline.

Two entry points:

* :func:`lint_composition` analyzes an already-built
  :class:`~repro.spec.Composition` (library examples, programmatic
  specs);
* :func:`lint_text` analyzes a ``.dws`` document.  It first runs a
  *structural* check over the raw declaration/rule IR
  (:func:`repro.spec.dsl.scan_document`) so that mistakes which would
  make the build raise -- a send into an undeclared queue, a head arity
  clash, two senders on one channel -- come back as ``DWV3xx``
  diagnostics instead of exceptions.  Only when the structure is sound
  does it build the composition and run the full pass pipeline.

Text that does not match the surface grammar at all still raises
:class:`~repro.errors.ParseError`; the CLI maps that to exit status 2
(structural/semantic findings exit 1, a clean document exits 0).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..ltlfo.formulas import LTLFOSentence
from ..ltlfo.parser import parse_ltlfo
from ..obs import counter
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from ..spec.dsl import (
    RawDocument, load_composition, load_properties, scan_document,
)
from .decidability import classify
from .diagnostics import Diagnostic, LintReport, Severity, make
from .passes import AnalysisContext, AnalysisPass, run_passes

#: rule family -> the declaration kind its target must have
_EXPECTED_DECL = {
    "input": ("input",),
    "insert": ("state",),
    "delete": ("state",),
    "action": ("action",),
    "send": ("out",),
}

_KIND_LABEL = {
    "database": "database relation", "state": "state relation",
    "input": "input relation", "action": "action relation",
    "in": "in-queue", "out": "out-queue",
}


def structural_diagnostics(document: RawDocument) -> list[Diagnostic]:
    """Pre-build structural checks over the raw document IR."""
    out: list[Diagnostic] = []
    out_queues: dict[str, tuple[str, "object"]] = {}
    in_queues: dict[str, tuple[str, "object"]] = {}

    for peer in document.peers:
        seen: dict[str, str] = {}
        for decl in peer.decls:
            if decl.name in seen:
                out.append(make(
                    "DWV304",
                    f"relation {decl.name!r} is declared twice "
                    f"(as {_KIND_LABEL[seen[decl.name]]} and "
                    f"{_KIND_LABEL[decl.kind]})",
                    where=f"peer {peer.name}", peer=peer.name,
                    subject=decl.name,
                ))
            else:
                seen[decl.name] = decl.kind
            if decl.kind == "out":
                if decl.name in out_queues:
                    other = out_queues[decl.name][0]
                    out.append(make(
                        "DWV304",
                        f"queue {decl.name!r} is an out-queue of both "
                        f"{other!r} and {peer.name!r}",
                        where=f"queue {decl.name}", peer=peer.name,
                        subject=decl.name,
                    ))
                else:
                    out_queues[decl.name] = (peer.name, decl)
            elif decl.kind == "in":
                if decl.name in in_queues:
                    other = in_queues[decl.name][0]
                    out.append(make(
                        "DWV304",
                        f"queue {decl.name!r} is an in-queue of both "
                        f"{other!r} and {peer.name!r}",
                        where=f"queue {decl.name}", peer=peer.name,
                        subject=decl.name,
                    ))
                else:
                    in_queues[decl.name] = (peer.name, decl)

        for rule in peer.rules:
            where = (f"peer {peer.name}, {rule.kind} rule for "
                     f"{rule.target}")
            decl = peer.decl(rule.target)
            expected = _EXPECTED_DECL[rule.kind]
            if decl is None:
                wanted = " or ".join(_KIND_LABEL[k] for k in expected)
                out.append(make(
                    "DWV301",
                    f"{rule.kind} rule targets {rule.target!r}, but the "
                    f"peer declares no {wanted} of that name",
                    where=where, peer=peer.name,
                    rule=f"{rule.kind} rule for {rule.target}",
                    subject=rule.target,
                ))
                continue
            if decl.kind not in expected:
                out.append(make(
                    "DWV302",
                    f"{rule.kind} rule targets {rule.target!r}, which is "
                    f"declared as {_KIND_LABEL[decl.kind]} (expected "
                    + " or ".join(_KIND_LABEL[k] for k in expected) + ")",
                    where=where, peer=peer.name,
                    rule=f"{rule.kind} rule for {rule.target}",
                    subject=rule.target,
                ))
                continue
            if decl.arity != len(rule.head):
                out.append(make(
                    "DWV303",
                    f"rule head has {len(rule.head)} variable(s), "
                    f"{rule.target!r} is declared with arity "
                    f"{decl.arity}",
                    where=where, peer=peer.name,
                    rule=f"{rule.kind} rule for {rule.target}",
                    subject=rule.target,
                ))

    for name in sorted(set(out_queues) & set(in_queues)):
        s_peer, s_decl = out_queues[name]
        r_peer, r_decl = in_queues[name]
        if s_peer == r_peer:
            out.append(make(
                "DWV308",
                f"queue {name!r}: sender and receiver are both "
                f"{s_peer!r}",
                where=f"queue {name}", peer=s_peer, subject=name,
            ))
        elif (s_decl.arity != r_decl.arity
                or s_decl.nested != r_decl.nested):
            out.append(make(
                "DWV305",
                f"queue {name!r}: {s_peer!r} sends "
                f"({s_decl.arity}, nested={s_decl.nested}), {r_peer!r} "
                f"receives ({r_decl.arity}, nested={r_decl.nested})",
                where=f"queue {name}", peer=s_peer, subject=name,
            ))
    return out


def _parse_sentences(properties: Mapping[str, str],
                     composition: Composition
                     ) -> dict[str, LTLFOSentence]:
    return {
        name: parse_ltlfo(text, composition.schema)
        for name, text in sorted(properties.items())
    }


def lint_composition(composition: Composition,
                     sentences: Mapping[str, LTLFOSentence] | None = None,
                     semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                     strict: bool = False,
                     passes: Sequence[AnalysisPass] | None = None,
                     ) -> LintReport:
    """Run the analysis pipeline over a built composition."""
    ctx = AnalysisContext(
        composition=composition,
        sentences=dict(sentences or {}),
        semantics=semantics,
        strict=strict,
    )
    report = run_passes(ctx, passes)
    report.classifications["composition"] = classify(
        composition, list(ctx.sentences.values()), semantics,
        strict=strict,
    )
    return report


def lint_text(text: str,
              semantics: ChannelSemantics = DECIDABLE_DEFAULT,
              strict: bool = False,
              passes: Sequence[AnalysisPass] | None = None,
              ) -> LintReport:
    """Scan, structurally check, and (when sound) fully analyze *text*."""
    document = scan_document(text)
    structural = structural_diagnostics(document)
    counter("lint.structural.diagnostics").inc(len(structural))
    if any(d.severity is Severity.ERROR for d in structural):
        report = LintReport(diagnostics=structural,
                            passes_run=["structure"])
        return report

    composition = load_composition(text)
    sentences = _parse_sentences(load_properties(text), composition)
    report = lint_composition(composition, sentences, semantics,
                              strict=strict, passes=passes)
    report.diagnostics = structural + report.diagnostics
    report.passes_run.insert(0, "structure")
    return report


__all__ = ["lint_composition", "lint_text", "structural_diagnostics"]
