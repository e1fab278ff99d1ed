"""Structured diagnostics for the static analyzer (``repro lint``).

Every finding of every analysis pass -- including the input-boundedness
checker's violations, which :mod:`repro.ib.report` renders through this
type -- is a :class:`Diagnostic` with a stable ``DWV***`` code, a
severity, a location path (peer / rule / subformula), a human message,
and a fix hint.  The code catalog below maps each code to the paper
section or theorem it enforces (the same table lives in DESIGN.md).

This module imports nothing from the rest of ``repro`` but
:mod:`repro._record`, so that low-level modules (``ib.report``) can
import it without cycles.

Code ranges:

* ``DWV0xx`` -- input-boundedness (Section 3.1, Theorem 3.4)
* ``DWV1xx`` -- dead and shadowed rules
* ``DWV2xx`` -- reachability and unused symbols
* ``DWV3xx`` -- channel discipline and spec structure
* ``DWV4xx`` -- decidability classification (Theorems 3.4-3.10, 4.2-4.6)
* ``DWV5xx`` -- interprocedural communication flow (deadlocks, orphan
  flows, multi-hop dropped-message chains)
* ``DWV6xx`` -- data provenance (invented values crossing peers)
"""

from __future__ import annotations

import enum
import json
from typing import Iterable, Sequence

from .._record import asdict, field, record


class Severity(enum.Enum):
    """Diagnostic severity; ``ERROR`` gates the lint exit status."""

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "note": 2}[self.value]


@record(frozen=True, slots=True)
class CodeInfo:
    """Catalog entry for one stable diagnostic code."""

    title: str
    severity: Severity
    ref: str          # paper section / theorem the code enforces
    hint: str = ""    # default fix hint


#: The stable code catalog.  Codes are append-only: never renumber.
CODES: dict[str, CodeInfo] = {
    # -- input-boundedness (Section 3.1) ---------------------------------
    "DWV001": CodeInfo(
        "unguarded quantifier", Severity.ERROR, "Section 3.1 / Theorem 3.4",
        "guard the quantifier with an input, prev-input, or flat-queue "
        "atom covering all quantified variables",
    ),
    "DWV002": CodeInfo(
        "universal quantifier not in guarded form", Severity.ERROR,
        "Section 3.1 / Theorem 3.4",
        "write the quantifier as `forall x̄: alpha -> phi` with a guard "
        "atom alpha",
    ),
    "DWV003": CodeInfo(
        "quantified variable in restricted atom", Severity.ERROR,
        "Section 3.1 / Theorem 3.4",
        "copy the needed value into an input or flat message first; "
        "state, action, and nested-queue atoms may not see quantified "
        "variables",
    ),
    "DWV004": CodeInfo(
        "input/flat-send rule outside exists* FO", Severity.ERROR,
        "Section 3.1, condition 2",
        "rewrite the body as `exists x̄: (quantifier-free)`",
    ),
    "DWV005": CodeInfo(
        "non-ground state/nested atom in input/flat-send rule",
        Severity.ERROR, "Section 3.1, condition 2 / Theorem 3.10",
        "only propositional (ground) state tests are allowed here; "
        "route data through a nested queue instead",
    ),
    # -- dead / shadowed rules -------------------------------------------
    "DWV101": CodeInfo(
        "dead rule: body unsatisfiable", Severity.WARNING,
        "Definition 2.1 (rule semantics)",
        "the rule can never fire; delete it or fix the contradictory "
        "guard",
    ),
    "DWV102": CodeInfo(
        "shadowed rule: insert/delete conflict", Severity.WARNING,
        "Definition 2.3 (no-op conflict semantics)",
        "insert and delete for the same state fire together on every "
        "snapshot where this rule fires, so it has no effect; make the "
        "guards disjoint",
    ),
    "DWV103": CodeInfo(
        "shadowed disjunct: subsumed by an earlier branch",
        Severity.WARNING, "Definition 2.1 (rule semantics)",
        "the branch is implied by an earlier disjunct of the same body "
        "and can be removed",
    ),
    # -- reachability / unused symbols -----------------------------------
    "DWV201": CodeInfo(
        "unreachable state relation", Severity.WARNING,
        "Definition 2.3 (runs)",
        "no rule chain can ever populate this state; add an insert rule "
        "or remove the relation",
    ),
    "DWV202": CodeInfo(
        "unused relation", Severity.NOTE, "Definition 2.1",
        "the relation is declared but no rule reads or writes it; "
        "remove the declaration",
    ),
    # -- channel discipline / spec structure -----------------------------
    "DWV301": CodeInfo(
        "rule targets undeclared relation", Severity.ERROR,
        "Definition 2.1",
        "declare the relation (for sends: an out-queue of the peer) "
        "before using it as a rule target",
    ),
    "DWV302": CodeInfo(
        "rule targets relation of the wrong kind", Severity.ERROR,
        "Definition 2.1",
        "send rules must target out-queues, insert/delete rules states, "
        "input rules inputs, action rules actions",
    ),
    "DWV303": CodeInfo(
        "rule head arity mismatch", Severity.ERROR, "Definition 2.1",
        "the head variable tuple must match the target relation's arity",
    ),
    "DWV304": CodeInfo(
        "duplicate declaration", Severity.ERROR, "Definition 2.5",
        "each queue has at most one sender and one receiver, and each "
        "relation is declared once per peer",
    ),
    "DWV305": CodeInfo(
        "channel endpoint mismatch", Severity.ERROR, "Definition 2.5",
        "the sender's out-queue and the receiver's in-queue must agree "
        "on arity and flat/nested shape",
    ),
    "DWV306": CodeInfo(
        "flat send may yield multiple tuples", Severity.NOTE,
        "Theorem 3.8 (deterministic sends)",
        "under the deterministic-send discipline this raises error_Q "
        "and sends nothing; pin the head variables to a single tuple "
        "if deterministic sends are intended",
    ),
    "DWV307": CodeInfo(
        "queue is never consumed by its receiver", Severity.WARNING,
        "Definition 2.4 / Section 3.1 (bounded queues)",
        "the receiver never mentions the queue, so it never dequeues; "
        "every message beyond the queue bound is provably dropped",
    ),
    "DWV308": CodeInfo(
        "self-channel", Severity.ERROR, "Definition 2.5",
        "a queue's sender and receiver must be different peers; route "
        "through a relay peer",
    ),
    "DWV309": CodeInfo(
        "dangling channel endpoint (open composition)", Severity.NOTE,
        "Section 5 (open compositions)",
        "the queue's missing endpoint becomes the environment; close "
        "the composition or verify modularly with an environment spec",
    ),
    # -- decidability classification -------------------------------------
    "DWV401": CodeInfo(
        "decidable verification configuration", Severity.NOTE,
        "Theorem 3.4",
        "",
    ),
    "DWV402": CodeInfo(
        "undecidable verification configuration", Severity.WARNING,
        "Theorems 3.5-3.10",
        "the verifier remains sound for bug finding over the bounded "
        "domain, but exhausting the search proves nothing in general",
    ),
    # -- communication flow (interprocedural) ----------------------------
    "DWV501": CodeInfo(
        "blocking-receive cycle (static deadlock)", Severity.WARNING,
        "Definition 2.4 (communication semantics)",
        "every producer of every channel in the cycle waits on another "
        "channel of the cycle; make at least one send rule fireable "
        "from inputs or database atoms alone",
    ),
    "DWV502": CodeInfo(
        "orphan message flow: every consuming rule is dead",
        Severity.WARNING, "Definition 2.4",
        "the receiver mentions the queue only in rules that can never "
        "fire under the propositional abstraction; fix the dead guards "
        "or drop the send",
    ),
    "DWV503": CodeInfo(
        "multi-hop dropped-message chain", Severity.WARNING,
        "Section 3.1 (bounded queues) / Definition 2.4",
        "the payload is only ever relayed into queues that provably "
        "drop it under the k-bounded semantics; consume it with an "
        "insert/delete/action/input rule somewhere, or remove the relay",
    ),
    # -- data provenance (interprocedural) -------------------------------
    "DWV601": CodeInfo(
        "cross-peer input-boundedness erosion", Severity.WARNING,
        "Section 3.1 / Theorem 3.4",
        "the quantifier is guarded by a queue whose payload can carry "
        "invented values; bind the sender's head variables with input, "
        "database, or queue atoms",
    ),
    "DWV602": CodeInfo(
        "message payload carries invented values", Severity.NOTE,
        "Section 3.1",
        "some head variable of a rule sending into this channel is not "
        "bound by any positive input/database/queue atom; pin it to a "
        "constant or bind it if the free choice is unintended",
    ),
}


@record(frozen=True, slots=True)
class Diagnostic:
    """One analyzer finding with a stable code and a location path.

    ``where`` is the human-readable location path ("peer O, send rule
    for getRating"); ``peer``/``rule`` are its machine-readable parts
    when known.  ``subject`` is the offending formula, relation, or
    configuration rendered as text.  ``provenance`` is the explanation
    chain (one atom hop per entry) for findings the provenance analysis
    can trace to their origin.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    where: str = ""
    peer: str | None = None
    rule: str | None = None
    subject: str = ""
    hint: str = ""
    ref: str = ""
    provenance: tuple[str, ...] = ()

    def render(self) -> str:
        """The canonical one-line text rendering (plus hint/provenance)."""
        loc = f" [{self.where}]" if self.where else ""
        subj = f": {self.subject}" if self.subject else ""
        line = f"{self.code} {self.severity.value}{loc} {self.message}{subj}"
        for entry in self.provenance:
            line += f"\n    provenance: {entry}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self) -> dict:
        out = asdict(self)
        out["severity"] = self.severity.value
        out["provenance"] = list(self.provenance)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        """The inverse of :meth:`to_dict` (lint-cache round trip)."""
        return cls(
            code=data["code"],
            message=data["message"],
            severity=Severity(data.get("severity", "error")),
            where=data.get("where", ""),
            peer=data.get("peer"),
            rule=data.get("rule"),
            subject=data.get("subject", ""),
            hint=data.get("hint", ""),
            ref=data.get("ref", ""),
            provenance=tuple(data.get("provenance", ())),
        )


def make(code: str, message: str, *, severity: Severity | None = None,
         where: str = "", peer: str | None = None, rule: str | None = None,
         subject: str = "", hint: str | None = None,
         provenance: Sequence[str] = ()) -> Diagnostic:
    """Build a diagnostic, defaulting severity/ref/hint from the catalog."""
    info = CODES[code]
    return Diagnostic(
        code=code,
        message=message,
        severity=severity if severity is not None else info.severity,
        where=where,
        peer=peer,
        rule=rule,
        subject=subject,
        hint=info.hint if hint is None else hint,
        ref=info.ref,
        provenance=tuple(provenance),
    )


def sort_key(diag: Diagnostic) -> tuple:
    """Stable report order: severity, then code, then location."""
    return (diag.severity.rank, diag.code, diag.where, diag.subject)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> dict[str, int]:
    out = {s.value: 0 for s in Severity}
    for d in diagnostics:
        out[d.severity.value] += 1
    return out


def render_report(diagnostics: Sequence[Diagnostic]) -> str:
    """A multi-line text report, one diagnostic per entry, sorted."""
    if not diagnostics:
        return "clean: no diagnostics"
    return "\n".join(d.render() for d in sorted(diagnostics, key=sort_key))


#: GitHub Actions annotation level per severity.
_GITHUB_LEVEL = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.NOTE: "notice",
}


def _github_escape(text: str) -> str:
    """Escape annotation message data per the workflow-command grammar."""
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def render_github(diagnostics: Sequence[Diagnostic]) -> str:
    """GitHub Actions ``::error``/``::warning``/``::notice`` annotations.

    ``.dws`` documents have no stable line numbers after continuation
    joining, so the annotations are file/line-free and carry the
    ``where=`` location path inside the message instead.
    """
    lines = []
    for d in sorted(diagnostics, key=sort_key):
        message = f"[{d.where}] {d.message}" if d.where else d.message
        if d.subject:
            message += f": {d.subject}"
        lines.append(f"::{_GITHUB_LEVEL[d.severity]} "
                     f"title={d.code}::{_github_escape(message)}")
    return "\n".join(lines)


def to_json(diagnostics: Sequence[Diagnostic], *, extra: dict | None = None,
            ) -> str:
    """The machine-readable JSON report (schema ``repro.lint/1``)."""
    payload = {
        "schema": "repro.lint/1",
        "counts": count_by_severity(diagnostics),
        "diagnostics": [
            d.to_dict() for d in sorted(diagnostics, key=sort_key)
        ],
    }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, default=str)


@record
class LintReport:
    """The aggregate result of one analyzer run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    classifications: dict[str, "object"] = field(default_factory=dict)
    passes_run: list[str] = field(default_factory=list)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    @property
    def has_errors(self) -> bool:
        return has_errors(self.diagnostics)

    def codes(self) -> list[str]:
        return sorted({d.code for d in self.diagnostics})

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]
