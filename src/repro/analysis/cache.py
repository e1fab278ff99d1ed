"""The content-addressed lint cache.

``repro lint --cache`` over a large corpus should re-analyze only what
changed.  Two cache granularities, both keyed by sha256 over canonical
content (never paths or mtimes):

* **document keys** -- the canonical ``.dws`` dump of the whole
  composition, the normalized property texts, the channel semantics,
  the strict flag, and :data:`PASS_VERSION`.  A hit reconstructs the
  entire :class:`~repro.analysis.diagnostics.LintReport` (diagnostics,
  passes, classification) bit-for-bit.
* **peer keys** -- the canonical dump of one peer plus its *inbound
  provenance signature*: for every in-queue, the source-tag set and
  the invention-witness chain of the payload.  The signature is what
  makes per-peer caching sound for the interprocedural ib pass: a
  peer's diagnostics (including their provenance explanations) depend
  on other peers only through what flows into its in-queues, and the
  signature hashes exactly that.  Witness chains are depth-capped (8
  hops, matching what the diagnostics render), so an upstream change
  *beyond* the cap that alters no tag and no rendered chain can --
  harmlessly -- still hit.

Structural scanning is always recomputed (it is cheaper than hashing
would be), and only the per-peer pass families (ib + rules) are served
from peer entries; the genuinely interprocedural passes re-run on every
document miss.  Hits/misses/stores surface as ``lint.cache_*`` obs
counters and as attributes on :class:`LintCache` for the CLI stats
line.

The cache root resolves ``REPRO_LINT_CACHE_DIR`` ->
``~/.cache/repro/lint``; entries are two-level-fanout JSON files
written atomically (tmp + rename), safe under concurrent linting.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Mapping, Sequence

from .._record import asdict
from ..obs import counter
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from ..spec.dsl import (
    dump_composition, dump_peer, load_composition, load_properties,
    scan_document,
)
from ..spec.peer import Peer
from .channels_pass import channels_pass
from .decidability import Classification, classify, decidability_pass
from .diagnostics import Diagnostic, LintReport, Severity
from .flow import flow_pass
from .ib_pass import peer_ib_diagnostics, sentence_ib_diagnostics
from .lint import _parse_sentences, structural_diagnostics
from .passes import AnalysisContext
from .provenance import (
    _invention_witness, compute_provenance, provenance_pass,
)
from .reachability import reachability_pass
from .rules_pass import peer_rules_diagnostics

#: Bump on any change to pass logic or diagnostic rendering: every key
#: embeds it, so stale entries die by never being addressed again.
PASS_VERSION = "2"

_DOC_SCHEMA = f"repro.lint-cache/{PASS_VERSION}"
_PEER_SCHEMA = f"repro.lint-peer/{PASS_VERSION}"

#: Environment override for the cache root.
CACHE_DIR_ENV = "REPRO_LINT_CACHE_DIR"

#: The names run_passes would record for the same pipeline.
_PASS_NAMES = ["ib", "rules", "reachability", "channels",
               "flow", "provenance", "decidability"]


def default_cache_dir() -> Path:
    """Resolve the cache root (see module docstring)."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "lint"


class LintCache:
    """A content-addressed JSON store with hit/miss accounting."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.document_hits = 0
        self.document_misses = 0
        self.peer_hits = 0
        self.peer_misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> dict | None:
        """The stored payload for *key*, or None (missing/corrupt)."""
        try:
            raw = self._path(key).read_text()
            return json.loads(raw)
        except (OSError, ValueError):
            return None

    def store(self, key: str, payload: dict) -> None:
        """Atomically persist *payload* under *key* (best effort)."""
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, default=str)
            os.replace(tmp, path)
        except OSError:
            return
        self.stores += 1
        counter("lint.cache_stores").inc()

    def stats_line(self) -> str:
        """The one-line summary the CLI prints to stderr."""
        return (f"lint-cache: doc-hits={self.document_hits} "
                f"doc-misses={self.document_misses} "
                f"peer-hits={self.peer_hits} "
                f"peer-misses={self.peer_misses} "
                f"stores={self.stores} root={self.root}")


def _digest(parts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8", "surrogatepass"))
        h.update(b"\x00")
    return h.hexdigest()


def _property_lines(properties: Mapping[str, str]) -> list[str]:
    return [f"{name}: {' '.join(text.split())}"
            for name, text in sorted(properties.items())]


def document_key(composition: Composition,
                 properties: Mapping[str, str],
                 semantics: ChannelSemantics,
                 strict: bool) -> str | None:
    """The whole-report cache key, or None when the spec cannot be
    canonically dumped (unemittable constants: never cached)."""
    try:
        dump = dump_composition(composition)
    except Exception:
        return None
    return _digest([_DOC_SCHEMA, dump, *_property_lines(properties),
                    repr(semantics), f"strict={strict}"])


def peer_key(composition: Composition, peer: Peer,
             facts: dict, semantics: ChannelSemantics,
             strict: bool) -> str | None:
    """The per-peer key: peer dump + inbound provenance signature."""
    try:
        dump = dump_peer(peer)
    except Exception:
        return None
    inbound: list[str] = []
    for sym in sorted(peer.in_queues, key=lambda s: s.name):
        tags = sorted(facts.get((peer.name, sym.name), frozenset()))
        inbound.append(f"in {sym.name}: {','.join(tags)}")
        inbound.extend(_invention_witness(
            composition, facts, peer.name, sym.name))
    return _digest([_PEER_SCHEMA, dump, repr(semantics),
                    f"strict={strict}", *inbound])


# -- report (de)serialization ------------------------------------------------


def _payload_from_report(report: LintReport) -> dict:
    return {
        "schema": _DOC_SCHEMA,
        "diagnostics": [d.to_dict() for d in report.diagnostics],
        "passes_run": list(report.passes_run),
        "classifications": {
            name: asdict(c)
            for name, c in report.classifications.items()
        },
    }


def _report_from_payload(payload: dict) -> LintReport:
    report = LintReport(
        diagnostics=[Diagnostic.from_dict(d)
                     for d in payload.get("diagnostics", ())],
        passes_run=list(payload.get("passes_run", ())),
    )
    for name, data in payload.get("classifications", {}).items():
        report.classifications[name] = Classification(
            decidable=data["decidable"],
            theorem=data["theorem"],
            complexity=data.get("complexity"),
            restriction_violated=data.get("restriction_violated"),
            reasons=tuple(data.get("reasons", ())),
        )
    return report


# -- the cached drivers ------------------------------------------------------


def lint_cached_composition(composition: Composition,
                            properties: Mapping[str, str] | None = None,
                            semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                            strict: bool = False,
                            cache: LintCache | None = None) -> LintReport:
    """:func:`~repro.analysis.lint.lint_composition`, cache-backed.

    Reports are bit-for-bit identical to a cold run: document hits
    replay the stored report; document misses rebuild it, serving the
    per-peer pass families (ib + rules) from peer entries where the
    peer and its inbound provenance are unchanged.
    """
    if cache is None:
        cache = LintCache()
    properties = dict(properties or {})
    doc_key = document_key(composition, properties, semantics, strict)
    if doc_key is not None:
        payload = cache.load(doc_key)
        if payload is not None and payload.get("schema") == _DOC_SCHEMA:
            cache.document_hits += 1
            cache.peer_hits += len(composition.peers)
            counter("lint.cache_hits").inc()
            counter("lint.cache_peer_hits").inc(len(composition.peers))
            return _report_from_payload(payload)
    cache.document_misses += 1
    counter("lint.cache_misses").inc()

    sentences = _parse_sentences(properties, composition)
    facts = compute_provenance(composition)
    diagnostics: list[Diagnostic] = []
    for peer in composition.peers:
        key = peer_key(composition, peer, facts, semantics, strict)
        bundle = cache.load(key) if key is not None else None
        if bundle is not None and bundle.get("schema") == _PEER_SCHEMA:
            cache.peer_hits += 1
            counter("lint.cache_peer_hits").inc()
            diagnostics.extend(
                Diagnostic.from_dict(d) for d in bundle["diagnostics"])
            continue
        cache.peer_misses += 1
        counter("lint.cache_peer_misses").inc()
        found = peer_ib_diagnostics(composition, peer, facts, strict)
        found.extend(peer_rules_diagnostics(peer))
        diagnostics.extend(found)
        if key is not None:
            cache.store(key, {
                "schema": _PEER_SCHEMA,
                "diagnostics": [d.to_dict() for d in found],
            })

    ctx = AnalysisContext(
        composition=composition, sentences=dict(sentences),
        semantics=semantics, strict=strict,
    )
    for name, sentence in sorted(sentences.items()):
        diagnostics.extend(sentence_ib_diagnostics(
            composition, name, sentence, facts, strict))
    diagnostics.extend(reachability_pass(ctx))
    diagnostics.extend(channels_pass(ctx))
    diagnostics.extend(flow_pass(ctx))
    diagnostics.extend(provenance_pass(ctx))
    diagnostics.extend(decidability_pass(ctx))

    report = LintReport(
        diagnostics=diagnostics,
        passes_run=list(_PASS_NAMES),
    )
    report.classifications["composition"] = classify(
        composition, list(sentences.values()), semantics, strict=strict,
    )
    if doc_key is not None:
        cache.store(doc_key, _payload_from_report(report))
    return report


def lint_cached(text: str,
                semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                strict: bool = False,
                cache: LintCache | None = None) -> LintReport:
    """:func:`~repro.analysis.lint.lint_text`, cache-backed.

    The structural scan always runs (it is the cheap part and gates the
    build); the pass pipeline behind it is served from the cache.
    """
    document = scan_document(text)
    structural = structural_diagnostics(document)
    counter("lint.structural.diagnostics").inc(len(structural))
    if any(d.severity is Severity.ERROR for d in structural):
        return LintReport(diagnostics=structural,
                          passes_run=["structure"])
    composition = load_composition(text)
    properties = load_properties(text)
    report = lint_cached_composition(
        composition, properties, semantics, strict=strict, cache=cache)
    report.diagnostics = structural + report.diagnostics
    report.passes_run.insert(0, "structure")
    return report


__all__ = [
    "CACHE_DIR_ENV", "LintCache", "PASS_VERSION", "default_cache_dir",
    "document_key", "lint_cached", "lint_cached_composition", "peer_key",
]
