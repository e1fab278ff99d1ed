"""The differential oracle harness: every generated spec, full pipeline.

For each :class:`GeneratedSpec` the harness runs a stack of layered
oracles, each of which must hold for every well-formed spec regardless
of its verdict:

1. **Classifier** -- the static analyzer never crashes on a generated
   spec, and :func:`repro.analysis.classify` places it on the theorem
   row it was generated for.
2. **Round-trip** -- the spec serializes to ``.dws`` text and parses
   back structurally equal (peers, databases, property texts); this is
   load-bearing for corpus replay.
3. **Engine differential** -- the per-valuation reference engine
   (:func:`repro.fuzz.seed_engine.verify_seed`) and
   :func:`repro.verifier.verify` agree bit-for-bit: verdict, decisive
   order, valuation/node counts, decisive valuation, and counterexample
   lasso.
4. **Distribution** -- a 2-worker sweep (two local shards) and a 2-way
   ``--shard`` split merged back through :func:`merge_fragments` both
   reproduce the sequential result exactly.
5. **Replay** -- every counterexample lasso replays as a genuine run
   through :func:`repro.runtime.validate_lasso`.
6. **Verdict** -- rows with certain expected verdicts (the decidable
   baseline) must produce them.

Oracles 3-6 only run where the configuration is verifiable (bounded
queues); row 3.5 runs them with the IB pre-check disabled, which is
exactly the bug-finding-stays-sound claim of the paper's Section 3.

The ``verify_hook`` seam (the reference engine's side of the
differential) exists for the mutation test in the suite: a deliberately
buggy wrapper injected there must be caught by the differential oracle
and shrunk to a minimized reproducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..runtime import validate_lasso
from ..verifier import (
    merge_fragments, result_from_merged, shard_fragment,
    verification_domain, verify,
)
from .generate import GeneratedSpec, generate
from .seed_engine import verify_seed
from .shrink import shrink

#: Signature of the reference-side seam: ``verify_seed`` plus options.
VerifyHook = Callable[..., object]


@dataclass(frozen=True)
class OracleViolation:
    """One oracle the spec failed, with a human-readable detail."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass
class CaseOutcome:
    """The oracle verdicts for one generated spec."""

    spec: GeneratedSpec
    violations: list[OracleViolation] = field(default_factory=list)
    verified: bool = False   # did the verify-based oracles run?

    @property
    def ok(self) -> bool:
        return not self.violations

    def oracles_failed(self) -> frozenset[str]:
        return frozenset(v.oracle for v in self.violations)


@dataclass
class FuzzReport:
    """The aggregate outcome of one ``repro fuzz`` campaign."""

    seed: int
    count: int
    rows: tuple[str, ...]
    outcomes: list[CaseOutcome] = field(default_factory=list)
    corpus_files: list[str] = field(default_factory=list)
    emitted_files: list[str] = field(default_factory=list)

    @property
    def failures(self) -> list[CaseOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verified = sum(1 for o in self.outcomes if o.verified)
        head = (f"fuzz: {len(self.outcomes)} case(s) over row(s) "
                f"{', '.join(self.rows)} (seed {self.seed}); "
                f"{verified} verified end-to-end; "
                f"{len(self.failures)} oracle violation(s)")
        lines = [head]
        if self.emitted_files:
            lines.append(
                f"  {len(self.emitted_files)} spec(s) emitted to corpus")
        for outcome in self.failures:
            for violation in outcome.violations:
                lines.append(
                    f"  seed={outcome.spec.seed} row={outcome.spec.row}: "
                    f"{violation}"
                )
        for path in self.corpus_files:
            lines.append(f"  minimized reproducer: {path}")
        return "\n".join(lines)


# -- individual oracles ------------------------------------------------------


def _classifier_oracle(spec: GeneratedSpec) -> list[OracleViolation]:
    from ..analysis import classify
    from ..ltlfo.parser import parse_ltlfo

    try:
        sentences = [parse_ltlfo(text, spec.composition.schema)
                     for text in spec.properties.values()]
        classification = classify(spec.composition, sentences,
                                  spec.semantics)
    except Exception as err:  # the oracle: lint must never crash
        return [OracleViolation(
            "classifier", f"classify crashed: {err!r}"
        )]
    if not spec.matches_classification(classification):
        want = (spec.expected_theorem or spec.expected_restriction
                or "decidable" if spec.expected_decidable else "undecidable")
        return [OracleViolation(
            "classifier",
            f"requested row {spec.row} ({want}), "
            f"classified as: {classification.describe()}"
        )]
    return []


def _roundtrip_oracle(spec: GeneratedSpec) -> list[OracleViolation]:
    from ..spec.dsl import compositions_equal, load_document

    try:
        text = spec.to_dws()
        comp, dbs, props = load_document(text)
    except Exception as err:
        return [OracleViolation(
            "roundtrip", f"dump/load crashed: {err!r}"
        )]
    out = []
    if not compositions_equal(spec.composition, comp):
        out.append(OracleViolation(
            "roundtrip", "composition did not round-trip structurally"
        ))
    if dbs != spec.databases:
        out.append(OracleViolation(
            "roundtrip", "databases did not round-trip"
        ))
    if set(props) != set(spec.properties):
        out.append(OracleViolation(
            "roundtrip",
            f"property names did not round-trip: "
            f"{sorted(props)} != {sorted(spec.properties)}"
        ))
    return out


def _diff(field_name: str, a, b) -> str | None:
    return None if a == b else f"{field_name}: {a!r} != {b!r}"


def _compare_results(reference, other, what: str) -> list[str]:
    """The determinism contract, field by field."""
    problems = [p for p in (
        _diff("verdict", reference.verdict, other.verdict),
        _diff("decisive_order", reference.stats.decisive_order,
              other.stats.decisive_order),
        _diff("valuations_checked", reference.stats.valuations_checked,
              other.stats.valuations_checked),
        _diff("product_nodes_visited",
              reference.stats.product_nodes_visited,
              other.stats.product_nodes_visited),
    ) if p]
    ref_cex, other_cex = reference.counterexample, other.counterexample
    if (ref_cex is None) != (other_cex is None):
        problems.append(
            f"counterexample presence: {ref_cex is not None} != "
            f"{other_cex is not None}"
        )
    elif ref_cex is not None:
        problems.extend(p for p in (
            _diff("decisive valuation", ref_cex.valuation,
                  other_cex.valuation),
            _diff("lasso", ref_cex.lasso, other_cex.lasso),
        ) if p)
    return [f"{what}: {p}" for p in problems]


def _verify_oracles(spec: GeneratedSpec,
                    verify_hook: VerifyHook) -> list[OracleViolation]:
    """Oracles 3-6 on each property, over the property's own Theorem 3.4
    domain (:func:`verification_domain` of the composition, the property
    and the databases), the domain ``repro verify`` uses, also when it
    replays a minimized reproducer."""
    from ..ltlfo.parser import parse_ltlfo

    comp, dbs = spec.composition, spec.databases
    out: list[OracleViolation] = []

    for name, text in sorted(spec.properties.items()):
        try:
            domain = verification_domain(
                comp, [parse_ltlfo(text, comp.schema)], dbs)
            kwargs = dict(
                semantics=spec.semantics, domain=domain,
                check_input_bounded=spec.check_input_bounded,
            )
            reference = verify(comp, text, dbs, **kwargs)
        except Exception as err:
            out.append(OracleViolation(
                "engine", f"{name}: sequential verify crashed: {err!r}"
            ))
            continue

        expected = spec.expected_verdicts.get(name)
        if expected is not None and reference.satisfied != expected:
            out.append(OracleViolation(
                "verdict",
                f"{name}: expected "
                f"{'SATISFIED' if expected else 'VIOLATED'}, "
                f"got {reference.verdict}"
            ))

        # engine differential: the per-valuation reference engine
        # (possibly hooked by a test) against the verifier
        try:
            seeded = verify_hook(comp, text, dbs, **kwargs)
        except Exception as err:
            out.append(OracleViolation(
                "engine-differential",
                f"{name}: seed engine crashed: {err!r}"
            ))
            seeded = None
        if seeded is not None:
            out.extend(OracleViolation("engine-differential", p)
                       for p in _compare_results(
                           reference, seeded, f"{name} seed-vs-shared"))

        # distribution: two local shards and a merged shard split
        try:
            pooled = verify(comp, text, dbs, workers=2, **kwargs)
        except Exception as err:
            out.append(OracleViolation(
                "workers", f"{name}: 2-worker sweep crashed: {err!r}"
            ))
            pooled = None
        if pooled is not None:
            out.extend(OracleViolation("workers", p)
                       for p in _compare_results(
                           reference, pooled, f"{name} workers=2"))

        try:
            fragments = []
            for index in range(2):
                shard_result = verify(
                    comp, text, dbs, shard=(index, 2), **kwargs
                )
                fragments.append(shard_fragment(
                    [shard_result], (index, 2), composition=comp
                ))
            merged = result_from_merged(
                merge_fragments(fragments)["properties"][0]
            )
        except Exception as err:
            out.append(OracleViolation(
                "shard", f"{name}: shard/merge crashed: {err!r}"
            ))
            merged = None
        if merged is not None:
            out.extend(OracleViolation("shard", p)
                       for p in _compare_results(
                           reference, merged, f"{name} merged 2 shards"))

        # replay: the counterexample must be a genuine lossy run
        if reference.counterexample is not None:
            problems = validate_lasso(
                comp, dbs, domain.values,
                reference.counterexample.lasso,
                semantics=spec.semantics,
            )
            if problems:
                out.append(OracleViolation(
                    "replay",
                    f"{name}: counterexample does not replay: "
                    f"{'; '.join(problems)}"
                ))
    return out


# -- the harness -------------------------------------------------------------


def run_case(spec: GeneratedSpec,
             verify_hook: VerifyHook = verify_seed) -> CaseOutcome:
    """Run one generated spec through the full oracle stack."""
    outcome = CaseOutcome(spec=spec)
    outcome.violations.extend(_classifier_oracle(spec))
    outcome.violations.extend(_roundtrip_oracle(spec))
    if spec.verifiable:
        outcome.violations.extend(_verify_oracles(spec, verify_hook))
        outcome.verified = True
    return outcome


def _still_fails(oracles: frozenset[str],
                 verify_hook: VerifyHook) -> Callable[[GeneratedSpec], bool]:
    """The shrinker predicate: some originally failing oracle still fails."""
    def predicate(candidate: GeneratedSpec) -> bool:
        outcome = run_case(candidate, verify_hook=verify_hook)
        return bool(outcome.oracles_failed() & oracles)
    return predicate


def minimize(outcome: CaseOutcome,
             verify_hook: VerifyHook = verify_seed) -> GeneratedSpec:
    """Shrink a failing case while its oracle violations persist."""
    return shrink(
        outcome.spec,
        _still_fails(outcome.oracles_failed(), verify_hook),
    )


def fuzz(count: int = 25,
         seed: int = 0,
         rows: Sequence[str] = ("3.4",),
         corpus_dir: str | Path | None = None,
         emit_dir: str | Path | None = None,
         verify_hook: VerifyHook = verify_seed,
         log: Callable[[str], None] | None = None) -> FuzzReport:
    """Run a fuzz campaign: *count* cases round-robin over *rows*.

    Case ``i`` uses the derived seed ``seed * 1_000_003 + i``, so a
    campaign is fully replayable from ``(seed, count, rows)`` and any
    single case from the seed recorded in its corpus header.  Failing
    cases are shrunk and persisted under *corpus_dir* (when given) as
    replayable ``.dws`` files; *emit_dir* (when given) receives *every*
    generated spec, passing or not -- the corpus ``repro lint --cache``
    runs over in CI.
    """
    report = FuzzReport(seed=seed, count=count, rows=tuple(rows))
    for i in range(count):
        row = report.rows[i % len(report.rows)]
        case_seed = seed * 1_000_003 + i
        spec = generate(case_seed, row)
        if emit_dir is not None:
            directory = Path(emit_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / (
                f"gen_seed{case_seed}_row{row.replace('.', '_')}.dws")
            path.write_text(spec.to_dws())
            report.emitted_files.append(str(path))
        outcome = run_case(spec, verify_hook=verify_hook)
        report.outcomes.append(outcome)
        if outcome.ok:
            continue
        if log:
            log(f"case {i} (seed {case_seed}, row {row}): "
                f"{len(outcome.violations)} violation(s); shrinking")
        minimized = minimize(outcome, verify_hook=verify_hook)
        if corpus_dir is not None:
            directory = Path(corpus_dir)
            directory.mkdir(parents=True, exist_ok=True)
            oracle = sorted(outcome.oracles_failed())[0]
            path = directory / (
                f"case_seed{case_seed}_row{row.replace('.', '_')}"
                f"_{oracle}.dws"
            )
            extra = "violations:\n" + "\n".join(
                f"  {v}" for v in outcome.violations
            )
            path.write_text(minimized.to_dws(extra_header=extra))
            report.corpus_files.append(str(path))
    return report
