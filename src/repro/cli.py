"""Command-line interface: verify textual specifications.

Usage::

    python -m repro verify SPEC.dws [--property NAME] [--perfect]
                           [--queue-bound K] [--fair] [--fresh N]
                           [--counterexample] [--workers N] [--stats]
                           [--lint-first] [--shard i/N]
                           [--shard-output FILE] [--metrics-json FILE]
    python -m repro check SPEC.dws            # input-boundedness only
    python -m repro lint SPEC.dws|LIBRARY [--format text|json|sarif]
                         [--output FILE] [--strict]
    python -m repro simulate SPEC.dws [--steps N] [--seed S]
    python -m repro profile SPEC.dws|LIBRARY [--workers N] ...
    python -m repro merge-shards shard_*.json [--output FILE]

``verify`` runs every ``property`` statement in the document (or just
``--property NAME``) and reports verdicts; the exit status is 0 iff all
checked properties are satisfied.  Properties with equal verification
domains walk one shared exploration.  ``--stats`` prints the full
per-property statistics (valuations, states, product nodes, rule-cache
hit rate).

``--shard i/N`` (on ``verify`` and ``profile``) runs only the i-th of
N deterministic slices of the valuation sweep and writes a mergeable
fragment (verdicts, per-valuation rows, metrics snapshot, pickled
counterexamples); run every shard on its own machine, collect the
fragments, and ``merge-shards`` reassembles the exact unsharded
verdict, decisive counterexample, and fleet-wide metrics (see
:mod:`repro.verifier.shards`).  A shard's own exit status reflects
only its slice; the merged exit status is the global verdict.
``--workers N`` (default 1; 0: every CPU this process may use) runs
the property batch as N such shards in forked children on this
machine and merges them the same way, so the output matches a
one-process run; each child explores the graph once.

``lint`` runs the full static analyzer (input-boundedness, dead and
shadowed rules, reachability, channel discipline, and the decidability
classifier; see :mod:`repro.analysis`) over a ``.dws`` document or a
library example and reports ``DWV***`` diagnostics as text, JSON, or
SARIF 2.1.0.  Exit status: 0 clean (notes/warnings allowed), 1 when
error-severity diagnostics exist (with ``--strict``: warnings too),
2 when the document cannot be parsed at all.  ``verify`` consults the
same classifier pre-flight and warns on stderr before searching an
undecidable configuration.

Every run command accepts ``--metrics-json FILE``: the process's
metrics registry snapshot (see :mod:`repro.obs`) plus per-result
statistics.  ``profile`` runs a verification and prints a per-phase
wall-time breakdown (with ``--workers N`` the children's phases are
added in), per-layer rates, and the expansions per distinct state (a
``warning:`` when a state was expanded more than once); its target is
either a ``.dws`` file or one of the built-in library examples
(``loan``, ``ecommerce``, ``travel``, ``payments``, ``dispatch``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path

from .errors import ReproError
from .ib import check_composition, summarize
from .obs import (
    REGISTRY, counters_snapshot, diff_numeric, phase_counts, phase_seconds,
)
from .obs.metrics import SCHEMA as METRICS_SCHEMA
from .runtime import simulate
from .spec import DECIDABLE_DEFAULT, ChannelSemantics
from .spec.dsl import load_document
from .verifier import (
    property_engines, resolve_workers, run_local_shards,
    verification_domain, verify,
)

#: Library examples profilable without a .dws file, set up as the E12
#: end-to-end benchmark sets them up: module name -> (arguments of its
#: ``standard_database``, property names -- ``p`` is the module's
#: ``PROPERTY_P`` -- and valuation candidates, None for the module's
#: ``STANDARD_CANDIDATES``).
_LIBRARIES = {
    "loan": (("fair",), ("bank_policy_pointwise",
                         "letter_needs_application"), None),
    "ecommerce": (("good",), ("ship_requires_auth", "no_ship_on_decline",
                              "auth_honest"),
                  {"p": ("widget",), "card": ("visa", "amex")}),
    "travel": ((), ("itinerary_confirmed", "offers_from_catalog"),
               {"f": ("fl1",), "d": ("rome",)}),
    "payments": ((), ("capture_cleared", "dispute_honest"), None),
    "dispatch": ((), ("offers_from_fleet", "take_needs_offer"), None),
}
PROFILE_LIBRARIES = tuple(_LIBRARIES)


def _parse_shard(text: str | None) -> tuple[int, int] | None:
    """Parse a ``--shard i/N`` selector (e.g. ``0/3``)."""
    if text is None:
        return None
    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise ReproError(
            f"--shard expects i/N (e.g. 0/3), got {text!r}"
        )
    index, count = int(match.group(1)), int(match.group(2))
    if count < 1 or index >= count:
        raise ReproError(
            f"--shard {text}: need 0 <= i < N"
        )
    return (index, count)


def _write_shard_fragment(args: argparse.Namespace,
                          shard: tuple[int, int],
                          results: list, composition) -> None:
    """Write this shard's verdict/stats fragment for ``merge-shards``."""
    from .verifier import shard_fragment

    index, count = shard
    path = args.shard_output or f"shard_{index}of{count}.json"
    fragment = shard_fragment(results, shard, composition)
    Path(path).write_text(json.dumps(fragment, indent=2) + "\n")
    print(f"shard {index}/{count}: fragment written to {path}",
          file=sys.stderr)


def _semantics(args: argparse.Namespace) -> ChannelSemantics:
    return ChannelSemantics(
        lossy=not args.perfect,
        queue_bound=args.queue_bound,
    )


def _load(path: str):
    text = Path(path).read_text()
    return load_document(text)


def _write_metrics_json(path: str | None, command: str,
                        results: list[dict]) -> None:
    """Write the metrics snapshot file for ``--metrics-json``.

    Schema (``repro.metrics/2``): the process registry snapshot
    (counters/gauges/histograms/phases, with every ``--workers`` child's
    snapshot folded in) plus one entry per verification result.
    """
    if not path:
        return
    payload = {
        "schema": METRICS_SCHEMA,
        "command": command,
        "registry": REGISTRY.snapshot(),
        "results": results,
    }
    Path(path).write_text(json.dumps(payload, indent=2, default=str) + "\n")


def _result_entry(name: str, result) -> dict:
    return {
        "property": name,
        "text": result.property_text,
        "verdict": result.verdict,
        "stats": result.stats.to_dict(),
    }


def _select_properties(args: argparse.Namespace, properties: dict
                       ) -> dict | None:
    if getattr(args, "property", None):
        missing = [n for n in args.property if n not in properties]
        if missing:
            print(f"unknown properties: {missing}; available: "
                  f"{sorted(properties)}", file=sys.stderr)
            return None
        return {n: properties[n] for n in args.property}
    return properties


def _sentences(composition, properties: dict) -> dict:
    """Parse every textual property of *properties* (name -> sentence)."""
    from .ltlfo.parser import parse_ltlfo
    return {
        name: (parse_ltlfo(prop, composition.schema)
               if isinstance(prop, str) else prop)
        for name, prop in properties.items()
    }


def _verify_each(args: argparse.Namespace, composition, sentences: dict,
                 databases, semantics: ChannelSemantics, fresh=None,
                 candidates=None):
    """Verify every property once, in name order: ``(name, domain, result)``.

    ``--fresh N`` (else *fresh*) fixes one domain for every property;
    without either each property gets its own.  Properties with equal
    domains walk one shared graph (:func:`repro.verifier.
    property_engines`), with one ``verify()`` call per property.
    ``--workers N`` runs that batch as N local shards
    (:func:`repro.verifier.run_local_shards`).
    """
    fresh = args.fresh if args.fresh is not None else fresh
    domain = (None if fresh is None else verification_domain(
        composition, [], databases, fresh_count=fresh))
    shard = _parse_shard(args.shard)
    names = sorted(sentences)
    plan = property_engines(
        composition, [sentences[name] for name in names], databases,
        semantics, domain,
    )

    def run(own_shard):
        for name, (own_domain, exploration) in zip(names, plan):
            yield verify(
                composition, sentences[name], databases,
                semantics=semantics, domain=own_domain,
                fair_scheduling=args.fair, exploration=exploration,
                shard=own_shard, valuation_candidates=candidates,
            )

    workers = resolve_workers(args.workers)
    results = (run(shard) if workers == 1 else run_local_shards(
        lambda own_shard: list(run(own_shard)), workers, shard))
    for name, (own_domain, _), result in zip(names, plan, results):
        yield name, own_domain, result


def _finish(args: argparse.Namespace, command: str, composition,
            runs: list) -> int:
    """Write the shard fragment and ``--metrics-json``; the exit status."""
    results = [result for _name, _domain, result in runs]
    shard = _parse_shard(args.shard)
    if shard is not None:
        _write_shard_fragment(args, shard, results, composition)
    _write_metrics_json(args.metrics_json, command, [
        _result_entry(name, result) for name, _domain, result in runs])
    return 0 if all(r.satisfied for r in results) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    text = Path(args.spec).read_text()
    composition, databases, properties = load_document(text)
    properties = _select_properties(args, properties)
    if properties is None:
        return 2
    if not properties:
        print("the document declares no properties "
              "(add 'property <name>: <LTL-FO>')", file=sys.stderr)
        return 2

    sentences = _sentences(composition, properties)

    # pre-flight: warn (never refuse) when the configuration falls on an
    # undecidable row of the paper's map -- the search stays sound for
    # bug finding, but exhausting it proves nothing in general.
    if args.lint_first:
        # full analyzer first, reusing what this command already built:
        # the structural pass re-reads the raw scan, every semantic pass
        # (and the decidability classifier) runs over the composition
        # and sentences parsed above -- nothing is constructed twice.
        from .analysis import (
            Severity, lint_composition, render_report,
            structural_diagnostics,
        )
        from .spec.dsl import scan_document
        report = lint_composition(composition, sentences,
                                  _semantics(args))
        report.diagnostics = (
            structural_diagnostics(scan_document(text))
            + report.diagnostics
        )
        if report.diagnostics:
            print(render_report(report.diagnostics), file=sys.stderr)
        if any(d.severity is Severity.ERROR for d in report.diagnostics):
            print("lint found errors; not verifying", file=sys.stderr)
            return 1
        classification = report.classifications["composition"]
    else:
        from .verifier import preflight
        classification = preflight(composition, list(sentences.values()),
                                   _semantics(args))
    if not classification.decidable:
        print(f"warning: {classification.describe()}\n"
              "warning: exhaustive search is not a proof here; "
              "run `repro lint` for details", file=sys.stderr)

    runs = []
    for run in _verify_each(args, composition, sentences, databases,
                            _semantics(args)):
        runs.append(run)
        name, _domain, result = run
        if args.stats:
            print(f"{name}:")
            for line in result.summary().splitlines():
                print(f"  {line}")
        else:
            print(f"{name}: {result.verdict}  "
                  f"(states={result.stats.system_states}, "
                  f"{result.stats.wall_seconds:.2f}s)")
        if args.counterexample and result.counterexample:
            print(result.counterexample.describe(composition))
    return _finish(args, "verify", composition, runs)


def cmd_check(args: argparse.Namespace) -> int:
    composition, _databases, _properties = _load(args.spec)
    violations = check_composition(composition)
    print(summarize(violations, composition))
    _write_metrics_json(args.metrics_json, "check", [{
        "spec": args.spec,
        "violations": [str(v) for v in violations],
    }])
    return 0 if not violations else 1


def _lint_one(target: str, semantics, cache):
    """Lint one target: ``(report, artifact_uri)``.

    *target* is a library example name or a ``.dws`` path; *cache* is a
    :class:`~repro.analysis.cache.LintCache` or None (cold run).
    """
    from .analysis import (
        lint_cached, lint_cached_composition, lint_composition, lint_text,
    )

    if target in PROFILE_LIBRARIES:
        composition, _databases, properties, _candidates = (
            _library_target(target)
        )
        if cache is not None:
            return (lint_cached_composition(
                composition, properties, semantics, cache=cache), None)
        return (lint_composition(composition,
                                 _sentences(composition, properties),
                                 semantics), None)
    if not Path(target).is_file():
        raise ReproError(
            f"lint target {target!r} is neither a spec file nor a "
            f"library example ({', '.join(PROFILE_LIBRARIES)})"
        )
    text = Path(target).read_text()
    if cache is not None:
        return lint_cached(text, semantics=semantics, cache=cache), target
    return lint_text(text, semantics=semantics), target


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        LintCache, count_by_severity, render_github, render_report,
        sarif_document, to_json, Severity,
    )

    targets = list(args.spec)
    semantics = _semantics(args)
    cache = LintCache(args.cache_dir) if args.cache else None

    entries = []           # (target, report, artifact_uri)
    statuses: list[int] = []
    metrics = []
    for target in targets:
        try:
            report, artifact = _lint_one(target, semantics, cache)
        except ReproError as err:
            if len(targets) == 1:
                raise
            print(f"repro lint: {target}: {err}", file=sys.stderr)
            statuses.append(2)
            continue
        entries.append((target, report, artifact))
        metrics.append({
            "target": target, "counts": count_by_severity(report.diagnostics),
            "codes": report.codes(), "passes": report.passes_run,
        })
        failing = report.has_errors or (
            args.strict and any(d.severity is Severity.WARNING
                                for d in report.diagnostics)
        )
        statuses.append(1 if failing else 0)

    def text_section(target, report):
        counts = count_by_severity(report.diagnostics)
        classifications = {
            name: c.describe()
            for name, c in report.classifications.items()
        }
        lines = [render_report(report.diagnostics)]
        lines.append(
            f"{counts['error']} error(s), {counts['warning']} "
            f"warning(s), {counts['note']} note(s) "
            f"[passes: {', '.join(report.passes_run)}]"
        )
        for name, described in sorted(classifications.items()):
            lines.append(f"{name}: {described}")
        return "\n".join(lines)

    def json_payload(target, report):
        classifications = {
            name: c.describe()
            for name, c in report.classifications.items()
        }
        return to_json(report.diagnostics, extra={
            "target": target,
            "passes": report.passes_run,
            "classifications": classifications,
        })

    if args.format == "sarif":
        rendered = sarif_document(
            [(report.diagnostics, artifact)
             for _target, report, artifact in entries])
    elif args.format == "json":
        if len(targets) == 1 and entries:
            rendered = json_payload(*entries[0][:2])
        else:
            rendered = json.dumps({
                "schema": "repro.lint/1",
                "targets": [json.loads(json_payload(target, report))
                            for target, report, _artifact in entries],
            }, indent=2)
    elif args.format == "github":
        rendered = "\n".join(
            part for part in
            (render_github(report.diagnostics)
             for _target, report, _artifact in entries)
            if part
        )
    else:
        sections = []
        for target, report, _artifact in entries:
            body = text_section(target, report)
            if len(targets) > 1:
                body = f"== {target} ==\n{body}"
            sections.append(body)
        rendered = "\n\n".join(sections)

    if args.output:
        Path(args.output).write_text(rendered + "\n")
    else:
        print(rendered)
    if cache is not None:
        print(cache.stats_line(), file=sys.stderr)

    _write_metrics_json(args.metrics_json, "lint", metrics)
    return max(statuses, default=0)


def cmd_simulate(args: argparse.Namespace) -> int:
    composition, databases, _properties = _load(args.spec)
    domain = verification_domain(composition, [], databases,
                                 fresh_count=args.fresh or 1)
    trace = simulate(composition, databases, domain.values,
                     steps=args.steps, seed=args.seed,
                     semantics=_semantics(args))
    for idx, state in enumerate(trace):
        events = ""
        if state.enqueued:
            events = f"  enqueued={sorted(state.enqueued)}"
        print(f"step {idx:3d}: mover={state.mover or '-':8s}{events}")
    _write_metrics_json(args.metrics_json, "simulate", [{
        "spec": args.spec, "steps": args.steps, "seed": args.seed,
    }])
    return 0


# ---------------------------------------------------------------------------
# profile


def _library_target(name: str):
    """(composition, databases, properties, candidates) for a library."""
    if name not in _LIBRARIES:
        raise ReproError(f"unknown profile library {name!r}; "
                         f"available: {', '.join(PROFILE_LIBRARIES)}")
    module = importlib.import_module(f"{__package__}.library.{name}")
    db_args, names, candidates = _LIBRARIES[name]
    return (
        getattr(module, f"{name}_composition")(),
        module.standard_database(*db_args),
        {prop: getattr(module, f"PROPERTY_{prop.upper()}")
         for prop in names},
        module.STANDARD_CANDIDATES if candidates is None else candidates,
    )


#: Row order of the profile breakdown table (pipeline order).
_PHASE_ORDER = (
    "ib-check", "valuations", "translate", "search", "expand",
    "rule-fire", "fo-eval", "sweep",
)


def _layer_rates(results: list, counters: dict) -> list[str]:
    """The per-layer rates: ``expand`` time per expansion, ``search`` time
    per product node searched, over every result's phases (workers
    included).

    Nodes searched come from the run's registry delta *counters*
    (``search.blue_visited`` + ``search.red_visited``, children folded
    in), not from ``product_nodes_visited``, which charges every
    valuation its letter class's search whether or not it ran.
    """
    seconds: Counter = Counter()
    counts: Counter = Counter()
    for r in results:
        seconds.update(r.stats.phase_seconds)
        counts.update(r.stats.phase_counts)
    nodes = (counters.get("search.blue_visited", 0)
             + counters.get("search.red_visited", 0))
    rates = []
    if counts["expand"]:
        rates.append(f"  expand rate: "
                     f"{1e6 * seconds['expand'] / counts['expand']:.1f} us "
                     f"per expansion ({counts['expand']} expansions)")
    if nodes:
        rates.append(f"  search rate: {1e9 * seconds['search'] / nodes:.0f}"
                     f" ns per product node ({nodes} nodes)")
    return rates


def _phase_rows(seconds: dict, counts: dict, total: float) -> list[str]:
    """Render per-phase rows plus an ``(other)`` remainder row.

    ``seconds`` are exclusive self-times (see :mod:`repro.obs.phases`),
    so the rows -- including the uninstrumented remainder -- sum to
    *total*.
    """
    names = [n for n in _PHASE_ORDER if n in seconds]
    names += sorted(set(seconds) - set(names))
    rows = []
    accounted = 0.0
    for name in names:
        sec = seconds[name]
        accounted += sec
        share = 100.0 * sec / total if total > 0 else 0.0
        rows.append(f"  {name:12s} {counts.get(name, 0):>8d} "
                    f"{sec:>10.3f}s {share:>6.1f}%")
    other = max(0.0, total - accounted)
    share = 100.0 * other / total if total > 0 else 0.0
    rows.append(f"  {'(other)':12s} {'-':>8s} {other:>10.3f}s "
                f"{share:>6.1f}%")
    return rows


def cmd_profile(args: argparse.Namespace) -> int:
    target = args.spec
    if target not in PROFILE_LIBRARIES and not Path(target).is_file():
        raise ReproError(
            f"profile target {target!r} is neither a spec file nor a "
            f"library example ({', '.join(PROFILE_LIBRARIES)})"
        )
    if target in PROFILE_LIBRARIES:
        composition, databases, properties, candidates = (
            _library_target(target)
        )
        semantics, fresh = DECIDABLE_DEFAULT, 1  # library defaults
    else:
        composition, databases, properties = _load(target)
        semantics, fresh, candidates = _semantics(args), None, None
    properties = _select_properties(args, properties)
    if properties is None:
        return 2
    if not properties:
        print("nothing to profile: no properties declared",
              file=sys.stderr)
        return 2

    seconds_before = phase_seconds()
    counts_before = phase_counts()
    counters_before = counters_snapshot()
    t0 = time.perf_counter()
    runs = []
    for run in _verify_each(args, composition,
                            _sentences(composition, properties),
                            databases, semantics, fresh, candidates):
        runs.append(run)
        name, _domain, result = run
        print(f"{name}: {result.verdict}  "
              f"(valuations={result.stats.valuations_checked}, "
              f"classes={result.stats.valuation_classes}, "
              f"states={result.stats.system_states}, "
              f"product nodes={result.stats.product_nodes_visited}, "
              f"{result.stats.wall_seconds:.3f}s)")
    wall = time.perf_counter() - t0
    driver_seconds = diff_numeric(phase_seconds(), seconds_before)
    driver_counts = diff_numeric(phase_counts(), counts_before)

    results = [result for _name, _domain, result in runs]
    workers = max(r.stats.workers for r in results)
    print(f"\nprofile: {target} ({len(results)} properties, "
          f"workers={workers})")
    print(f"  {'phase':12s} {'count':>8s} {'seconds':>11s} {'%':>6s}")
    for row in _phase_rows(driver_seconds, driver_counts, wall):
        print(row)
    print(f"  {'total (wall)':12s} {'':>8s} {wall:>10.3f}s {100.0:>6.1f}%")

    counters = diff_numeric(counters_snapshot(), counters_before)
    for line in _layer_rates(results, counters):
        print(line)

    compute = sum(r.stats.task_seconds + r.stats.cancelled_task_seconds
                  for r in results)
    if compute:
        print(f"  sweep compute: {compute:.3f}s across tasks "
              f"(parallelism {compute / wall:.2f}x)")

    cache = Counter()
    for r in results:
        cache.update(r.stats.rule_cache)
    lookups = cache["hits"] + cache["misses"]
    if lookups:
        print(f"  rule cache: {cache['hits']} hits / {cache['misses']} "
              f"misses ({100.0 * cache['hits'] / lookups:.1f}% hit rate)")
    memo_hits = counters.get("graph.successor_memo_hits", 0)
    memo_rows = memo_hits + counters.get("graph.successor_memo_misses", 0)
    if memo_rows:
        print(f"  successor memo: {memo_hits} hits / "
              f"{memo_rows - memo_hits} misses "
              f"({100.0 * memo_hits / memo_rows:.1f}% of rows)")
        # every memo row is one interned state expanded; a state is
        # decoded only to fire rules or evaluate a formula
        print(f"  decoded states: "
              f"{counters.get('graph.states_decoded', 0)} of {memo_rows} "
              f"interned")

    # distinct states: the largest exploration of each domain
    distinct: dict = {}
    for _name, own_domain, result in runs:
        distinct[own_domain] = max(distinct.get(own_domain, 0),
                                   result.stats.system_states)
    expansions, states = driver_counts.get("expand", 0), sum(
        distinct.values())
    if states:
        print(f"  expansions: {expansions} of {states} distinct states "
              f"({expansions / states:.2f} per state)")
        if expansions > states:
            print(f"warning: states were expanded "
                  f"{expansions / states:.2f} times each; each of the "
                  f"{workers} local shards (--workers) explores the "
                  "graph on its own", file=sys.stderr)

    return _finish(args, "profile", composition, runs)


# ---------------------------------------------------------------------------
# fuzz


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import THEOREM_ROWS, fuzz

    rows = tuple(args.row) if args.row else ("3.4",)
    unknown = [r for r in rows if r not in THEOREM_ROWS]
    if unknown:
        raise ReproError(
            f"unknown theorem row(s) {unknown}; "
            f"available: {', '.join(sorted(THEOREM_ROWS))}"
        )
    if args.count < 1:
        raise ReproError("--count must be >= 1")
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("REPRO_SEED", "0").strip() or "0")

    report = fuzz(
        count=args.count, seed=seed, rows=rows,
        corpus_dir=args.corpus,
        emit_dir=args.emit_corpus,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    print(report.summary())
    _write_metrics_json(args.metrics_json, "fuzz", [{
        "seed": report.seed, "count": report.count,
        "rows": list(report.rows),
        "violations": [
            {"seed": o.spec.seed, "row": o.spec.row,
             "oracles": sorted(o.oracles_failed()),
             "details": [str(v) for v in o.violations]}
            for o in report.failures
        ],
        "corpus_files": report.corpus_files,
        "emitted_files": report.emitted_files,
    }])
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# merge-shards


def cmd_merge_shards(args: argparse.Namespace) -> int:
    from .obs import merge_registry_snapshot
    from .verifier import merge_fragments

    fragments = []
    for path in args.fragments:
        try:
            fragment = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise ReproError(f"cannot read fragment {path}: {err}")
        if not isinstance(fragment, dict):
            raise ReproError(
                f"fragment {path} is not a shard fragment object "
                f"(got JSON {type(fragment).__name__})"
            )
        fragments.append(fragment)
    if not fragments:
        raise ReproError("no shard fragments to merge")
    try:
        merged = merge_fragments(fragments)
    except ValueError as err:
        raise ReproError(str(err))
    except KeyError as err:
        raise ReproError(f"malformed shard fragment: no key {err}")
    except TypeError as err:
        raise ReproError(f"malformed shard fragment: {err}")

    # fold the merged registry into this process so --metrics-json (and
    # anything else reading REGISTRY) reports fleet-wide totals
    merge_registry_snapshot(merged["metrics"])

    # fragments are files from elsewhere: read the merged entries as
    # JSON, never unpickle their counterexamples
    all_ok = True
    entries: list[dict] = []
    for entry in merged["properties"]:
        stats = entry["stats"]
        where = ""
        if entry["decisive_shard"] is not None:
            where = (f", decisive: order {entry['decisive_order']} "
                     f"in shard {entry['decisive_shard']}")
        print(f"{entry['property']}: {entry['verdict']}  "
              f"(valuations={stats['valuations_checked']}, "
              f"states={stats['system_states']}, "
              f"product nodes={stats['product_nodes_visited']}{where})")
        if not entry["satisfied"]:
            all_ok = False
            if args.counterexample and entry["counterexample"]:
                print(entry["counterexample"]["text"])
        entries.append({
            "property": entry["property"],
            "verdict": entry["verdict"],
            "stats": dict(entry["stats"],
                          decisive_order=entry["decisive_order"]),
        })
    if args.output:
        Path(args.output).write_text(json.dumps(merged, indent=2) + "\n")
        print(f"merged document written to {args.output}",
              file=sys.stderr)
    _write_metrics_json(args.metrics_json, "merge-shards", entries)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_obs_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics-json", metavar="FILE", default=None,
                   dest="metrics_json",
                   help="write a metrics snapshot as JSON")


def _add_shard_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shard", metavar="i/N", default=None,
                   help="run only the i-th of N deterministic shards "
                        "of the valuation sweep and write a mergeable "
                        "fragment (see `repro merge-shards`)")
    p.add_argument("--shard-output", metavar="FILE", default=None,
                   dest="shard_output",
                   help="fragment path (default: shard_{i}of{N}.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verify communicating data-driven web services "
                    "(PODS 2006 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser,
               spec_help: str = "path to a .dws specification") -> None:
        p.add_argument("spec", help=spec_help)
        p.add_argument("--perfect", action="store_true",
                       help="perfect channels (default: lossy)")
        p.add_argument("--queue-bound", type=int, default=1,
                       help="queue capacity k (default 1)")
        p.add_argument("--fresh", type=int, default=None,
                       help="override the number of fresh domain values")
        _add_obs_options(p)

    p_verify = sub.add_parser("verify", help="verify the document's "
                                             "properties")
    common(p_verify)
    p_verify.add_argument("--property", action="append",
                          help="check only this property (repeatable)")
    p_verify.add_argument("--fair", action="store_true",
                          help="restrict to fair scheduling")
    p_verify.add_argument("--counterexample", action="store_true",
                          help="print counterexample runs")
    p_verify.add_argument("--workers", type=int, default=None,
                          help="run the sweep as N local shards in "
                               "forked children (0: every usable CPU; "
                               "default: 1, in process)")
    p_verify.add_argument("--stats", action="store_true",
                          help="print full per-property statistics")
    p_verify.add_argument("--lint-first", action="store_true",
                          dest="lint_first",
                          help="run the full static analyzer before "
                               "verifying (reusing the parsed spec); "
                               "refuse to verify on lint errors")
    _add_shard_options(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("check", help="input-boundedness check only")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_lint = sub.add_parser(
        "lint",
        help="run the static analyzer and decidability classifier",
    )
    # like common(), but lint accepts several targets in one run
    p_lint.add_argument("spec", nargs="+",
                        help="paths to .dws specifications, or library "
                             f"examples ({', '.join(PROFILE_LIBRARIES)})")
    p_lint.add_argument("--perfect", action="store_true",
                        help="perfect channels (default: lossy)")
    p_lint.add_argument("--queue-bound", type=int, default=1,
                        help="queue capacity k (default 1)")
    p_lint.add_argument("--fresh", type=int, default=None,
                        help="override the number of fresh domain values")
    _add_obs_options(p_lint)
    p_lint.add_argument("--format",
                        choices=("text", "json", "sarif", "github"),
                        default="text",
                        help="report format (default: text); 'github' "
                             "emits Actions ::warning/::error annotations")
    p_lint.add_argument("--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    p_lint.add_argument("--strict", action="store_true",
                        help="exit 1 on warnings too, not just errors")
    p_lint.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="serve unchanged documents/peers from the "
                             "content-addressed lint cache")
    p_lint.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache root (default: $REPRO_LINT_CACHE_DIR, "
                             "or ~/.cache/repro/lint)")
    p_lint.set_defaults(func=cmd_lint)

    p_sim = sub.add_parser("simulate", help="print one random run")
    common(p_sim)
    p_sim.add_argument("--steps", type=int, default=25)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate)

    p_prof = sub.add_parser(
        "profile",
        help="verify and print a per-phase time/node breakdown",
    )
    common(p_prof,
           spec_help="path to a .dws specification, or a library "
                     f"example ({', '.join(PROFILE_LIBRARIES)})")
    p_prof.add_argument("--property", action="append",
                        help="profile only this property (repeatable)")
    p_prof.add_argument("--fair", action="store_true",
                        help="restrict to fair scheduling")
    p_prof.add_argument("--workers", type=int, default=None,
                        help="run the sweep as N local shards "
                             "(see `repro verify`)")
    _add_shard_options(p_prof)
    p_prof.set_defaults(func=cmd_profile)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="generate random specs along the decidability frontier "
             "and run them through the differential oracle stack",
    )
    p_fuzz.add_argument("--count", type=int, default=25,
                        help="number of generated cases (default 25)")
    p_fuzz.add_argument("--seed", type=int, default=None,
                        help="campaign seed; case i derives its own "
                             "seed from it (default: the REPRO_SEED "
                             "env var, else 0)")
    p_fuzz.add_argument("--row", action="append", metavar="ROW",
                        help="theorem row to target, e.g. 3.4 or 3.9 "
                             "(repeatable; cases round-robin over the "
                             "rows; default: 3.4)")
    p_fuzz.add_argument("--corpus", metavar="DIR", default=None,
                        help="persist minimized failing cases as "
                             "replayable .dws files under DIR")
    p_fuzz.add_argument("--emit-corpus", metavar="DIR", default=None,
                        dest="emit_corpus",
                        help="write every generated spec (passing or "
                             "not) as a .dws file under DIR, e.g. to "
                             "lint the corpus afterwards")
    _add_obs_options(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_merge = sub.add_parser(
        "merge-shards",
        help="reassemble the global verdict from --shard fragments",
    )
    p_merge.add_argument("fragments", nargs="+",
                         help="the N fragment files written by "
                              "`repro verify --shard i/N`")
    p_merge.add_argument("--counterexample", action="store_true",
                         help="print the decisive counterexample runs")
    p_merge.add_argument("--output", metavar="FILE", default=None,
                         help="write the merged document as JSON")
    _add_obs_options(p_merge)
    p_merge.set_defaults(func=cmd_merge_shards)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
