"""The LTL-FO verifier (the decision procedure behind Theorem 3.4).

``verify(composition, property, databases, ...)`` decides whether every
run of the composition over the given databases satisfies the LTL-FO
sentence, by exhaustive search over the bounded verification domain:

1. The property's universal closure is expanded into finitely many
   valuations over the verification domain (canonicalized up to
   fresh-value symmetry).
2. For each valuation, the negated instantiated body -- conjoined with
   ``F occurs(v)`` for each fresh value used, implementing the ``Dom(rho)``
   restriction of the closure semantics -- is translated to a Büchi
   automaton (GPVW).
3. The on-the-fly product with the composition's snapshot graph is
   searched for an accepting lasso (nested DFS).  A lasso is a genuine
   infinite counterexample run; none anywhere means the property holds
   over the explored domain.

Completeness beyond the fixed databases follows the bounded-domain
principle: callers either supply the databases of interest or enumerate
small databases via :func:`repro.verifier.domain.enumerate_databases`.

Each valuation is an independent search over one valuation-independent
graph, so a sweep splits by the valuations' global order: ``shard=(i,
N)`` checks the orders with ``order % N == i``, and ``workers=N`` runs
the property batch as N such shards in forked children
(:func:`run_local_shards`), merged with the routine ``repro
merge-shards`` uses for shards run on different machines
(:mod:`repro.verifier.shards`).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..errors import InputBoundednessError, VerificationError
from ..fo.instance import Instance
from ..fo.terms import Value, Var, value_sort_key
from ..ib.checker import check_composition, check_sentence
from ..ltl.formulas import land, latom, lfinally, lglobally, lnot
from ..ltl.translate import ltl_to_buchi
from ..ltlfo.formulas import LTLFOSentence
from ..ltlfo.parser import parse_ltlfo
from ..obs import (
    PHASE_SWEEP, diff_numeric, ledger, merge_registry_snapshot, phase,
    phase_counts, phase_seconds, reset_for_worker, sweep_progress,
)
from ..runtime.run import Lasso
from ..runtime.step import rule_cache_delta, rule_cache_info
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .atoms import InternedSnapshotEvaluator, OccursAtom, SnapshotEvaluator
from .domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from .graph import InternedProduct, SharedExploration, resolve_engine
from .product import ProductSystem, SearchBudget, TransitionCache
from .result import (
    Counterexample, Stopwatch, TaskStats, VerificationResult,
    VerifierStats,
)
from .search import find_accepting_lasso
from .shards import merge_fragments, result_from_merged, shard_fragment


def _as_sentence(prop: LTLFOSentence | str,
                 composition: Composition) -> LTLFOSentence:
    if isinstance(prop, str):
        return parse_ltlfo(prop, composition.schema)
    return prop


def _candidate_valuations(sentence: LTLFOSentence,
                          domain: VerificationDomain,
                          candidates: Mapping[str, Sequence[Value]] | None
                          ) -> list[dict]:
    """The sentence's canonical valuations, restricted to *candidates*."""
    valuations = canonical_valuations(sentence.variables, domain)
    if not candidates:
        return valuations
    return [
        v for v in valuations
        if all(var.name not in candidates or v[var] in candidates[var.name]
               for var in sentence.variables)
    ]


def _check_restrictions(composition: Composition,
                        sentence: LTLFOSentence,
                        enforce: bool) -> None:
    if not enforce:
        return
    violations = check_composition(composition)
    violations += check_sentence(sentence, composition.schema)
    if violations:
        lines = "\n".join(str(v) for v in violations)
        raise InputBoundednessError(
            "verification requires input-bounded specifications "
            f"(Theorem 3.4); violations:\n{lines}\n"
            "Pass check_input_bounded=False to search anyway "
            "(sound for bug finding over the bounded domain).",
            tuple(violations),
        )


def preflight(composition: Composition,
              props: Sequence[LTLFOSentence | str] = (),
              semantics: ChannelSemantics = DECIDABLE_DEFAULT):
    """Classify the configuration before searching (``repro lint`` pass 5).

    Returns a :class:`repro.analysis.decidability.Classification` naming
    the paper theorem that applies: decidable rows carry the complexity
    class, undecidable rows the violated restriction.  ``verify`` itself
    stays unchanged -- the search is sound for bug finding either way --
    but callers (the CLI does this) can warn or refuse up front.
    """
    from ..analysis.decidability import classify

    sentences = [_as_sentence(p, composition) for p in props]
    return classify(composition, sentences, semantics)


# ---------------------------------------------------------------------------
# workers and shards


def resolve_workers(workers: int | None) -> int:
    """Normalize ``workers=``: None -> 1, <= 0 -> every usable CPU.

    "Usable" means this process's CPU affinity (taskset, cgroup
    cpusets), not the host's CPU count.
    """
    if workers is None:
        return 1
    if workers <= 0:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            return os.cpu_count() or 1
    return workers


def resolve_shard(shard: tuple[int, int] | None) -> tuple[int, int] | None:
    """Validate a ``shard=(i, N)`` argument (None passes through)."""
    if shard is None:
        return None
    index, count = shard
    if count < 1 or not (0 <= index < count):
        raise ValueError(
            f"shard index/count {index}/{count} invalid: need "
            "0 <= index < count"
        )
    return (int(index), int(count))


def shard_filter(valuations: Sequence, shard: tuple[int, int] | None
                 ) -> list[tuple[int, object]]:
    """``(order, valuation)`` for the valuations *shard* owns.

    Orders stay global.  Partitioning is round-robin on the sweep order
    (``order % N == i``): deterministic, balanced even when early orders
    are systematically cheaper, and a partition, so N merged shards
    check exactly the unsharded valuations, each once.
    """
    ordered = list(enumerate(valuations))
    shard = resolve_shard(shard)
    if shard is None:
        return ordered
    index, count = shard
    return ordered[index::count]


def local_shards(shard: tuple[int, int] | None,
                 workers: int) -> list[tuple[int, int]]:
    """The global shards that *workers* local shards of *shard* run.

    Local shard j of ``(i, M)`` is ``(i + M*j, M*N)``: the N residue
    classes that partition ``(i, M)``'s orders, so a ``--shard i/M``
    fragment has the same orders at any worker count.  Without a
    shard, local shard j is ``(j, N)``.
    """
    index, count = shard if shard is not None else (0, 1)
    return [(index + count * j, count * workers) for j in range(workers)]


# ---------------------------------------------------------------------------
# one valuation


@dataclass(frozen=True)
class ValuationOutcome:
    """Result of checking one valuation: lasso (if violated) + counters."""

    lasso_prefix: tuple | None
    lasso_cycle: tuple | None
    nba_states: int
    blue_visited: int
    red_visited: int

    @property
    def violated(self) -> bool:
        return self.lasso_cycle is not None


def fairness_terms(composition: Composition) -> list:
    """``/\\ GF move_W`` conjuncts restricting to fair runs."""
    from ..fo.formulas import Atom
    from ..fo.schema import move_name
    return [
        lglobally(lfinally(latom(Atom(move_name(p.name), ()))))
        for p in composition.peers
    ]


def check_one_valuation(composition: Composition,
                        sentence: LTLFOSentence,
                        valuation: Mapping[Var, Value],
                        domain: VerificationDomain,
                        cache: TransitionCache | None,
                        fair_scheduling: bool = False,
                        engine: SharedExploration | None = None
                        ) -> ValuationOutcome:
    """Translate + search one valuation of the closure variables.

    The per-valuation unit of work of :func:`verify`: instantiate the
    sentence, negate, conjoin the ``Dom(rho)`` ``F occurs(v)``
    restrictions (and fairness terms if requested), translate to a
    Büchi automaton, and search the on-the-fly product for an
    accepting lasso.

    With ``engine`` (a :class:`~repro.verifier.graph.SharedExploration`)
    the product runs over interned state ids and the exploration's
    shared snapshot/letter caches; lasso nodes are mapped back to
    snapshots before returning, so the outcome is indistinguishable
    from the seed path.
    """
    body = sentence.instantiate(valuation)
    negated = lnot(body)
    # Dom(rho) restriction: fresh valuation values must occur.  Sorted
    # so the conjunct order (hence the GPVW translation) is identical
    # across processes regardless of hash randomization.
    occurs_terms = [
        lfinally(latom(OccursAtom(v)))
        for v in sorted(set(valuation.values()), key=value_sort_key)
        if v not in domain.constants
    ]
    extra = fairness_terms(composition) if fair_scheduling else []
    nba = ltl_to_buchi(land(negated, *occurs_terms, *extra))
    if engine is not None:
        evaluator = InternedSnapshotEvaluator(
            composition, domain.values, nba.aps, engine.shared
        )
        product = InternedProduct(engine, nba, evaluator)
    else:
        assert cache is not None
        evaluator = SnapshotEvaluator(composition, domain.values, nba.aps)
        product = ProductSystem(cache, nba, evaluator)
    lasso_nodes, search_stats = find_accepting_lasso(product)
    if lasso_nodes is None:
        return ValuationOutcome(None, None, nba.num_states(),
                                search_stats.blue_visited,
                                search_stats.red_visited)
    if engine is not None:
        state_of = engine.interner.state_of
        prefix = tuple(state_of(n[0]) for n in lasso_nodes.prefix)
        cycle = tuple(state_of(n[0]) for n in lasso_nodes.cycle)
    else:
        prefix = tuple(n[0] for n in lasso_nodes.prefix)
        cycle = tuple(n[0] for n in lasso_nodes.cycle)
    return ValuationOutcome(prefix, cycle, nba.num_states(),
                            search_stats.blue_visited,
                            search_stats.red_visited)


# ---------------------------------------------------------------------------
# local shards: workers=N as N forked children


#: The batch a forked child runs and the shared pid table, installed in
#: the child by the pool initializer (:func:`_adopt_batch`); under the
#: fork start method they reach it without being pickled.
_SHARD_JOB: Callable | None = None
_SHARD_PIDS = None


def _adopt_batch(run: Callable, pids) -> None:
    """Pool initializer, in each forked child."""
    global _SHARD_JOB, _SHARD_PIDS
    _SHARD_JOB, _SHARD_PIDS = run, pids


def _run_shard(shard: tuple[int, int]) -> list[VerificationResult]:
    """The whole batch over one global shard, in process (in a child)."""
    return _SHARD_JOB(shard)


def _shard_child(slot: int, shard: tuple[int, int]) -> dict:
    """A forked child: run local shard *slot*, return its fragment.

    The child starts a fresh registry, so the fragment's metrics are
    its own work, and joins the parent's run as worker *slot*.
    """
    _SHARD_PIDS[slot] = os.getpid()
    reset_for_worker()
    run = ledger.current_run()
    if run is not None:
        ledger.begin_run(run.run_id, role="worker", worker=slot,
                         shard=run.shard)
    return shard_fragment(_run_shard(shard), shard)


def _dead_child(children: Mapping | None, pids,
                shards: Sequence[tuple[int, int]]) -> str:
    """Name the shard whose child died, with its exit code."""
    codes = {pid: proc.exitcode for pid, proc in (children or {}).items()}
    for slot, (index, count) in enumerate(shards):
        code = codes.get(pids[slot])
        if code not in (None, 0, -signal.SIGTERM):
            return (f"the child running shard {index}/{count} died with "
                    f"exit code {code}")
    return f"a shard child died (exit codes {sorted(codes.values(), key=str)})"


def run_local_shards(run: Callable[[tuple[int, int]],
                                   list[VerificationResult]],
                     workers: int,
                     shard: tuple[int, int] | None = None
                     ) -> list[VerificationResult]:
    """Run a property batch as *workers* local shards in forked children.

    ``run(shard)`` verifies the whole batch over one global shard in
    process and returns one result per property.  Child j runs local
    shard j of *shard* (:func:`local_shards`) and returns a shard
    fragment.  The fragments merge as ``repro merge-shards`` merges
    them -- the lowest decisive order wins and the headline counts are
    recounted up to it -- so verdicts, decisive valuations, lassos and
    node counts equal a one-process run's.  Every child's metrics fold
    into this process's registry and its phases into the results;
    ``wall_seconds`` is this call's elapsed time and ``per_task`` holds
    the children's per-valuation rows.  A child that dies raises
    :class:`VerificationError` naming its shard and exit code.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    shards = local_shards(resolve_shard(shard), workers)
    fork = multiprocessing.get_context("fork")
    pids = fork.RawArray("q", workers)
    progress = sweep_progress(workers)
    t0 = time.perf_counter()
    try:
        with phase(PHASE_SWEEP):
            with ProcessPoolExecutor(workers, mp_context=fork,
                                     initializer=_adopt_batch,
                                     initargs=(run, pids)) as pool:
                futures = [pool.submit(_shard_child, slot, s)
                           for slot, s in enumerate(shards)]
                # the pool's pid -> process table (a private attribute),
                # kept past shutdown to name a dead child's exit code
                children = getattr(pool, "_processes", None)
                for _done in as_completed(futures):
                    progress.advance(1)
            try:
                fragments = [future.result() for future in futures]
            except BrokenProcessPool:
                raise VerificationError(
                    _dead_child(children, pids, shards)) from None
    finally:
        progress.finish()
    # the merge validates a complete 0..N-1 set; orders stay global
    for slot, fragment in enumerate(fragments):
        fragment["shard"] = {"index": slot, "count": workers}
    merged = merge_fragments(fragments)
    merge_registry_snapshot(merged["metrics"])
    wall = time.perf_counter() - t0
    results = []
    for p, entry in enumerate(merged["properties"]):
        result = result_from_merged(entry)
        result.stats.wall_seconds = wall
        result.stats.workers = workers
        result.stats.per_task = sorted(
            (TaskStats(**row) for fragment in fragments
             for row in fragment["properties"][p]["stats"]["per_task"]),
            key=lambda task: task.order,
        )
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# entry points


def verify(composition: Composition,
           prop: LTLFOSentence | str,
           databases: Mapping[str, Instance],
           semantics: ChannelSemantics = DECIDABLE_DEFAULT,
           domain: VerificationDomain | None = None,
           check_input_bounded: bool = True,
           budget: SearchBudget | None = None,
           include_environment: bool = True,
           transition_cache: TransitionCache | None = None,
           valuation_candidates: Mapping[str, Sequence[Value]] | None = None,
           env_value_domain: Sequence[Value] | None = None,
           env_one_action_per_move: bool = True,
           fair_scheduling: bool = False,
           workers: int | None = None,
           engine: str | SharedExploration | None = None,
           shard: tuple[int, int] | None = None,
           ) -> VerificationResult:
    """Decide ``composition |= prop`` over the given databases.

    Arguments
    ---------
    composition:
        A (normally closed) composition.  Open compositions are verified
        against an unconstrained environment (every environment behaviour
        over the domain is explored) unless ``include_environment=False``.
    prop:
        An :class:`LTLFOSentence` or its textual form.
    databases:
        Per-peer database instances (peer name -> :class:`Instance` over
        the peer's database schema).
    semantics:
        Channel semantics; must have bounded queues.
    domain:
        Verification domain override; defaults to the computed
        bounded-domain estimate.
    check_input_bounded:
        Enforce the Theorem 3.4 restrictions before searching.
    transition_cache:
        Share one :class:`TransitionCache` across several properties of
        the same composition/databases/semantics (a large saving when
        checking property batches).
    valuation_candidates:
        Optional per-closure-variable value restriction (variable name ->
        values).  Restricting a variable makes the check complete only
        for valuations within the candidates -- use it when a variable's
        role (e.g. "a customer id") makes other values irrelevant.
    fair_scheduling:
        Restrict counterexamples to *fair* runs, in which every peer
        moves infinitely often (``/\\ GF move_W``).  The paper's
        serialized-run semantics allows a peer to idle forever, which
        trivially defeats most liveness properties; fairness is the
        standard remedy (a library extension -- the paper does not
        discuss fairness).
    workers:
        Run the sweep as this many local shards in forked children
        (``None``: 1, in process; ``0``: every CPU this process may
        use), merged as ``repro merge-shards`` merges fragments (see
        :func:`run_local_shards`).  Verdicts, counterexamples and node
        counts are identical to the in-process sweep.  Each child walks
        its own copy of the exploration, so a caller-supplied
        ``transition_cache`` or :class:`SharedExploration` is not
        filled in by the children.
    engine:
        ``"shared"`` (default) runs the search over a hash-consed
        exploration shared across valuations -- the reachable graph is
        frozen into CSR form after the first valuation and later
        valuations are pure graph walks (see :mod:`repro.verifier.graph`).
        ``"seed"`` is the original per-valuation engine, kept as the
        reference oracle of the differential tests.  A
        :class:`SharedExploration` instance reuses that exploration
        directly (``verify_all`` and the CLI do this to share one
        frozen graph across a property batch, see
        :func:`property_engines`); it must have been built over
        ``domain``.  Verdicts, counterexamples, and search node counts
        are identical either way (Theorem 3.4's graph is
        valuation-independent).  The exploration's letter memo is
        per-AP-set, so it is dropped when this call returns; views,
        active domains, FO truths and the graph stay for the next
        property.
    shard:
        ``(index, count)`` restricts the sweep to the valuations whose
        global order falls in this shard's residue class
        (``order % count == index``), for splitting one sweep across
        machines; the sweep stops at the shard's own first violation
        and records one ``per_task`` row per valuation checked.  Each
        shard emits a fragment; ``repro merge-shards`` reassembles the
        global verdict (see :mod:`repro.verifier.shards`).
    """
    sentence = _as_sentence(prop, composition)
    _check_restrictions(composition, sentence, check_input_bounded)

    if domain is None:
        domain = verification_domain(
            composition, [sentence], databases
        )
    shard = resolve_shard(shard)

    n_workers = resolve_workers(workers)
    if n_workers > 1:
        def run(own_shard):
            return [verify(
                composition, sentence, databases, semantics, domain,
                check_input_bounded=False, budget=budget,
                include_environment=include_environment,
                transition_cache=transition_cache,
                valuation_candidates=valuation_candidates,
                env_value_domain=env_value_domain,
                env_one_action_per_move=env_one_action_per_move,
                fair_scheduling=fair_scheduling, engine=engine,
                shard=own_shard,
            )]
        return run_local_shards(run, n_workers, shard)[0]

    valuations = _candidate_valuations(sentence, domain,
                                       valuation_candidates)
    stats = VerifierStats()
    if isinstance(engine, SharedExploration):
        shared_engine: SharedExploration | None = engine
        cache = engine.cache
    else:
        cache = transition_cache or TransitionCache(
            composition, databases, domain.values, semantics,
            include_environment=include_environment, budget=budget,
            env_value_domain=env_value_domain,
            env_one_action_per_move=env_one_action_per_move,
        )
        shared_engine = (SharedExploration(cache)
                         if resolve_engine(engine) == "shared" else None)
    result_counterexample: Counterexample | None = None
    cache_before = rule_cache_info()
    seconds_before = phase_seconds()
    counts_before = phase_counts()

    with Stopwatch(stats):
        for order, valuation in shard_filter(valuations, shard):
            if shared_engine is not None and stats.valuations_checked == 1:
                # the first valuation explored lazily (it may decide the
                # verdict without the full graph); from the second on,
                # freeze so remaining valuations are pure graph walks
                shared_engine.complete(strict=False)
            started = time.perf_counter()
            outcome = check_one_valuation(
                composition, sentence, valuation, domain, cache,
                fair_scheduling=fair_scheduling, engine=shared_engine,
            )
            stats.valuations_checked += 1
            stats.nba_states_total += outcome.nba_states
            stats.merge_search(outcome.blue_visited, outcome.red_visited)
            if shard is not None:
                stats.per_task.append(TaskStats(
                    order=order,
                    wall_seconds=time.perf_counter() - started,
                    nba_states=outcome.nba_states,
                    product_nodes=(outcome.blue_visited
                                   + outcome.red_visited),
                ))
            if outcome.violated:
                stats.decisive_order = order
                result_counterexample = Counterexample(
                    valuation={
                        var.name: value
                        for var, value in valuation.items()
                    },
                    lasso=Lasso(outcome.lasso_prefix, outcome.lasso_cycle),
                    property_text=str(sentence),
                )
                break
        stats.system_states = (
            cache.states_expanded if cache is not None
            else len(shared_engine.interner)
        )
        if shared_engine is not None:
            shared_engine.shared.drop_letters()

    stats.merge_phases(diff_numeric(phase_seconds(), seconds_before),
                       diff_numeric(phase_counts(), counts_before))
    stats.merge_rule_cache(rule_cache_delta(cache_before))

    return VerificationResult(
        satisfied=result_counterexample is None,
        property_text=str(sentence),
        counterexample=result_counterexample,
        stats=stats,
        domain_description=domain.describe(),
        semantics_description=semantics.describe(),
    )


def verify_over_databases(composition: Composition,
                          prop: LTLFOSentence | str,
                          relation_arities_by_peer: Mapping[str, Mapping[str, int]],
                          domain_values: Sequence[Value],
                          max_rows: int = 1,
                          semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                          workers: int | None = None,
                          **kwargs) -> VerificationResult:
    """Decide the property over *every* database within the given bounds.

    The completeness companion to :func:`verify`: enumerates all database
    combinations over ``domain_values`` with at most ``max_rows`` rows per
    relation (exponential -- tiny schemas only) and returns the first
    counterexample found, or SATISFIED if none exists anywhere.

    ``relation_arities_by_peer`` maps each peer name to the relation
    arities of the databases to enumerate, e.g.
    ``{"S": {"items": 1}}``.

    Every combination is one :func:`verify` call in enumeration order
    (with ``workers``, each runs as that many local shards), so the
    first violated combination decides exactly as sequentially.
    Further keyword arguments go to :func:`verify`.
    """
    from .domain import enumerate_databases
    import itertools

    per_peer: list[list[tuple[str, Instance]]] = []
    for peer_name in sorted(relation_arities_by_peer):
        arities = relation_arities_by_peer[peer_name]
        instances = enumerate_databases(arities, domain_values,
                                        max_rows=max_rows)
        per_peer.append([(peer_name, inst) for inst in instances])

    combos = (
        [dict(c) for c in itertools.product(*per_peer)] if per_peer
        else [{}]
    )

    last: VerificationResult | None = None
    for databases in combos:
        result = verify(composition, prop, databases,
                        semantics=semantics, workers=workers, **kwargs)
        if not result.satisfied:
            return result
        last = result
    assert last is not None, "no database combination enumerated"
    return last


def property_engines(composition: Composition,
                     sentences: Sequence[LTLFOSentence],
                     databases: Mapping[str, Instance],
                     semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                     domain: VerificationDomain | None = None,
                     budget: SearchBudget | None = None,
                     ) -> list[tuple[VerificationDomain, SharedExploration]]:
    """Each sentence's verification domain and the exploration it walks.

    A sentence's domain is *domain* when given, else its own
    ``verification_domain(composition, [sentence], databases)``.
    Sentences with equal domains get one :class:`SharedExploration`
    (pass it as ``verify(engine=...)``), so a batch expands each
    distinct snapshot once instead of once per property: Theorem 3.4's
    graph depends on the composition, databases, domain and semantics,
    not on the property, the valuation or the shard.  Domains must
    match exactly: the exploration memoises FO truths without the
    domain.  The explorations start empty, so a batch run as local
    shards explores once per child.
    """
    explorations: dict[VerificationDomain, SharedExploration] = {}
    plan: list[tuple[VerificationDomain, SharedExploration]] = []
    for sentence in sentences:
        own = domain if domain is not None else verification_domain(
            composition, [sentence], databases)
        chosen = explorations.get(own)
        if chosen is None:
            chosen = explorations[own] = SharedExploration(
                TransitionCache(composition, databases, own.values,
                                semantics, budget=budget))
        plan.append((own, chosen))
    return plan


def verify_all(composition: Composition,
               props: Sequence[LTLFOSentence | str],
               databases: Mapping[str, Instance],
               semantics: ChannelSemantics = DECIDABLE_DEFAULT,
               domain: VerificationDomain | None = None,
               check_input_bounded: bool = True,
               budget: SearchBudget | None = None,
               workers: int | None = None,
               shard: tuple[int, int] | None = None,
               valuation_candidates: Mapping[str, Sequence[Value]]
               | None = None,
               ) -> list[VerificationResult]:
    """Verify several properties sharing one transition-system exploration.

    Every property ranges over one domain (*domain*, else the one
    computed for the whole batch), and one :class:`SharedExploration`
    (interner, frozen graph, snapshot caches) serves the whole batch
    (:func:`property_engines`).  With ``workers > 1`` the batch runs as
    that many local shards (:func:`run_local_shards`), each child
    exploring the graph once for all properties.  ``shard`` and
    ``valuation_candidates`` restrict every property's valuations as in
    :func:`verify`.  Verdicts and counterexamples are identical to
    verifying each property on its own over the same domain.
    """
    sentences = [_as_sentence(p, composition) for p in props]
    if domain is None:
        domain = verification_domain(composition, sentences, databases)

    n_workers = resolve_workers(workers)
    if n_workers > 1:
        for sentence in sentences:
            _check_restrictions(composition, sentence, check_input_bounded)
        return run_local_shards(
            lambda own_shard: verify_all(
                composition, sentences, databases, semantics, domain,
                check_input_bounded=False, budget=budget, shard=own_shard,
                valuation_candidates=valuation_candidates),
            n_workers, shard)

    plan = property_engines(composition, sentences, databases, semantics,
                            domain, budget=budget)
    return [
        verify(composition, s, databases, semantics=semantics,
               domain=domain, check_input_bounded=check_input_bounded,
               budget=budget, engine=engine, shard=shard,
               valuation_candidates=valuation_candidates)
        for s, (_domain, engine) in zip(sentences, plan)
    ]
