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
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..fo.instance import Instance
from ..fo.terms import Value
from ..ib.checker import check_composition, check_sentence
from ..errors import InputBoundednessError
from ..ltlfo.formulas import LTLFOSentence
from ..ltlfo.parser import parse_ltlfo
from ..obs import diff_numeric, phase_counts, phase_seconds
from ..runtime.run import Lasso
from ..runtime.step import rule_cache_delta, rule_cache_info
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from .graph import SharedExploration, resolve_engine
from .parallel import (
    check_one_valuation, parallel_verify, parallel_verify_all,
    parallel_verify_over_databases, resolve_shard, resolve_workers,
)
from .product import SearchBudget, TransitionCache
from .result import (
    Counterexample, Stopwatch, VerificationResult, VerifierStats,
)


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
        Fan the valuation sweep out across this many worker processes
        (``None``: the ``REPRO_WORKERS`` environment default, normally
        1; ``0``: all cores).  Verdicts and counterexamples are
        identical to the sequential sweep (see
        :mod:`repro.verifier.parallel`).  Ignored when a shared
        ``transition_cache`` or a :class:`SharedExploration` engine is
        supplied, since worker processes cannot populate the caller's
        in-process cache or exploration.
    engine:
        ``"shared"`` (default; overridable via ``REPRO_ENGINE``) runs
        the search over a hash-consed exploration shared across
        valuations -- the reachable graph is frozen into CSR form after
        the first valuation and later valuations are pure graph walks
        (see :mod:`repro.verifier.graph`).  ``"seed"`` is the original
        per-valuation engine.  A :class:`SharedExploration` instance
        reuses that exploration directly (``verify_all`` and the CLI do
        this to share one frozen graph across a property batch, see
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
        machines.  Each shard emits a fragment; ``repro merge-shards``
        reassembles the global verdict (see
        :mod:`repro.verifier.shards`).  Sharding always routes through
        the task-grid engine -- it cannot combine with a caller-supplied
        ``transition_cache`` or :class:`SharedExploration` instance
        (``ValueError``).
    """
    sentence = _as_sentence(prop, composition)
    _check_restrictions(composition, sentence, check_input_bounded)

    if domain is None:
        domain = verification_domain(
            composition, [sentence], databases
        )

    valuations = _candidate_valuations(sentence, domain,
                                       valuation_candidates)

    n_workers = resolve_workers(workers)
    shard = resolve_shard(shard)
    if shard is not None and (transition_cache is not None
                              or isinstance(engine, SharedExploration)):
        raise ValueError(
            "shard= cannot combine with transition_cache= or a "
            "SharedExploration engine instance"
        )
    if ((n_workers > 1 or shard is not None)
            and transition_cache is None
            and (len(valuations) > 1 or shard is not None)
            and not isinstance(engine, SharedExploration)):
        return parallel_verify(
            composition, sentence, databases, semantics, domain,
            valuations, n_workers, budget=budget,
            include_environment=include_environment,
            env_value_domain=env_value_domain,
            env_one_action_per_move=env_one_action_per_move,
            fair_scheduling=fair_scheduling,
            engine=resolve_engine(engine),
            shard=shard,
        )

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
        for index, valuation in enumerate(valuations):
            if shared_engine is not None and index == 1:
                # the first valuation explored lazily (it may decide the
                # verdict without the full graph); from the second on,
                # freeze so remaining valuations are pure graph walks
                shared_engine.complete(strict=False)
            stats.valuations_checked += 1
            outcome = check_one_valuation(
                composition, sentence, valuation, domain, cache,
                fair_scheduling=fair_scheduling, engine=shared_engine,
            )
            stats.nba_states_total += outcome.nba_states
            stats.merge_search(outcome.blue_visited, outcome.red_visited)
            if outcome.violated:
                stats.decisive_order = index
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
                          engine: str | None = None,
                          **kwargs) -> VerificationResult:
    """Decide the property over *every* database within the given bounds.

    The completeness companion to :func:`verify`: enumerates all database
    combinations over ``domain_values`` with at most ``max_rows`` rows per
    relation (exponential -- tiny schemas only) and returns the first
    counterexample found, or SATISFIED if none exists anywhere.

    ``relation_arities_by_peer`` maps each peer name to the relation
    arities of the databases to enumerate, e.g.
    ``{"S": {"items": 1}}``.

    With ``workers > 1`` the full (database, valuation) grid is fanned
    out across worker processes; the first violated cell in enumeration
    order decides, so the verdict and counterexample match the
    sequential enumeration.  Keyword arguments beyond
    ``check_input_bounded``/``budget``/``domain`` force the sequential
    path (they configure per-call machinery the grid does not ship).
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

    n_workers = resolve_workers(workers)
    parallel_ok = not (set(kwargs) - {"check_input_bounded", "budget",
                                      "domain"})
    if n_workers > 1 and len(combos) > 1 and parallel_ok:
        sentence = _as_sentence(prop, composition)
        _check_restrictions(composition, sentence,
                            kwargs.get("check_input_bounded", True))
        fixed_domain = kwargs.get("domain")
        domains = [
            fixed_domain or verification_domain(composition, [sentence],
                                                dbs)
            for dbs in combos
        ]
        valuations_per_combo = [
            canonical_valuations(sentence.variables, dom)
            for dom in domains
        ]
        return parallel_verify_over_databases(
            composition, sentence, combos, semantics, domains,
            valuations_per_combo, n_workers,
            budget=kwargs.get("budget"),
            engine=resolve_engine(engine),
        )

    last: VerificationResult | None = None
    for databases in combos:
        result = verify(composition, prop, databases,
                        semantics=semantics, workers=n_workers,
                        engine=engine, **kwargs)
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
                     workers: int | None = None,
                     engine: str | None = None,
                     shard: tuple[int, int] | None = None,
                     ) -> list[tuple[VerificationDomain,
                                     str | SharedExploration]]:
    """Each sentence's verification domain and ``verify(engine=...)``.

    A sentence's domain is *domain* when given, else its own
    ``verification_domain(composition, [sentence], databases)``.  In
    process -- one worker, no shard, the ``shared`` engine -- sentences
    with equal domains get one :class:`SharedExploration`, so a batch
    expands each distinct snapshot once instead of once per property
    (Theorem 3.4's graph depends on the composition, databases, domain
    and semantics, not on the property).  Domains must match exactly:
    the exploration memoises FO truths without the domain.  Otherwise
    every sentence gets the resolved engine name and ``verify``
    explores per property: a worker pool pre-expands in its driver,
    shards run apart, and the ``seed`` engine is the per-valuation
    reference.
    """
    engine_mode = resolve_engine(engine)
    in_process = (engine_mode == "shared" and resolve_workers(workers) == 1
                  and resolve_shard(shard) is None)
    explorations: dict[VerificationDomain, SharedExploration] = {}
    plan: list[tuple[VerificationDomain, str | SharedExploration]] = []
    for sentence in sentences:
        own = domain if domain is not None else verification_domain(
            composition, [sentence], databases)
        chosen: str | SharedExploration = engine_mode
        if in_process:
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
               engine: str | None = None,
               shard: tuple[int, int] | None = None,
               valuation_candidates: Mapping[str, Sequence[Value]]
               | None = None,
               ) -> list[VerificationResult]:
    """Verify several properties sharing one transition-system exploration.

    Every property ranges over one domain (*domain*, else the one
    computed for the whole batch).  With ``workers > 1`` every
    (property, valuation) pair becomes one task of the parallel sweep;
    under the shared engine the driver pre-expands the reachable graph
    once and ships it to every worker.  Sequentially, one
    :class:`SharedExploration` (interner, frozen graph, snapshot
    caches) serves the whole batch (:func:`property_engines`); the
    ``seed`` engine explores per property.
    ``valuation_candidates`` restricts every property's valuations as
    in :func:`verify`.  Verdicts and counterexamples are identical to
    verifying each property on its own over the same domain.
    """
    sentences = [_as_sentence(p, composition) for p in props]
    if domain is None:
        domain = verification_domain(composition, sentences, databases)

    n_workers = resolve_workers(workers)
    shard = resolve_shard(shard)
    if (n_workers > 1 or shard is not None) and sentences:
        for sentence in sentences:
            _check_restrictions(composition, sentence, check_input_bounded)
        valuations_per_sentence = [
            _candidate_valuations(s, domain, valuation_candidates)
            for s in sentences
        ]
        return parallel_verify_all(
            composition, sentences, databases, semantics, domain,
            valuations_per_sentence, n_workers, budget=budget,
            engine=resolve_engine(engine), shard=shard,
        )

    plan = property_engines(composition, sentences, databases, semantics,
                            domain, budget=budget, workers=1, engine=engine)
    return [
        verify(composition, s, databases, semantics=semantics,
               domain=domain, check_input_bounded=check_input_bounded,
               budget=budget, workers=1, engine=chosen,
               valuation_candidates=valuation_candidates)
        for s, (_domain, chosen) in zip(sentences, plan)
    ]
