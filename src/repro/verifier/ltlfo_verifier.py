"""The LTL-FO verifier (the decision procedure behind Theorem 3.4).

``verify(composition, property, databases, ...)`` decides whether every
run of the composition over the given databases satisfies the LTL-FO
sentence, by exhaustive search over the bounded verification domain:

1. The property's universal closure is expanded into finitely many
   valuations over the verification domain (canonicalized up to
   fresh-value symmetry).
2. The negated body, as a *template* whose APs are payload positions,
   conjoined with ``F occurs(v)`` for each fresh value a valuation uses
   (the ``Dom(rho)`` restriction of the closure semantics), is
   translated to a Büchi automaton (GPVW) once per occurs tuple; a
   valuation's letters read position *i* as payload *i* instantiated
   under it.
3. The on-the-fly product with the composition's snapshot graph is
   searched for an accepting lasso (nested DFS).  A lasso is a genuine
   infinite counterexample run; none anywhere means the property holds
   over the explored domain.  Over a completed shared graph, valuations
   whose letters agree on every state (one *letter class*) share one
   search.

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
from typing import Callable, Mapping, Sequence

from ..errors import InputBoundednessError, VerificationError
from ..fo.formulas import instantiate
from ..fo.instance import Instance
from ..fo.terms import Value, Var, value_sort_key
from ..ib.checker import check_composition, check_sentence
from ..ltl.buchi import BuchiAutomaton
from ..ltl.formulas import (
    LAtom, land, latom, lfinally, lglobally, lnot, lwalk,
)
from ..ltl.translate import ltl_to_buchi
from ..ltlfo.formulas import LTLFOSentence, map_payloads
from ..ltlfo.parser import parse_ltlfo
from ..obs import (
    PHASE_SWEEP, diff_numeric, merge_registry_snapshot, phase,
    phase_counts, phase_seconds, reset_for_worker,
)
from ..runtime.run import Lasso
from ..runtime.step import rule_cache_delta, rule_cache_info
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from .atoms import InternedSnapshotEvaluator, OccursAtom, PayloadAtom
from .domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from .graph import SharedExploration
from .product import ProductSystem, SearchBudget
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


def occurs_terms(valuation: Mapping[Var, Value],
                 domain: VerificationDomain) -> list:
    """``F occurs(v)`` for each fresh value of *valuation*.

    The ``Dom(rho)`` restriction of the closure semantics: a fresh value
    a counterexample's valuation uses must occur in the run.  Sorted so
    the conjunct order (hence the GPVW translation) is identical across
    processes regardless of hash randomization.
    """
    return [
        lfinally(latom(OccursAtom(v)))
        for v in sorted(set(valuation.values()), key=value_sort_key)
        if v not in domain.constants
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
# the valuation loop


def fairness_terms(composition: Composition) -> list:
    """``/\\ GF move_W`` conjuncts restricting to fair runs."""
    from ..fo.formulas import Atom
    from ..fo.schema import move_name
    return [
        lglobally(lfinally(latom(Atom(move_name(p.name), ()))))
        for p in composition.peers
    ]


#: Per-valuation unit of a sweep: the valuation's violation automaton
#: and the evaluator of its letters on the exploration's nodes.
Unit = Callable[[Mapping[Var, Value]], tuple[BuchiAutomaton, object]]


def sentence_unit(composition: Composition, sentence: LTLFOSentence,
                  domain: VerificationDomain,
                  evaluator: Callable[[dict], object],
                  fair_scheduling: bool = False) -> Unit:
    """The sweep unit of an LTL-FO sentence.

    The violation automaton is translated from a *template*: the negated
    body with each distinct FO payload replaced by its position in
    ``sentence.fo_payloads()`` (:class:`PayloadAtom`), conjoined with
    the ``F occurs(v)`` terms of the valuation's fresh values and, with
    *fair_scheduling*, the fairness terms.  One automaton is translated
    per distinct occurs tuple, on first use, and shared by every
    valuation with that tuple; canonical valuations use fresh values as
    a prefix, so there are at most ``len(domain.fresh) + 1``.  A
    valuation's evaluator, ``evaluator(binding)``, binds position *i* to
    payload *i* instantiated under the valuation, and occurs and
    fairness atoms to themselves; its bits follow the template's atoms
    in walk order.
    """
    payloads = sentence.fo_payloads()
    position = {p: PayloadAtom(i) for i, p in enumerate(payloads)}
    negated = lnot(map_payloads(sentence.body, position.__getitem__))
    extra = fairness_terms(composition) if fair_scheduling else []
    templates: dict[tuple, tuple[BuchiAutomaton, tuple]] = {}

    def unit(valuation):
        occurs = tuple(occurs_terms(valuation, domain))
        template = templates.get(occurs)
        if template is None:
            formula = land(negated, *occurs, *extra)
            atoms = tuple(dict.fromkeys(node.ap for node in lwalk(formula)
                                        if isinstance(node, LAtom)))
            template = templates[occurs] = (ltl_to_buchi(formula), atoms)
        nba, atoms = template
        bound = [instantiate(p, valuation) for p in payloads]
        return nba, evaluator({
            ap: bound[ap.index] if isinstance(ap, PayloadAtom) else ap
            for ap in atoms})

    return unit


def letter_class(nba: BuchiAutomaton, evaluator) -> tuple:
    """A valuation's letter class over a completed shared exploration.

    The automaton (shared by identity among the valuations of one
    template) and the evaluator's signature
    (:meth:`~repro.verifier.atoms.InternedSnapshotEvaluator.signature`).
    Valuations with equal classes read equal letters on every reachable
    state, so their products, and their searches, are identical.
    """
    return (nba, evaluator.signature())


def sweep_valuations(valuations: Sequence[Mapping[Var, Value]],
                     space, unit: Unit, property_text: str,
                     domain: VerificationDomain,
                     semantics: ChannelSemantics,
                     shard: tuple[int, int] | None = None
                     ) -> VerificationResult:
    """The valuation loop behind every decision procedure.

    LTL-FO properties (:func:`verify`), conversation protocols
    (:func:`repro.protocols.verify_agnostic`/``verify_aware``) and
    modular specs (:func:`repro.verifier.verify_modular`) all sweep the
    closure valuations and search, for each, the product of the
    exploration *space* with the valuation's violation automaton.  For
    each valuation *shard* owns (:func:`shard_filter`), ``unit`` gives
    the automaton and the letter evaluator; the first accepting lasso,
    mapped back to snapshots with ``space.state_of``, decides the
    verdict and stops the loop.  Sharded runs record one ``per_task``
    row per valuation.

    Over a :class:`SharedExploration` the first valuation explores
    lazily (it may decide the verdict without the full graph); from the
    second on the graph is completed, and each valuation's
    :func:`letter_class` (its evaluator must have ``signature()``)
    picks the search: the first valuation of a class runs it, later
    members reuse its result.  The lazily searched first valuation is
    filed under its class once the graph is complete; if completing
    overruns the budget, every valuation is searched.  The loop still
    walks valuations in order and stops at the first violation, so the
    decisive valuation and its lasso are a per-valuation sweep's.

    ``valuations_checked``, ``product_nodes_visited``,
    ``nba_states_total`` and the ``per_task`` rows charge every
    valuation its class's search, as a per-valuation sweep counts them,
    so they are equal for any worker count and shard split;
    ``valuation_classes`` counts the searches actually run.
    """
    shared = isinstance(space, SharedExploration)
    stats = VerifierStats()
    counterexample: Counterexample | None = None
    #: letter class -> its search, once the graph is complete
    classes: dict | None = None
    cache_before = rule_cache_info()
    seconds_before = phase_seconds()
    counts_before = phase_counts()

    with Stopwatch(stats):
        for order, valuation in shard_filter(valuations, shard):
            if (shared and stats.valuations_checked == 1
                    and space.complete(strict=False)):
                # file the first valuation (it satisfied: the loop went
                # on) under its class; nba, evaluator and search are its
                classes = {letter_class(nba, evaluator): search}
            started = time.perf_counter()
            nba, evaluator = unit(valuation)
            key = None if classes is None else letter_class(nba, evaluator)
            search = None if key is None else classes.get(key)
            lasso = None
            if search is None:
                lasso, search = find_accepting_lasso(
                    ProductSystem(space, nba, evaluator))
                stats.valuation_classes += 1
                if key is not None:
                    classes[key] = search
            stats.valuations_checked += 1
            stats.nba_states_total += nba.num_states()
            stats.merge_search(search.blue_visited, search.red_visited)
            if shard is not None:
                stats.per_task.append(TaskStats(
                    order=order,
                    wall_seconds=time.perf_counter() - started,
                    nba_states=nba.num_states(),
                    product_nodes=search.nodes_visited,
                ))
            if lasso is not None:
                stats.decisive_order = order
                state_of = space.state_of
                counterexample = Counterexample(
                    valuation={
                        var.name: value
                        for var, value in valuation.items()
                    },
                    lasso=Lasso(
                        tuple(state_of(node[0]) for node in lasso.prefix),
                        tuple(state_of(node[0]) for node in lasso.cycle),
                    ),
                    property_text=property_text,
                )
                break
        stats.system_states = space.states_expanded

    stats.merge_phases(diff_numeric(phase_seconds(), seconds_before),
                       diff_numeric(phase_counts(), counts_before))
    stats.merge_rule_cache(rule_cache_delta(cache_before))

    return VerificationResult(
        satisfied=counterexample is None,
        property_text=property_text,
        counterexample=counterexample,
        stats=stats,
        domain_description=domain.describe(),
        semantics_description=semantics.describe(),
    )


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
    its own work.
    """
    _SHARD_PIDS[slot] = os.getpid()
    reset_for_worker()
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
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    shards = local_shards(resolve_shard(shard), workers)
    fork = multiprocessing.get_context("fork")
    pids = fork.RawArray("q", workers)
    t0 = time.perf_counter()
    with phase(PHASE_SWEEP):
        with ProcessPoolExecutor(workers, mp_context=fork,
                                 initializer=_adopt_batch,
                                 initargs=(run, pids)) as pool:
            futures = [pool.submit(_shard_child, slot, s)
                       for slot, s in enumerate(shards)]
            # the pool's pid -> process table (a private attribute),
            # kept past shutdown to name a dead child's exit code
            children = getattr(pool, "_processes", None)
        try:
            fragments = [future.result() for future in futures]
        except BrokenProcessPool:
            raise VerificationError(
                _dead_child(children, pids, shards)) from None
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
           valuation_candidates: Mapping[str, Sequence[Value]] | None = None,
           env_value_domain: Sequence[Value] | None = None,
           fair_scheduling: bool = False,
           workers: int | None = None,
           exploration: SharedExploration | None = None,
           shard: tuple[int, int] | None = None,
           ) -> VerificationResult:
    """Decide ``composition |= prop`` over the given databases.

    The sentence is translated once per occurs tuple, as a template
    whose APs are payload positions (:func:`sentence_unit`), and the
    canonical valuations are swept in order (:func:`sweep_valuations`)
    over one :class:`SharedExploration` of the snapshot graph: the
    graph is completed into memoized successor rows after the first
    valuation, and valuations that read the same letters on every state
    share one search, a pure graph walk (see
    :mod:`repro.verifier.graph`).  ``product_nodes_visited`` and
    ``nba_states_total`` still charge every valuation its class's
    search, and ``valuation_classes`` counts the searches run.

    Arguments
    ---------
    composition:
        A (normally closed) composition.  Open compositions are verified
        against an unconstrained environment: every environment behaviour
        over the domain (or over ``env_value_domain``) is explored.
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
        :class:`SharedExploration` is not filled in by the children.
    exploration:
        Walk this :class:`SharedExploration`, with its own budget,
        instead of a new one (``verify_all`` and the CLI share one graph
        across a property batch, see :func:`property_engines`).  It must
        have been built for this call's composition, databases, domain
        values, semantics and ``env_value_domain``, else
        :class:`VerificationError` names the first that differs.  The
        graph, views and FO truths stay on it for the next property.
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
    if exploration is not None:
        _check_exploration(exploration, composition, databases, domain,
                           semantics, env_value_domain)

    n_workers = resolve_workers(workers)
    if n_workers > 1:
        def run(own_shard):
            return [verify(
                composition, sentence, databases, semantics, domain,
                check_input_bounded=False, budget=budget,
                valuation_candidates=valuation_candidates,
                env_value_domain=env_value_domain,
                fair_scheduling=fair_scheduling, exploration=exploration,
                shard=own_shard,
            )]
        return run_local_shards(run, n_workers, shard)[0]

    if exploration is None:
        exploration = SharedExploration(
            composition, databases, domain.values, semantics, budget=budget,
            env_value_domain=env_value_domain)

    return sweep_valuations(
        canonical_valuations(sentence.variables, domain,
                             valuation_candidates),
        exploration,
        sentence_unit(composition, sentence, domain,
                      lambda binding: InternedSnapshotEvaluator(
                          composition, domain.values, binding,
                          exploration.shared),
                      fair_scheduling),
        str(sentence), domain, semantics, shard)


def _check_exploration(exploration: SharedExploration,
                       composition: Composition,
                       databases: Mapping[str, Instance],
                       domain: VerificationDomain,
                       semantics: ChannelSemantics,
                       env_value_domain: Sequence[Value] | None) -> None:
    """Refuse an exploration built for other inputs than a call's.

    Its graph, and the FO truths it memoises without the domain, hold
    only for the composition, databases, domain values, semantics and
    environment values it was built with.
    """
    def values(seq):
        return None if seq is None else tuple(seq)

    for field, built, called in (
        ("composition", exploration.composition, composition),
        ("databases", exploration.databases, dict(databases)),
        ("domain values", exploration.domain, tuple(domain.values)),
        ("semantics", exploration.semantics, semantics),
        ("env_value_domain", values(exploration.env_value_domain),
         values(env_value_domain)),
    ):
        if built != called:
            raise VerificationError(
                f"the supplied exploration does not match this call's "
                f"{field}")


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

    The combinations cannot share one plan or one exploration.  A
    combination's databases fix its snapshot graph, and their active
    domain enters the verification domain's constants
    (:func:`verification_domain`).  An exploration is valid for one set
    of databases and one domain only (``verify`` refuses any other), so
    each combination builds its own.
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
    (pass it as ``verify(exploration=...)``), so a batch expands each
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
                composition, databases, own.values, semantics,
                budget=budget)
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
               budget=budget, exploration=exploration, shard=shard,
               valuation_candidates=valuation_candidates)
        for s, (_domain, exploration) in zip(sentences, plan)
    ]
