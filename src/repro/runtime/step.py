"""The legal-successor relation (Definitions 2.3, 2.4 and 2.6).

One peer moves per step (serialized runs).  A move of peer ``W``:

1. evaluates all of ``W``'s rules on the current snapshot (database, state,
   current input, previous input, first messages of in-queues);
2. computes the new state (insert/delete semantics with no-op conflict
   resolution), actions, and previous inputs;
3. fires the send rules: nested sends collect all answers into one
   message; flat sends with several candidates either pick one
   nondeterministically or raise the ``error_Q`` flag (Theorem 3.8),
   depending on the :class:`~repro.spec.channels.ChannelSemantics`;
4. dequeues the first message of every in-queue *mentioned* in ``W``'s
   rules, then delivers sent messages: lossy channels may drop any sent
   message nondeterministically, and messages arriving at a full
   (k-bounded) queue are dropped;
5. finally, ``W``'s next user input is chosen nondeterministically among
   the options its input rules generate *in the successor configuration*
   (Definition 2.3 constrains the input of every configuration).

All nondeterminism (flat-send picks, losses, input choices) is enumerated,
so :func:`successors` returns every legal successor snapshot.
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict
from typing import Collection, Mapping, NamedTuple, Sequence
from weakref import WeakKeyDictionary

from ..errors import SpecificationError
from ..fo.evaluator import answers
from ..fo.formulas import relations
from ..fo.instance import Instance, Rows
from ..obs import PHASE_RULE_FIRE, phase
from ..fo.schema import ENVIRONMENT_NAME, error_name, prev_name
from ..fo.terms import Value, value_sort_key
from ..spec.channels import (
    ChannelSemantics, FlatSendDiscipline, NestedEmptySend,
)
from ..spec.composition import Channel, Composition
from ..spec.peer import Peer
from ..spec.rules import Rule, RuleKind
from .state import GlobalState, empty_queues, freeze_queues, snapshot_view

Domain = Sequence[Value]


def _row_key(row: tuple) -> tuple:
    """Deterministic sort key for rows with mixed str/int values."""
    return tuple(value_sort_key(v) for v in row)


class _CompiledRule:
    """One qualified rule and the relations its body reads.

    Hashed by identity: it is the rule's part of a rule-cache key (hashing
    a :class:`Rule` walks its whole body formula), and a cache entry
    holding it keeps its identity from being reused.
    """

    __slots__ = ("rule", "relations")

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self.relations: tuple[str, ...] = tuple(sorted(relations(rule.body)))


class _RuleCache:
    """Process-local, bounded (LRU) rule-firing memo.

    A rule body's answers depend only on the extensions of the relations
    it mentions and the quantification domain, both of which repeat
    heavily across snapshots during model checking, so an entry is keyed
    by the compiled rule, the domain and those extensions (frozensets
    cache their hash).  The cache is keyed by the owning process id so
    that worker processes created by ``fork`` never serve (or mutate)
    entries inherited from the parent: the first access in a new process
    starts from an empty, private cache.  Entries are evicted
    least-recently-used once ``maxsize`` is reached, and the entries are
    all the cache holds, bounding memory in long-running services.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._pid = os.getpid()
        self._answers: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _check_owner(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.clear()

    def clear(self) -> None:
        self._answers.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def answers_for(self, rule: _CompiledRule, view: Instance,
                    domain: tuple[Value, ...]) -> Rows:
        self._check_owner()
        key = (rule, domain, *[view[rel] for rel in rule.relations])
        cached = self._answers.get(key)
        if cached is not None:
            self.hits += 1
            self._answers.move_to_end(key)
            return cached
        self.misses += 1
        with phase(PHASE_RULE_FIRE):
            result = answers(rule.rule.body, rule.rule.head, view, domain)
        self._answers[key] = result
        if len(self._answers) > self.maxsize:
            self._answers.popitem(last=False)
            self.evictions += 1
        return result

    def info(self) -> dict:
        return {
            "size": len(self._answers),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


_RULE_CACHE = _RuleCache(100_000)


def clear_rule_cache() -> None:
    """Drop the rule-firing memo (tests / long-running processes)."""
    _RULE_CACHE.clear()


def rule_cache_info() -> dict:
    """Size/hit/miss/eviction counters of this process's rule cache."""
    return _RULE_CACHE.info()


#: The monotonically increasing counters of :func:`rule_cache_info`
#: (``size``/``maxsize`` are levels, not counters, and are excluded
#: from deltas).
RULE_CACHE_COUNTER_KEYS = ("hits", "misses", "evictions")


def rule_cache_delta(before: Mapping[str, int]) -> dict[str, int]:
    """Positive counter movement of the rule cache since *before*.

    ``before`` is a prior :func:`rule_cache_info` snapshot.  Used to
    attribute cache activity to one verification call or sweep task
    (workers ship these deltas back to the driver); a cache clear in
    between yields partial (never negative) numbers.
    """
    info = _RULE_CACHE.info()
    out: dict[str, int] = {}
    for key in RULE_CACHE_COUNTER_KEYS:
        delta = info[key] - before.get(key, 0)
        if delta > 0:
            out[key] = delta
    return out


def _rule_answers(rule: _CompiledRule | None, view: Instance,
                  domain: tuple[Value, ...]) -> Rows:
    if rule is None:
        return frozenset()
    return _RULE_CACHE.answers_for(rule, view, domain)


class _MovePlan(NamedTuple):
    """What a move of peer ``mover`` reads and writes, from its rules.

    Relation names are composition-qualified.  ``inputs`` lists
    ``(input, arity, option rule)``; ``updates`` the state relations with
    an insert or delete rule; ``actions`` every action with its rule;
    ``prev_inputs`` ``(input, prev_input)`` pairs; ``sends`` every
    out-queue as ``(channel, send rule, error flag)``, the flag None for
    nested channels; ``consumed`` the in-queues dequeued on every move
    (those the peer's rules mention, Definition 2.4).
    """

    mover: str
    inputs: tuple[tuple[str, int, _CompiledRule | None], ...]
    updates: tuple[tuple[str, _CompiledRule | None,
                         _CompiledRule | None], ...]
    actions: tuple[tuple[str, _CompiledRule | None], ...]
    prev_inputs: tuple[tuple[str, str], ...]
    sends: tuple[tuple[Channel, _CompiledRule | None, str | None], ...]
    consumed: tuple[str, ...]


def _plan_move(composition: Composition, peer: Peer) -> _MovePlan:
    def q(name: str) -> str:
        return f"{peer.name}.{name}"

    rules: dict[tuple[RuleKind, str], _CompiledRule] = {}
    for rule in composition.qualified_rules(peer.name):
        rules.setdefault((rule.kind, rule.target), _CompiledRule(rule))

    def rule_for(kind: RuleKind, name: str) -> _CompiledRule | None:
        return rules.get((kind, q(name)))

    updates = []
    for sym in peer.states:
        insert = rule_for(RuleKind.INSERT, sym.name)
        delete = rule_for(RuleKind.DELETE, sym.name)
        if insert is not None or delete is not None:
            updates.append((q(sym.name), insert, delete))
    consumed = peer.consumed_in_queues()
    return _MovePlan(
        mover=peer.name,
        inputs=tuple((q(inp.name), inp.arity,
                      rule_for(RuleKind.INPUT, inp.name))
                     for inp in peer.inputs),
        updates=tuple(updates),
        actions=tuple((q(sym.name), rule_for(RuleKind.ACTION, sym.name))
                      for sym in peer.actions),
        prev_inputs=tuple((q(sym.name), q(prev_name(sym.name)))
                          for sym in peer.inputs),
        sends=tuple((composition.channel(sym.name),
                     rule_for(RuleKind.SEND, sym.name),
                     None if sym.nested else q(error_name(sym.name)))
                    for sym in peer.out_queues),
        consumed=tuple(c.name for c in composition.channels
                       if c.receiver == peer.name and c.name in consumed),
    )


#: composition -> {peer name: move plan}; weakly keyed, so plans live as
#: long as their composition in this process and are never pickled.
_MOVE_PLANS: WeakKeyDictionary = WeakKeyDictionary()


def _move_plans(composition: Composition) -> dict[str, _MovePlan]:
    """Every peer's move plan, in peer order (built once per process)."""
    plans = _MOVE_PLANS.get(composition)
    if plans is None:
        plans = _MOVE_PLANS[composition] = {
            peer.name: _plan_move(composition, peer)
            for peer in composition.peers
        }
    return plans


def _input_choices(plan: _MovePlan, view: Instance,
                   domain: tuple[Value, ...]) -> list[dict[str, Rows]]:
    per_input: list[list[tuple[str, Rows]]] = []
    for qname, arity, rule in plan.inputs:
        options = _rule_answers(rule, view, domain)
        if arity == 0:
            # propositional: may be True only if the option rule holds
            # (an omitted rule means the option is never available)
            choices: list[tuple[str, Rows]] = [(qname, frozenset())]
            if options:
                choices.append((qname, frozenset({()})))
        else:
            choices = [(qname, frozenset())]
            choices.extend(
                (qname, frozenset({row}))
                for row in sorted(options, key=_row_key)
            )
        per_input.append(choices)
    if not per_input:
        return [{}]
    return [dict(combo) for combo in itertools.product(*per_input)]


def input_choices(composition: Composition, state: GlobalState,
                  peer: Peer, domain: Domain
                  ) -> list[dict[str, Rows]]:
    """All legal input assignments for *peer* in snapshot *state*.

    Each assignment maps the peer's qualified input-relation names to at
    most one tuple (Definition 2.3: the user picks at most one option;
    propositional inputs may be set only when their option rule holds).
    """
    return _input_choices(_move_plans(composition)[peer.name],
                          snapshot_view(state, composition), tuple(domain))


def initial_states(composition: Composition,
                   databases: Mapping[str, Instance],
                   domain: Domain) -> list[GlobalState]:
    """All legal initial snapshots over the given per-peer databases.

    State, action, previous-input relations and queues start empty
    (Definition 2.6); each peer's initial input is any legal choice
    against its options in the initial configuration.
    """
    data_parts: dict[str, Rows] = {}
    for peer in composition.peers:
        db = databases.get(peer.name, Instance())
        declared = {s.name for s in peer.database}
        unknown = set(db.relations()) - declared
        if unknown:
            raise SpecificationError(
                f"database for peer {peer.name!r} mentions undeclared "
                f"relations {sorted(unknown)}"
            )
        for sym in peer.database:
            data_parts[f"{peer.name}.{sym.name}"] = db[sym.name]
    core = GlobalState(
        data=Instance(data_parts),
        queues=empty_queues(composition),
        mover=None,
    )
    # choose initial inputs peer by peer (options depend only on the
    # database in the empty initial configuration, so order is irrelevant)
    states = [core]
    for peer in composition.peers:
        expanded: list[GlobalState] = []
        for st in states:
            for choice in input_choices(composition, st, peer, domain):
                expanded.append(
                    GlobalState(
                        data=st.data.merged(Instance(choice)),
                        queues=st.queues,
                        mover=None,
                    )
                )
        states = expanded
    return states


def _resolve_flat_sends(
    candidates: Rows, semantics: ChannelSemantics
) -> list[tuple[frozenset | None, bool]]:
    """Outcomes of a flat send: (message rows or None, error-flag)."""
    if not candidates:
        return [(None, False)]
    if len(candidates) == 1:
        (row,) = candidates
        return [(frozenset({row}), False)]
    if semantics.flat_send is FlatSendDiscipline.DETERMINISTIC_ERROR:
        return [(None, True)]
    return [
        (frozenset({row}), False)
        for row in sorted(candidates, key=_row_key)
    ]


def _delivery_branches(
    messages: list[tuple[Channel, frozenset]],
    semantics: ChannelSemantics,
) -> list[list[tuple[Channel, frozenset, bool]]]:
    """All loss/delivery combinations for the messages sent this step.

    Each branch lists ``(channel, message, delivered)``; lossy channels may
    drop, perfect channels always deliver.
    """
    per_message: list[list[tuple[Channel, frozenset, bool]]] = []
    for channel, message in messages:
        lossy = (
            semantics.nested_is_lossy() if channel.nested
            else semantics.flat_is_lossy()
        )
        outcomes = [(channel, message, True)]
        if lossy:
            outcomes.append((channel, message, False))
        per_message.append(outcomes)
    if not per_message:
        return [[]]
    return [list(combo) for combo in itertools.product(*per_message)]


def _move_successors(composition: Composition, plan: _MovePlan,
                     state: GlobalState, view: Instance,
                     domain: tuple[Value, ...],
                     semantics: ChannelSemantics) -> list[GlobalState]:
    """All legal successors of *state* (seen as *view*) when
    ``plan.mover`` moves."""
    mover = plan.mover
    data = state.data
    updates: dict[str, Rows] = {}

    # state relations: insert/delete with no-op conflict semantics
    for name, insert, delete in plan.updates:
        ins = _rule_answers(insert, view, domain)
        dele = _rule_answers(delete, view, domain)
        old = data[name]
        updates[name] = frozenset(
            (ins - dele) | (old & ins & dele) | (old - ins - dele)
        )

    # actions are recomputed on every move
    for name, rule in plan.actions:
        updates[name] = _rule_answers(rule, view, domain)

    # previous inputs: replaced by the current input when non-empty
    for name, prev in plan.prev_inputs:
        current = data[name]
        if current:
            updates[prev] = current

    # send rules
    flat_outcomes: list[list[tuple[Channel, str, frozenset | None, bool]]] = []
    nested_messages: list[tuple[Channel, frozenset]] = []
    for channel, rule, error_flag in plan.sends:
        produced = _rule_answers(rule, view, domain)
        if error_flag is None:
            if produced or (
                rule is not None
                and semantics.nested_empty_send is NestedEmptySend.ENQUEUE
            ):
                nested_messages.append((channel, frozenset(produced)))
        else:
            flat_outcomes.append([
                (channel, error_flag, message, error)
                for message, error in _resolve_flat_sends(produced, semantics)
            ])

    # queue mechanics: dequeue consumed in-queues first
    base_queues = state.queue_map()
    for name in plan.consumed:
        contents = base_queues[name]
        if contents:
            base_queues[name] = contents[1:]

    successors: list[GlobalState] = []
    flat_combos = (
        [list(combo) for combo in itertools.product(*flat_outcomes)]
        if flat_outcomes else [[]]
    )
    for flat_combo in flat_combos:
        moved = dict(updates)
        messages: list[tuple[Channel, frozenset]] = []
        for channel, error_flag, message, error in flat_combo:
            moved[error_flag] = frozenset({()}) if error else frozenset()
            if message is not None:
                messages.append((channel, message))
        messages.extend(nested_messages)
        messages.sort(key=lambda cm: cm[0].name)
        sent = frozenset(channel.name for channel, _m in messages)
        data0 = data.merged(Instance._from_frozen(moved))

        for branch in _delivery_branches(messages, semantics):
            queues = dict(base_queues)
            enqueued: set[str] = set()
            for channel, message, delivered in branch:
                if not delivered:
                    continue
                contents = queues[channel.name]
                if (semantics.queue_bound is not None
                        and len(contents) >= semantics.queue_bound):
                    continue  # full queue: message dropped
                queues[channel.name] = contents + (message,)
                enqueued.add(channel.name)

            candidate = GlobalState(
                data=data0,
                queues=freeze_queues(queues),
                mover=mover,
                enqueued=frozenset(enqueued),
                sent=sent,
            )
            # the successor's input is chosen against the successor's
            # own options (Definition 2.3)
            for choice in _input_choices(
                    plan, snapshot_view(candidate, composition), domain):
                successors.append(
                    GlobalState(
                        data=data0.merged(Instance._from_frozen(choice)),
                        queues=candidate.queues,
                        mover=mover,
                        enqueued=candidate.enqueued,
                        sent=sent,
                    )
                )
    return successors


def peer_successors(composition: Composition, state: GlobalState,
                    mover: str, domain: Domain,
                    semantics: ChannelSemantics) -> list[GlobalState]:
    """All legal successors of *state* when peer *mover* moves."""
    composition.peer(mover)  # unknown peers raise SpecificationError
    return _move_successors(
        composition, _move_plans(composition)[mover], state,
        snapshot_view(state, composition), tuple(domain), semantics)


def successors(composition: Composition, state: GlobalState,
               domain: Domain, semantics: ChannelSemantics,
               env_one_action_per_move: bool = False,
               env_value_domain: Domain | None = None,
               movers: Collection[str] | None = None) -> list[GlobalState]:
    """All legal successors of *state* (any peer may move).

    Every peer's move reads the same view of *state*, rendered once.
    For open compositions, environment moves are included; the ``env_*``
    knobs bound the environment's nondeterminism (see
    :func:`~repro.runtime.environment.environment_successors`).

    *movers* (peer names, and ``ENV`` for the environment) keeps only
    those movers' moves: the result is the sub-sequence of the full row
    whose ``mover`` is among them, in the same order.  It defaults to
    every mover.
    """
    plans = _move_plans(composition)
    if movers is not None:
        unknown = set(movers).difference(
            plans, () if composition.is_closed else (ENVIRONMENT_NAME,))
        if unknown:
            raise SpecificationError(
                f"no mover named {sorted(unknown)} in this composition")
    view = snapshot_view(state, composition)
    domain = tuple(domain)
    out: list[GlobalState] = []
    for plan in plans.values():
        if movers is None or plan.mover in movers:
            out.extend(_move_successors(composition, plan, state, view,
                                        domain, semantics))
    if not composition.is_closed and (movers is None
                                      or ENVIRONMENT_NAME in movers):
        from .environment import environment_successors
        out.extend(
            environment_successors(
                composition, state, domain, semantics,
                one_action_per_move=env_one_action_per_move,
                value_domain=env_value_domain,
            )
        )
    return out
