"""Seeded random composition generator, targeted at theorem rows.

Every spec this module emits is *well-formed* (it builds through
:class:`PeerBuilder` and verifies over the bounded domain) and is
constructed to land on one requested row of the paper's decidability
map -- the row a spec claims is part of the spec, and
:func:`repro.analysis.classify` acts as the placement oracle that must
agree.  The rows and how we hit them:

========  ==================================================
row       construction
========  ==================================================
``3.4``   lossy k-bounded channels over an input-bounded
          relay topology (the decidable baseline)
``3.6``   the same topology with ``queue_bound=None``
``3.7``   perfect (non-lossy) channels
``3.8``   deterministic flat sends (``error_Q`` discipline)
``3.9``   a nested channel whose consumer tests ``empty_Q``
          while empty nested sends are enqueued
``3.5``   an input-boundedness violation injected into an
          otherwise decidable spec (an input menu reading
          non-ground state)
========  ==================================================

Determinism contract: :func:`generate` uses only its private
``random.Random(seed)`` stream, so ``generate(seed, row)`` is
reproducible bit-for-bit -- corpus files name their seed and row and
can always be regenerated.
"""

from __future__ import annotations

import random

from .._record import field, record, replace
from ..fo.instance import Instance
from ..spec.channels import (
    ChannelSemantics, FlatSendDiscipline, NestedEmptySend,
)
from ..spec.composition import Composition
from ..spec.dsl import dump_document
from ..spec.peer import Peer, PeerBuilder

#: The theorem rows the generator can target, with the classification
#: each row's specs must receive (``None`` entries are not asserted).
THEOREM_ROWS: dict[str, dict] = {
    "3.4": {"theorem": "Theorem 3.4", "decidable": True,
            "restriction": None},
    "3.5": {"theorem": None, "decidable": False,
            "restriction": "input-boundedness"},
    "3.6": {"theorem": "Corollary 3.6", "decidable": False,
            "restriction": "bounded queues"},
    "3.7": {"theorem": "Theorem 3.7", "decidable": False,
            "restriction": "lossy channels"},
    "3.8": {"theorem": "Theorem 3.8", "decidable": False,
            "restriction": "nondeterministic flat sends"},
    "3.9": {"theorem": "Theorem 3.9", "decidable": False,
            "restriction": "no emptiness tests on nested messages"},
}

_VALUE_POOL = ("a", "b", "c", "d")


@record(frozen=True)
class GeneratedSpec:
    """One generated scenario: a spec plus the row it claims to sit on."""

    seed: int
    row: str
    name: str
    composition: Composition
    databases: dict[str, Instance]
    properties: dict[str, str]
    semantics: ChannelSemantics
    #: Expected classification (from :data:`THEOREM_ROWS`).
    expected_theorem: str | None = None
    expected_decidable: bool = True
    expected_restriction: str | None = None
    #: Known verdicts (property name -> satisfied); only asserted when
    #: the row is verifiable and the topology makes the verdict certain.
    expected_verdicts: dict[str, bool] = field(default_factory=dict)
    #: Whether the verifier's own IB pre-check must be disabled (row 3.5
    #: deliberately violates it; the search stays sound for bug finding).
    check_input_bounded: bool = True

    @property
    def verifiable(self) -> bool:
        """Whether the verify-based oracles can run (bounded queues)."""
        return self.semantics.bounded

    def matches_classification(self, classification) -> bool:
        """Does the analyzer's verdict agree with the requested row?"""
        if classification.decidable != self.expected_decidable:
            return False
        if (self.expected_theorem is not None
                and classification.theorem != self.expected_theorem):
            return False
        if (self.expected_restriction is not None
                and classification.restriction_violated
                != self.expected_restriction):
            return False
        return True

    def to_dws(self, extra_header: str = "") -> str:
        """Emit the spec as a replayable ``.dws`` document."""
        sem = self.semantics
        header = (
            f"{self.name}\n"
            f"generated by `repro fuzz --seed {self.seed}"
            f" --row {self.row}`\n"
            f"row: {self.row}  (expected: "
            f"{self.expected_theorem or self.expected_restriction})\n"
            f"semantics: lossy={sem.lossy} queue_bound={sem.queue_bound} "
            f"flat_send={sem.flat_send.value} "
            f"nested_empty_send={sem.nested_empty_send.value}"
        )
        if extra_header:
            header += "\n" + extra_header
        return dump_document(self.composition, self.databases,
                             self.properties, header=header)


# -- topology pieces ---------------------------------------------------------


def _source_peer(name: str, out_queue: str, gated: bool) -> Peer:
    """A peer whose user picks database values and ships them."""
    builder = (
        PeerBuilder(name)
        .database("items", 1)
        .input("pick", 1)
        .flat_out_queue(out_queue, 1)
    )
    if gated:
        # a propositional one-shot gate keeps the menu input-bounded
        # while shrinking the state space: after the first pick the
        # menu closes
        builder = (
            builder.state("picked", 0)
            .input_rule("pick", ["x"], "items(x) & ~picked")
            .insert_rule("picked", [], "exists x: pick(x)")
        )
    else:
        builder = builder.input_rule("pick", ["x"], "items(x)")
    return builder.send_rule(out_queue, ["x"], "pick(x)").build()


def _relay_peer(name: str, in_queue: str, out_queue: str,
                remember: bool) -> Peer:
    builder = (
        PeerBuilder(name)
        .flat_in_queue(in_queue, 1)
        .flat_out_queue(out_queue, 1)
        .send_rule(out_queue, ["x"], f"?{in_queue}(x)")
    )
    if remember:
        builder = builder.state("seen", 1).insert_rule(
            "seen", ["x"], f"?{in_queue}(x)"
        )
    return builder.build()


def _sink_peer(name: str, in_queue: str, with_action: bool) -> Peer:
    builder = (
        PeerBuilder(name)
        .state("done", 1)
        .flat_in_queue(in_queue, 1)
        .insert_rule("done", ["x"], f"?{in_queue}(x)")
    )
    if with_action:
        builder = builder.action("report", 1).action_rule(
            "report", ["x"], f"?{in_queue}(x)"
        )
    return builder.build()


def _nested_pair(producer: str, consumer: str,
                 test_emptiness: bool) -> tuple[Peer, Peer]:
    """A nested channel: producer publishes its table as one message.

    The publish input is one-shot (a propositional gate closes the menu
    after the first send), which keeps the reachable product small
    without changing which theorem row the pair lands on.
    """
    prod = (
        PeerBuilder(producer)
        .database("rows", 1)
        .input("publish", 0)
        .state("published", 0)
        .nested_out_queue("bulk", 1)
        .input_rule("publish", [], "~published")
        .send_rule("bulk", ["x"], "publish & rows(x)")
        .insert_rule("published", [], "publish")
        .build()
    )
    cons = PeerBuilder(consumer).nested_in_queue("bulk", 1)
    cons = cons.state("stored", 1).insert_rule("stored", ["x"], "?bulk(x)")
    if test_emptiness:
        # the Theorem 3.9 trigger: a rule observing the empty_Q flag of
        # a nested in-queue, meaningful because empty messages enqueue
        cons = cons.state("sawEmpty", 0).insert_rule(
            "sawEmpty", [], "empty_bulk"
        )
    return prod, cons.build()


# -- the generator -----------------------------------------------------------


def _row_semantics(row: str, rng: random.Random) -> ChannelSemantics:
    # verifiable rows stay 1-bounded so the oracle stack (5 full
    # verifications per property) explores a small product; only the
    # unbounded row -- which is classified, never searched -- varies
    if row == "3.6":
        return ChannelSemantics(lossy=True, queue_bound=None)
    if row == "3.7":
        return ChannelSemantics(lossy=False, queue_bound=1)
    if row == "3.8":
        return ChannelSemantics(
            lossy=True, queue_bound=1,
            flat_send=FlatSendDiscipline.DETERMINISTIC_ERROR,
        )
    if row == "3.9":
        return ChannelSemantics(
            lossy=True, queue_bound=1,
            nested_empty_send=NestedEmptySend.ENQUEUE,
        )
    return ChannelSemantics(lossy=True, queue_bound=1)


def generate(seed: int, row: str = "3.4") -> GeneratedSpec:
    """One well-formed scenario targeting *row* of the decidability map.

    The topology is a randomized relay pipeline (source -> 0..2 relays
    -> sink) with a known-satisfied safety property and a
    known-violated-under-lossy liveness property; the row is selected
    by the channel semantics, by a nested side channel (row 3.9), or by
    an injected input-boundedness violation (row 3.5).
    """
    if row not in THEOREM_ROWS:
        raise ValueError(
            f"unknown theorem row {row!r}; "
            f"available: {', '.join(sorted(THEOREM_ROWS))}"
        )
    rng = random.Random((seed + 1) * 7919 + len(row))
    expect = THEOREM_ROWS[row]

    # the unverified rows (3.6 is classified, never searched) may grow
    # larger topologies; the verified rows stay small because the
    # oracle stack runs five full verifications per property
    n_relays = rng.randint(0, 2) if row == "3.6" else rng.randint(0, 1)
    if row == "3.9":
        n_relays = 0   # the nested pair below is the interesting part
    if row == "3.6":
        n_items = rng.randint(1, 2)
    else:
        n_items = 1 if rng.random() < 0.7 else 2
    gated = rng.random() < 0.7 or row == "3.9"
    with_action = rng.random() < 0.5 and row != "3.9"

    peers = [_source_peer("S", "q0", gated=gated)]
    for i in range(n_relays):
        peers.append(_relay_peer(f"M{i + 1}", f"q{i}", f"q{i + 1}",
                                 remember=rng.random() < 0.5))
    sink = f"T{n_relays}"
    peers.append(_sink_peer(sink, f"q{n_relays}",
                            with_action=with_action))

    if row == "3.9":
        prod, cons = _nested_pair("NP", "NC", test_emptiness=True)
        peers.extend([prod, cons])
    elif row == "3.6" and rng.random() < 0.5:
        # straddle the 3.9 frontier from the safe side: a nested
        # channel whose consumer does NOT test emptiness stays on
        # whatever row the flat semantics select
        prod, cons = _nested_pair("NP", "NC", test_emptiness=False)
        peers.extend([prod, cons])

    if row == "3.5":
        # the injected violation: an input menu over non-ground state
        # (DWV003/DWV005 -- the Theorem 3.5/3.10 shape).  The peer is
        # deliberately inert (its state never populates, so its menu
        # stays empty and the product barely grows); the violation is
        # a static property of the rules, not of any reachable run.
        ack_peer = (
            PeerBuilder("A")
            .state("log", 1)
            .input("ack", 1)
            .insert_rule("log", ["x"], "ack(x)")
            .input_rule("ack", ["x"], "log(x)")
            .build()
        )
        peers.append(ack_peer)

    composition = Composition(peers)

    items = rng.sample(_VALUE_POOL, n_items)
    databases = {"S": Instance({"items": [(v,) for v in sorted(items)]})}
    if any(p.name == "NP" for p in peers):
        databases["NP"] = Instance({
            "rows": [(rng.choice(_VALUE_POOL),)]
        })

    properties = {
        "safety": f"forall x: G( {sink}.done(x) -> S.items(x) )",
        "liveness": f"forall x: G( S.pick(x) -> F {sink}.done(x) )",
    }
    expected_verdicts: dict[str, bool] = {}
    if row == "3.4":
        # lossy bounded channels: delivery is guaranteed nowhere, so the
        # liveness property fails; the safety property is structural
        expected_verdicts = {"safety": True, "liveness": False}

    return GeneratedSpec(
        seed=seed,
        row=row,
        name=f"fuzz case seed={seed} row={row}: "
             f"{n_relays}-relay pipeline, {n_items} item(s)",
        composition=composition,
        databases=databases,
        properties=properties,
        semantics=_row_semantics(row, rng),
        expected_theorem=expect["theorem"],
        expected_decidable=expect["decidable"],
        expected_restriction=expect["restriction"],
        expected_verdicts=expected_verdicts,
        check_input_bounded=(row != "3.5"),
    )


def with_composition(spec: GeneratedSpec, composition: Composition,
                     databases: dict[str, Instance],
                     properties: dict[str, str]) -> GeneratedSpec:
    """A copy of *spec* with a reduced composition (used by the shrinker).

    Verdict expectations are dropped -- a shrunk topology no longer
    guarantees them -- while the row expectations stay, because the
    shrinker's predicate decides which oracles must keep failing.
    """
    return replace(
        spec,
        composition=composition,
        databases=databases,
        properties=properties,
        expected_verdicts={},
    )
