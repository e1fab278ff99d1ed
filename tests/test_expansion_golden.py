"""Golden digests of the expansion kernel's output.

The seed, shared, local-shard and shard differentials all call the same
:func:`repro.runtime.step.successors`, so a change to the order in
which it lists successors would move every lasso and still pass them
all.  This module pins that order, and the states themselves, against
recorded sha256 digests:

* per graph, the completed reachable snapshot graph of one composition,
  database, domain and semantics: its states in interned-id order (each
  rendered with sorted rows), its initial ids, and its successor rows
  flattened in id order (``offsets``/``targets``);
* per violated library property, the decisive valuation, the lasso and
  ``product_nodes_visited`` of a ``verify()`` run with the valuation
  candidates ``repro profile`` uses -- in process and as two local
  shards (``workers=2``), which must both match the recorded row;
* per ``verify_agnostic``, ``verify_aware`` and ``verify_modular`` case
  of ``test_protocols.py``, ``test_verifier_modular.py`` and
  ``test_library_credit_check.py``, the verdict, decisive valuation,
  lasso and search counters; every violated row's lasso must replay
  through :func:`repro.runtime.validate_lasso`.

Renderings sort every set, and the GPVW translator
(:mod:`repro.ltl.translate`) expands in a canonical order, so every row
is computed in process and none depends on ``PYTHONHASHSEED`` (CI diffs
the tables printed under two seeds).  When the successor relation
changes on purpose, regenerate the tables with

    PYTHONPATH=src python tests/test_expansion_golden.py

and paste its output over ``GRAPH_DIGESTS``, ``VERDICT_DIGESTS`` and
``PROCEDURE_DIGESTS``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.fo import Instance, parse_fo
from repro.fo.terms import value_sort_key
from repro.library import dispatch, ecommerce, loan, payments, travel
from repro.ltl import (
    BuchiAutomaton, Edge, Guard, latom, lfinally, lglobally, limplies, lnot,
)
from repro.ltlfo.parser import parse_ltlfo
from repro.protocols import (
    AgnosticProtocol, DataAwareProtocol, Observer, verify_agnostic,
    verify_aware,
)
from repro.runtime import validate_lasso
from repro.spec import (
    DECIDABLE_DEFAULT, PERFECT_BOUNDED, Composition, PeerBuilder,
)
from repro.spec.dsl import load_document
from repro.verifier import (
    SharedExploration, TransitionCache, property_engines,
    verification_domain, verify, verify_modular,
)
from repro.verifier.domain import VerificationDomain

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = {
    "auction.dws": ROOT / "examples" / "specs" / "auction.dws",
    "batch.dws": Path(__file__).resolve().parent / "fixtures" / "batch.dws",
}


# -- rendering ---------------------------------------------------------------


def _rows(rows) -> str:
    ordered = sorted(rows, key=lambda row: tuple(map(value_sort_key, row)))
    return "{" + ",".join(repr(row) for row in ordered) + "}"


def render_state(state) -> str:
    """A snapshot as text: non-empty relations, queues, mover, events."""
    data = ";".join(f"{name}={_rows(rows)}"
                    for name, rows in state.data.items() if rows)
    queues = ";".join(
        f"{name}=[{','.join(_rows(message) for message in contents)}]"
        for name, contents in state.queues)
    return (f"{data}|{queues}|{state.mover}|{sorted(state.enqueued)}"
            f"|{sorted(state.sent)}")


def graph_digest(exploration) -> str:
    """Digest of a completed :class:`SharedExploration`."""
    h = hashlib.sha256()
    ids = range(len(exploration.interner))
    for sid in ids:
        h.update(render_state(exploration.state_of(sid)).encode())
        h.update(b"\n")
    offsets, targets = [0], []
    for sid in ids:
        targets.extend(exploration.successors_of(sid))
        offsets.append(len(targets))
    for name, numbers in (("initial", exploration.initial()),
                          ("offsets", offsets), ("targets", targets)):
        h.update(f"{name}={list(numbers)}\n".encode())
    return h.hexdigest()


def lasso_digest(lasso) -> str:
    h = hashlib.sha256()
    for part, states in (("prefix", lasso.prefix), ("cycle", lasso.cycle)):
        h.update(f"{part}:{len(states)}\n".encode())
        for state in states:
            h.update(render_state(state).encode())
            h.update(b"\n")
    return h.hexdigest()


# -- inputs ------------------------------------------------------------------


def _credit_check():
    """The open credit-check set-up of ``test_library_credit_check.py``."""
    composition = loan.credit_check_composition()
    databases = {"O": Instance({"customer": [("c1", "s1", "ann")]})}
    domain = verification_domain(composition, [], databases, fresh_count=1)
    if "fair" not in domain.constants:
        domain = VerificationDomain(domain.constants + ("fair",),
                                    domain.fresh)
    env_values = ("s1", "fair", domain.fresh[0])
    candidates = {"ssn": ("s1",), "r": ("fair", domain.fresh[0])}
    return composition, databases, domain, env_values, candidates


#: library name -> (module, arguments of its ``standard_database``)
LIBRARIES = {"loan": (loan, ("fair",)), "ecommerce": (ecommerce, ("good",)),
             "travel": (travel, ()), "payments": (payments, ()),
             "dispatch": (dispatch, ())}

#: Libraries whose completed graph is pinned (travel's is not needed:
#: its violated property is pinned below).
LIBRARY_GRAPHS = ("loan", "payments", "dispatch", "ecommerce")


def _library(name: str):
    module, db_args = LIBRARIES[name]
    composition = getattr(module, f"{name}_composition")()
    databases = module.standard_database(*db_args)
    domain = verification_domain(composition, [], databases, fresh_count=1)
    return module, composition, databases, domain


def _complete(exploration):
    assert exploration.complete()
    return exploration


def _explore(composition, databases, values, env_values=None):
    return _complete(SharedExploration(TransitionCache(
        composition, databases, values, DECIDABLE_DEFAULT,
        env_value_domain=env_values)))


def graph_case(key: str):
    """The completed exploration pinned under *key*."""
    if key in LIBRARY_GRAPHS:
        _module, composition, databases, domain = _library(key)
        return _explore(composition, databases, domain.values)
    if key == "credit_check":
        composition, databases, domain, env_values, _ = _credit_check()
        return _explore(composition, databases, domain.values, env_values)
    document, index = key.rsplit("#", 1)
    return _complete(_document_explorations(document)[int(index)])


def _document_explorations(document: str) -> list:
    """One exploration per distinct property domain, as ``repro verify``."""
    composition, databases, properties = load_document(
        DOCUMENTS[document].read_text())
    plan = property_engines(
        composition,
        [parse_ltlfo(properties[n], composition.schema)
         for n in sorted(properties)],
        databases)
    return list({id(engine): engine for _d, engine in plan}.values())


#: Violated library properties as ``<set-up>.<PROPERTY_ suffix>``.
VIOLATED = (
    "loan.BANK_POLICY", "loan.BANK_POLICY_OPEN", "loan.RESPONSIVENESS",
    "ecommerce.ORDER_RESOLVED", "travel.BOOKING_CONFIRMED",
    "payments.PAYMENT_CAPTURED", "payments.REFUND_AFTER_CAPTURE",
    "dispatch.PICKUP_REQUESTED", "dispatch.REQUEST_SERVED",
    "credit_check.RECORDED_CATEGORIES_KNOWN",
)

#: The valuation candidates ``repro profile`` passes instead of a
#: library's ``STANDARD_CANDIDATES``.
PROFILE_CANDIDATES = {
    "ecommerce": {"p": ("widget",), "card": ("visa", "amex")},
    "travel": {"f": ("fl1",), "d": ("rome",)},
}


def verdict_case(key: str, workers: int = 1) -> list:
    """``[decisive valuation, lasso digest, product nodes visited]``."""
    setup, constant = key.split(".")
    extra = {}
    if setup == "credit_check":
        (composition, databases, domain, env_values,
         candidates) = _credit_check()
        module = loan
        extra["env_value_domain"] = env_values
    else:
        module, composition, databases, domain = _library(setup)
        candidates = (PROFILE_CANDIDATES[setup]
                      if setup in PROFILE_CANDIDATES
                      else module.STANDARD_CANDIDATES)
    result = verify(composition, getattr(module, f"PROPERTY_{constant}"),
                    databases, domain=domain,
                    valuation_candidates=candidates, workers=workers,
                    **extra)
    assert not result.satisfied, key
    return [repr(sorted(result.counterexample.valuation.items())),
            lasso_digest(result.counterexample.lasso),
            result.stats.product_nodes_visited]


# -- protocol and modular procedures ----------------------------------------


def _ack_chain():
    """``ack_chain()`` and its database from ``test_protocols.py``."""
    sender = (
        PeerBuilder("S")
        .database("items", 1).input("pick", 1)
        .flat_out_queue("msg", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("msg", ["x"], "pick(x)")
        .build()
    )
    relay = (
        PeerBuilder("R")
        .flat_in_queue("msg", 1).flat_out_queue("ack", 1)
        .send_rule("ack", ["x"], "?msg(x)")
        .build()
    )
    sink = (
        PeerBuilder("T")
        .flat_in_queue("ack", 1).state("done", 1)
        .insert_rule("done", ["x"], "?ack(x)")
        .build()
    )
    return (Composition([sender, relay, sink]),
            {"S": Instance({"items": [("a",)]})})


def _open_relay():
    """The ``open_relay`` fixture and the database of
    ``test_verifier_modular.py``."""
    p0 = (
        PeerBuilder("P0")
        .database("items", 1)
        .input("pick", 1)
        .flat_out_queue("outbound", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("outbound", ["x"], "pick(x)")
        .build()
    )
    p1 = (
        PeerBuilder("P1")
        .state("seen", 1)
        .flat_in_queue("inbound", 1)
        .insert_rule("seen", ["x"], "?inbound(x)")
        .build()
    )
    return (Composition([p0, p1]),
            {"P0": Instance({"items": [("a",)]})})


def _never(symbol: str) -> BuchiAutomaton:
    """The deterministic one-state automaton for ``G ~symbol``."""
    return BuchiAutomaton(
        states={0}, initial={0},
        edges=[Edge(0, Guard(neg=frozenset({symbol})), 0)],
        accepting={0}, aps={symbol},
    )


#: ``PROP`` of ``test_verifier_modular.py``'s modular cases.
RELAY_PROPERTY = 'forall x: G( P1.seen(x) -> x = "a" )'

#: Example 5.1's spec, as ``test_library_credit_check.py`` writes it.
CREDIT_CHECK_EX51 = (
    "G forall ssn: ?getRating(ssn) -> "
    '( !rating(ssn, "poor") | !rating(ssn, "fair") '
    '| !rating(ssn, "good") | !rating(ssn, "excellent") )'
)


def procedure_case(key: str):
    """Run one protocol or modular case as its test calls it.

    Returns the result and the arguments that replay its lasso:
    ``(result, composition, databases, domain values, semantics,
    env_value_domain)``.
    """
    family, name = key.split(".")
    semantics, env_values = DECIDABLE_DEFAULT, None
    if family in ("agnostic", "aware"):
        composition, databases = _ack_chain()
        values = verification_domain(composition, [], databases).values
        if name.startswith("buchi"):
            semantics = PERFECT_BOUNDED
    if family == "agnostic":
        protocol = {
            "no_ack_before_msg": lambda: AgnosticProtocol.from_ltl(
                "(~ack U msg) | G ~ack"),
            "msg_eventually_acked": lambda: AgnosticProtocol.from_ltl(
                "G( msg -> F ack )"),
            "buchi_no_ack": lambda: AgnosticProtocol.from_buchi(
                _never("ack")),
            "source_sees_lost_sends": lambda: AgnosticProtocol.from_ltl(
                "G ~msg", observer=Observer.SOURCE),
        }[name]()
        result = verify_agnostic(composition, protocol, databases,
                                 semantics=semantics)
    elif family == "aware":
        schema = composition.schema
        bad_msg = {"bad_msg": parse_fo('S.msg("zz")', schema)}
        protocol = {
            "no_bad_msg": lambda: DataAwareProtocol(
                symbols=bad_msg, ltl=lglobally(lnot(latom("bad_msg")))),
            "msg_acked_with_content": lambda: DataAwareProtocol(
                symbols={"m": parse_fo("S.msg(x)", schema),
                         "k": parse_fo("R.ack(x)", schema)},
                ltl=lglobally(limplies(latom("m"), lfinally(latom("k"))))),
            "buchi_no_bad_msg": lambda: DataAwareProtocol(
                symbols=bad_msg, automaton=_never("bad_msg")),
        }[name]()
        result = verify_aware(composition, protocol, databases,
                              semantics=semantics)
    elif family == "modular":
        composition, databases = _open_relay()
        domain = VerificationDomain(("a",), ("$f0",))
        values = domain.values
        spec, observer, nonstrict = {
            "source_spec": ('G forall x: !inbound(x) -> x = "a"',
                            "source", False),
            "recipient_spec": ("G forall x: ?outbound(x) -> !inbound(x)",
                               "recipient", False),
            "nonstrict_spec": ('forall x: G ( !inbound(x) -> x = "a" )',
                               "source", True),
        }[name]
        result = verify_modular(
            composition, RELAY_PROPERTY, spec, databases, domain=domain,
            allow_nonstrict=nonstrict, observer=observer,
            valuation_candidates={"x": ("a", "$f0")})
    else:
        (composition, databases, domain, env_values,
         candidates) = _credit_check()
        values = domain.values
        spec, observer = {
            "source_spec": (loan.ENV_SPEC_RATING_CONTENT, "source"),
            "recipient_spec": (CREDIT_CHECK_EX51, "recipient"),
        }[name]
        result = verify_modular(
            composition, loan.PROPERTY_RECORDED_CATEGORIES_KNOWN, spec,
            databases, domain=domain, observer=observer,
            valuation_candidates=candidates, env_value_domain=env_values)
    return result, composition, databases, values, semantics, env_values


#: ``<procedure family>.<case>`` for every protocol and modular case.
PROCEDURES = (
    "agnostic.no_ack_before_msg", "agnostic.msg_eventually_acked",
    "agnostic.buchi_no_ack", "agnostic.source_sees_lost_sends",
    "aware.no_bad_msg", "aware.msg_acked_with_content",
    "aware.buchi_no_bad_msg",
    "modular.source_spec", "modular.recipient_spec",
    "modular.nonstrict_spec",
    "credit_check.source_spec", "credit_check.recipient_spec",
)


def procedure_row(key: str) -> dict:
    """The pinned row of one case and its lasso's replay problems."""
    (result, composition, databases, values, semantics,
     env_values) = procedure_case(key)
    stats = result.stats
    counterexample = result.counterexample
    row = [result.verdict,
           None if counterexample is None
           else repr(sorted(counterexample.valuation.items())),
           None if counterexample is None
           else lasso_digest(counterexample.lasso),
           stats.valuations_checked, stats.product_nodes_visited,
           stats.nba_states_total, stats.system_states]
    replay = [] if counterexample is None else validate_lasso(
        composition, databases, values, counterexample.lasso,
        semantics=semantics, env_value_domain=env_values)
    return {"row": row, "replay": replay}


# -- recorded digests --------------------------------------------------------

GRAPH_DIGESTS = {
    'loan':
        '82cc664e872ed26b0947bb40a63df7feaede15b89d38c34f6915248cb412e10a',
    'payments':
        'c89b6f22eed0bd562fed31063a3a220474c11978c1a99ee7fc05302de4b93ad5',
    'dispatch':
        'd4c3c72535783035c52340a0aa985ba5f38990666bd91b1bba2352f7d12354f1',
    'ecommerce':
        'fff074017df59e9bbaa32aec8421c14fc3d8eea6b11130f9a2a818c614a241e1',
    'credit_check':
        '7fe97c38765fc92ed60adc45dde712422f9498ad682630712cf3d9f76ef2c39e',
    'auction.dws#0':
        '975fc1733e913b3a0054d9c94331f594bcd6004f60184f724281edfb419b6f77',
    'batch.dws#0':
        'beb80a696faf223f6330ab8dba423d557c440deaf0cfdcd5a0bfe09431c70c75',
    'batch.dws#1':
        'beb80a696faf223f6330ab8dba423d557c440deaf0cfdcd5a0bfe09431c70c75',
}

VERDICT_DIGESTS = {
    'loan.BANK_POLICY': [
        "[('id', 'c1'), ('loan', 'small'), ('name', 'ann')]",
        'd5c2c6cc792ac10d8c73497ec6e247e827e081c9049bef7b055620afe01b1809', 553],
    'loan.BANK_POLICY_OPEN': [
        "[('id', 'c1'), ('loan', 'small'), ('name', 'ann')]",
        'd5c2c6cc792ac10d8c73497ec6e247e827e081c9049bef7b055620afe01b1809', 553],
    'loan.RESPONSIVENESS': [
        "[('id', 'c1'), ('l', 'small'), ('name', 'ann'), ('ssn', 's1')]",
        '98084c2ce514f393750b4f53c92cbbdb862895b14b50ef1cc5e4c0045045fe78', 27],
    'ecommerce.ORDER_RESOLVED': [
        "[('card', 'amex'), ('p', 'widget')]",
        'bbb745343d22629b7890f5c43744a0fa2f878405779222795f5b6407ae0e6fd6', 40],
    'travel.BOOKING_CONFIRMED': [
        "[('d', 'rome')]",
        'db767b601df5565512b656382e5d936ed127c1b4d71de8bc00778f76a9dabb5e', 60],
    'payments.PAYMENT_CAPTURED': [
        "[('x', 'g1')]",
        '9e718ccad107d1d76824f17d1f2434185b87f37cbff90316132acca48f301b6e', 39],
    'payments.REFUND_AFTER_CAPTURE': [
        "[('x', 'g2')]",
        '17fedf5e0d782739821e9a34371a24826f30b6c7d089b06193e5930649a43b97', 170],
    'dispatch.PICKUP_REQUESTED': [
        "[('z', 'airport')]",
        '53c704e3ccd97857530a0e0cda006f66379ab129140e09119f56c4736c1b220f', 95],
    'dispatch.REQUEST_SERVED': [
        "[('z', 'downtown')]",
        'cbf9c26fdef21634b0684584a631882e5980316050be2328588cfce685a28de5', 831],
    'credit_check.RECORDED_CATEGORIES_KNOWN': [
        "[('r', '$v0'), ('ssn', 's1')]",
        '241ccf3496bd2e019b70204ff8bcd439cea4950c8188162697e3d0eed01182e0', 693],
}

PROCEDURE_DIGESTS = {
    'agnostic.no_ack_before_msg': [
        'SATISFIED', None,
        None,
        1, 28, 14, 16],
    'agnostic.msg_eventually_acked': [
        'VIOLATED', '[]',
        '2902e9412967f958bb10fd5ee60954e4df095b8c993269290f3a75b50772f37c',
        1, 55, 4, 38],
    'agnostic.buchi_no_ack': [
        'VIOLATED', '[]',
        'bd86eda8d31a9c36b161c5683d21eb9c173af7acb7a1a93fbb4d9e69f85a9f44',
        1, 32, 2, 32],
    'agnostic.source_sees_lost_sends': [
        'VIOLATED', '[]',
        '2fab0893bb0df2cf081fd5a8225afbdc739d4dd636321bf1f1ec6ef0e291d984',
        1, 36, 4, 32],
    'aware.no_bad_msg': [
        'SATISFIED', None,
        None,
        1, 76, 4, 76],
    'aware.msg_acked_with_content': [
        'VIOLATED', "[('x', 'a')]",
        '0d53b8f89041201c98e7bc979b120d39786b1d095b195da242abcea5d5946357',
        1, 15, 4, 11],
    'aware.buchi_no_bad_msg': [
        'SATISFIED', None,
        None,
        1, 58, 2, 58],
    'modular.source_spec': [
        'SATISFIED', None,
        None,
        2, 1956, 65, 98],
    'modular.recipient_spec': [
        'VIOLATED', "[('x', '$f0')]",
        '10e0158c701c7747a21a88d28cd50c2d07fd3fe943c00d5ea4440e0831c0a6e3',
        2, 5930, 107, 290],
    'modular.nonstrict_spec': [
        'SATISFIED', None,
        None,
        2, 5452, 157, 98],
    'credit_check.source_spec': [
        'SATISFIED', None,
        None,
        2, 2168, 65, 70],
    'credit_check.recipient_spec': [
        'VIOLATED', "[('r', '$v0'), ('ssn', 's1')]",
        'f2a57718f02054713e4357b15202dd5ffa68a69fbfa19f60f97c4dda0098e4c8',
        2, 5450, 107, 658],
}


@pytest.mark.parametrize("key", sorted(GRAPH_DIGESTS))
def test_graph_digest(key):
    assert graph_digest(graph_case(key)) == GRAPH_DIGESTS[key]


@pytest.fixture(scope="module")
def verdict_rows() -> dict[str, dict]:
    """Every ``verdict_case`` row per worker count (``"1"``, ``"2"``)
    and every ``procedure_row`` (``"procedures"``)."""
    rows: dict[str, dict] = {
        str(workers): {key: verdict_case(key, workers) for key in VIOLATED}
        for workers in (1, 2)}
    rows["procedures"] = {key: procedure_row(key) for key in PROCEDURES}
    return rows


@pytest.mark.parametrize("key", VIOLATED)
def test_violated_property(key, verdict_rows):
    assert verdict_rows["1"][key] == VERDICT_DIGESTS[key]


@pytest.mark.parametrize("key", VIOLATED)
def test_violated_property_local_shards(key, verdict_rows):
    assert verdict_rows["2"][key] == VERDICT_DIGESTS[key]


@pytest.mark.parametrize("key", PROCEDURES)
def test_procedure(key, verdict_rows):
    assert verdict_rows["procedures"][key]["row"] == PROCEDURE_DIGESTS[key]


@pytest.mark.parametrize("key", PROCEDURES)
def test_procedure_lasso_replays(key, verdict_rows):
    assert verdict_rows["procedures"][key]["replay"] == []


def test_every_case_is_recorded():
    assert list(GRAPH_DIGESTS) == _graph_keys()
    assert tuple(VERDICT_DIGESTS) == VIOLATED
    assert tuple(PROCEDURE_DIGESTS) == PROCEDURES


def _graph_keys() -> list[str]:
    keys = [*LIBRARY_GRAPHS, "credit_check"]
    for document in DOCUMENTS:
        count = len(_document_explorations(document))
        keys.extend(f"{document}#{i}" for i in range(count))
    return keys


if __name__ == "__main__":
    print("GRAPH_DIGESTS = {")
    for key in _graph_keys():
        print(f"    {key!r}:\n        {graph_digest(graph_case(key))!r},")
    print("}\n\nVERDICT_DIGESTS = {")
    for key in VIOLATED:
        valuation, lasso, nodes = verdict_case(key)
        print(f"    {key!r}: [\n        {valuation!r},\n"
              f"        {lasso!r}, {nodes}],")
    print("}\n\nPROCEDURE_DIGESTS = {")
    for key in PROCEDURES:
        verdict, valuation, lasso, *counts = procedure_row(key)["row"]
        print(f"    {key!r}: [\n        {verdict!r}, {valuation!r},\n"
              f"        {lasso!r},\n        {', '.join(map(str, counts))}],")
    print("}")
