"""Golden digests of the expansion kernel's output.

The seed, shared, local-shard and shard differentials all call the same
:func:`repro.runtime.step.successors`, so a change to the order in
which it lists successors would move every lasso and still pass them
all.  This module pins that order, and the states themselves, against
recorded sha256 digests:

* per graph, the completed reachable snapshot graph of one composition,
  database, domain and semantics: its states in interned-id order (each
  rendered with sorted rows), ``initial_ids`` and the CSR
  ``offsets``/``targets`` arrays;
* per violated library property, the decisive valuation, the lasso and
  ``product_nodes_visited`` of a ``verify()`` run with the valuation
  candidates ``repro profile`` uses -- in process and as two local
  shards (``workers=2``), which must both match the recorded row.

Renderings sort every set, so the digests do not depend on
``PYTHONHASHSEED``.  The verdict rows are computed in a child
interpreter with ``PYTHONHASHSEED=0``: the GPVW translator
(:mod:`repro.ltl.translate`) pops formulas from sets, so its state
numbering follows the per-process string-hash seed, and the
credit-check lasso follows that numbering (its product node count does
not).  When the successor relation changes on purpose, regenerate the
tables with

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_expansion_golden.py

and paste its output over ``GRAPH_DIGESTS`` and ``VERDICT_DIGESTS``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fo import Instance
from repro.fo.terms import value_sort_key
from repro.library import dispatch, ecommerce, loan, payments, travel
from repro.ltlfo.parser import parse_ltlfo
from repro.spec import DECIDABLE_DEFAULT
from repro.spec.dsl import load_document
from repro.verifier import (
    SharedExploration, TransitionCache, property_engines,
    verification_domain, verify,
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


def graph_digest(graph) -> str:
    h = hashlib.sha256()
    for state in graph.states:
        h.update(render_state(state).encode())
        h.update(b"\n")
    for name, numbers in (("initial", graph.initial_ids),
                          ("offsets", graph.offsets),
                          ("targets", graph.targets)):
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


def _complete(composition, databases, values, env_values=None):
    return SharedExploration(TransitionCache(
        composition, databases, values, DECIDABLE_DEFAULT,
        env_value_domain=env_values)).complete()


def graph_case(key: str):
    """The completed graph pinned under *key*."""
    if key in LIBRARY_GRAPHS:
        _module, composition, databases, domain = _library(key)
        return _complete(composition, databases, domain.values)
    if key == "credit_check":
        composition, databases, domain, env_values, _ = _credit_check()
        return _complete(composition, databases, domain.values, env_values)
    document, index = key.rsplit("#", 1)
    return _document_explorations(document)[int(index)].complete()


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
        '60947b83e4bf9291b6c7693d4fb1ae1976bae1f388a3de7e34bfe72d87248b09', 693],
}


@pytest.mark.parametrize("key", sorted(GRAPH_DIGESTS))
def test_graph_digest(key):
    assert graph_digest(graph_case(key)) == GRAPH_DIGESTS[key]


@pytest.fixture(scope="module")
def verdict_rows() -> dict[str, dict[str, list]]:
    """Every ``verdict_case`` row per worker count (``"1"``, ``"2"``),
    from a child with ``PYTHONHASHSEED=0``."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, __file__, "--verdicts-json"],
        env={**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(child.stdout)


@pytest.mark.parametrize("key", VIOLATED)
def test_violated_property(key, verdict_rows):
    assert verdict_rows["1"][key] == VERDICT_DIGESTS[key]


@pytest.mark.parametrize("key", VIOLATED)
def test_violated_property_local_shards(key, verdict_rows):
    assert verdict_rows["2"][key] == VERDICT_DIGESTS[key]


def test_every_case_is_recorded():
    assert list(GRAPH_DIGESTS) == _graph_keys()
    assert tuple(VERDICT_DIGESTS) == VIOLATED


def _graph_keys() -> list[str]:
    keys = [*LIBRARY_GRAPHS, "credit_check"]
    for document in DOCUMENTS:
        count = len(_document_explorations(document))
        keys.extend(f"{document}#{i}" for i in range(count))
    return keys


if __name__ == "__main__":
    if sys.argv[1:] == ["--verdicts-json"]:
        print(json.dumps({
            str(workers): {key: verdict_case(key, workers)
                           for key in VIOLATED}
            for workers in (1, 2)}))
        sys.exit(0)
    print("GRAPH_DIGESTS = {")
    for key in _graph_keys():
        print(f"    {key!r}:\n        {graph_digest(graph_case(key))!r},")
    print("}\n\nVERDICT_DIGESTS = {")
    for key in VIOLATED:
        valuation, lasso, nodes = verdict_case(key)
        print(f"    {key!r}: [\n        {valuation!r},\n"
              f"        {lasso!r}, {nodes}],")
    print("}")
