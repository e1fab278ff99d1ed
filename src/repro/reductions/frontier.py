"""Demonstration gadgets for the remaining frontier theorems.

Each gadget is a small composition + property pinpointing one relaxation
the paper proves fatal:

* :func:`deterministic_send_gadget` -- Theorem 3.8's semantics: flat
  sends with several candidates raise the ``error_Q`` flag instead of
  picking nondeterministically.  The gadget's property watches the flag,
  so its verdict flips with the
  :class:`~repro.spec.channels.FlatSendDiscipline`.
* :func:`emptiness_test_gadget` -- Theorem 3.9's relaxation: a property
  that tests *non-emptiness of a nested message* (``exists x: ?Q(x)``).
  The input-boundedness checker rejects the property (quantified variable
  in a nested-queue atom); with the check disabled, the bounded-domain
  search still runs and distinguishes an empty nested message from no
  message at all -- the distinction that powers the theorem's reduction.
* :func:`nonground_nested_gadget` -- Theorem 3.10's relaxation: an input
  rule with a *non-ground nested in-queue atom*.  The checker rejects the
  peer; the gadget exists to pin the boundary in tests.

Together with :mod:`repro.reductions.halting` (Theorems 3.7/3.8's
halting reductions) these make the undecidability frontier executable:
everything inside the fragment verifies; each single relaxation is either
rejected by the checker or demonstrably simulates unbounded computation.
"""

from __future__ import annotations

from ..fo.instance import Instance
from ..spec.composition import Composition
from ..spec.peer import Peer, PeerBuilder


def deterministic_send_gadget() -> tuple[Composition, dict, str]:
    """(composition, databases, property) for the Theorem 3.8 semantics.

    The shipper's send rule yields one candidate per catalog row; with
    two rows the deterministic-send discipline must raise ``error_ship``.
    The property ``G ~S.error_ship`` is therefore SATISFIED under the
    nondeterministic discipline and VIOLATED under the deterministic one.
    """
    shipper = (
        PeerBuilder("S")
        .database("catalog", 1)
        .input("go", 0)
        .flat_out_queue("ship", 1)
        .input_rule("go", [], "true")
        .send_rule("ship", ["x"], "go & catalog(x)")
        .build()
    )
    receiver = (
        PeerBuilder("R")
        .state("got", 1)
        .flat_in_queue("ship", 1)
        .insert_rule("got", ["x"], "?ship(x)")
        .build()
    )
    composition = Composition([shipper, receiver])
    databases = {"S": Instance({"catalog": [("a",), ("b",)]})}
    prop = "G ~S.error_ship"
    return composition, databases, prop


def emptiness_test_gadget() -> tuple[Composition, dict, str, str]:
    """(composition, databases, ib_property, emptiness_property).

    The reporter peer sends its (possibly empty) ``findings`` relation as
    a nested ``report`` message on every move -- under the paper-faithful
    :data:`~repro.spec.channels.NestedEmptySend.ENQUEUE` semantics, an
    *empty* message is still a message.  The auditor records that a
    report arrived (``heard``) and separately stores its rows.

    ``emptiness_property`` says "every report heard was non-empty"; it
    needs the forbidden test ``exists x: ?report(x)`` and is rejected by
    the input-boundedness checker.  ``ib_property`` is an in-fragment
    approximation ("every stored row is a finding"), illustrating what
    remains expressible.
    """
    reporter = (
        PeerBuilder("P")
        .database("findings", 1)
        .input("publish", 0)
        .nested_out_queue("report", 1)
        .input_rule("publish", [], "true")
        .send_rule("report", ["x"], "publish & findings(x)")
        .build()
    )
    auditor = (
        PeerBuilder("Q")
        .state("heard", 0)
        .state("stored", 1)
        .nested_in_queue("report", 1)
        .insert_rule("heard", [], "~empty_report")
        .insert_rule("stored", ["x"], "?report(x)")
        .build()
    )
    composition = Composition([reporter, auditor])
    databases = {"P": Instance({"findings": []})}  # empty: empty reports!
    ib_property = "forall x: G( Q.stored(x) -> P.findings(x) )"
    emptiness_property = "G( Q.heard -> (exists x: Q.?report(x)) )"
    return composition, databases, ib_property, emptiness_property


def nonground_nested_peer() -> Peer:
    """A peer whose input rule uses a non-ground nested in-queue atom
    (Theorem 3.10's relaxation; rejected by the checker)."""
    return (
        PeerBuilder("N")
        .input("act", 1)
        .nested_in_queue("feed", 1)
        .input_rule("act", ["x"], "?feed(x)")
        .build()
    )


def nonground_nested_gadget() -> Composition:
    """An open composition containing :func:`nonground_nested_peer`."""
    return Composition([nonground_nested_peer()])
