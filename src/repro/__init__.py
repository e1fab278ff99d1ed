"""dataweb-verify: verification of communicating data-driven web services.

A faithful, executable reproduction of *"Verification of Communicating
Data-Driven Web Services"* (Deutsch, Sui, Vianu, Zhou -- PODS 2006): a
sound-and-complete verifier for compositions of database-driven web
service peers that communicate asynchronously over bounded queues.

Quick tour
----------

Build peers with :class:`~repro.spec.PeerBuilder`, wire them into a
:class:`~repro.spec.Composition`, and verify LTL-FO properties::

    from repro import Composition, Instance, PeerBuilder, verify

    sender = (
        PeerBuilder("S")
        .database("items", 1)
        .input("pick", 1)
        .flat_out_queue("msg", 1)
        .input_rule("pick", ["x"], "items(x)")
        .send_rule("msg", ["x"], "pick(x)")
        .build()
    )
    receiver = (
        PeerBuilder("R")
        .state("got", 1)
        .flat_in_queue("msg", 1)
        .insert_rule("got", ["x"], "?msg(x)")
        .build()
    )
    composition = Composition([sender, receiver])
    result = verify(
        composition,
        "forall x: G( R.got(x) -> S.items(x) )",
        {"S": Instance({"items": [("a",)]})},
    )
    assert result.satisfied

Sub-packages
------------

==================  =====================================================
``repro.fo``        first-order logic substrate (terms, schemas,
                    instances, evaluation, parsing)
``repro.ltl``       propositional LTL, Büchi automata, GPVW translation,
                    complementation
``repro.ltlfo``     LTL-FO sentences (Definition 3.1)
``repro.spec``      peers, rules, compositions, channel semantics
``repro.ib``        the input-boundedness checker (Section 3.1)
``repro.runtime``   operational semantics: snapshots, transitions, runs,
                    environments
``repro.verifier``  the decision procedures (Theorems 3.4, 5.4)
``repro.protocols`` conversation protocols (Section 4)
``repro.reductions`` the undecidability frontier, executable
``repro.library``   ready-made compositions (the paper's loan example,
                    e-commerce, travel, synthetic families)
==================  =====================================================
"""

from ._lazy import lazy_exports
from .errors import (
    FormulaError, InputBoundednessError, ParseError, ReproError,
    SchemaError, SemanticsError, SimulationError, SpecificationError,
    VerificationError,
)
from .fo import Instance, parse_fo
from .ltlfo import parse_ltlfo
from .spec import (
    ChannelSemantics, Composition, DECIDABLE_DEFAULT, PERFECT_BOUNDED,
    PeerBuilder,
)
from .verifier import (
    VerificationResult, verification_domain, verify, verify_all,
)

# loaded on first use: ``repro verify`` runs neither procedure, and
# simulates no run
__getattr__ = lazy_exports(__name__, {
    ".protocols": ("AgnosticProtocol", "DataAwareProtocol", "Observer",
                   "verify_agnostic", "verify_aware"),
    ".runtime.run": ("reachable_states", "simulate"),
    ".verifier.modular": ("verify_modular",),
})

__version__ = "1.0.0"

__all__ = [
    "AgnosticProtocol", "ChannelSemantics", "Composition",
    "DECIDABLE_DEFAULT", "DataAwareProtocol", "FormulaError",
    "InputBoundednessError", "Instance", "Observer", "PERFECT_BOUNDED",
    "ParseError", "PeerBuilder", "ReproError", "SchemaError",
    "SemanticsError", "SimulationError", "SpecificationError",
    "VerificationError", "VerificationResult", "__version__", "parse_fo",
    "parse_ltlfo", "reachable_states", "simulate", "verification_domain",
    "verify", "verify_agnostic", "verify_all", "verify_aware",
    "verify_modular",
]
