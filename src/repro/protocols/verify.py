"""Protocol-compliance checking (Theorems 4.2 and 4.5).

A composition satisfies a conversation protocol iff every run's trace is
accepted by the protocol automaton.  Verification searches the product of
the composition's snapshot graph with an automaton for the *complement*
of the protocol language (negated LTL, or rank/DBA complementation for
automaton-given protocols) for an accepting lasso, in the valuation loop
the LTL-FO verifier uses
(:func:`~repro.verifier.ltlfo_verifier.sweep_valuations`).
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from ..errors import VerificationError
from ..fo import formulas as fo
from ..fo.evaluator import evaluate
from ..fo.instance import Instance
from ..ltl.formulas import land
from ..ltl.translate import ltl_to_buchi
from ..runtime.run import Lasso
from ..runtime.state import GlobalState, snapshot_view
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from ..verifier.atoms import OccursAtom, bit_table
from ..verifier.domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from ..verifier.ltlfo_verifier import occurs_terms, sweep_valuations
from ..verifier.product import SearchBudget, TransitionCache
from ..verifier.result import VerificationResult
from .base import AgnosticProtocol, DataAwareProtocol


class CallbackEvaluator:
    """Per-state AP valuation driven by a callback, with caching.

    Duck-type compatible with
    :class:`~repro.verifier.atoms.SnapshotEvaluator` as used by
    :class:`~repro.verifier.product.ProductSystem`: ``bits`` is its bit
    table and ``letter`` returns the mask of the APs ``truth`` holds of.
    """

    def __init__(self, aps: frozenset,
                 truth: Callable[[Hashable, GlobalState], bool]) -> None:
        self.aps = aps
        self.bits = bit_table(aps)
        self._truth = truth
        self._cache: dict[GlobalState, int] = {}

    def letter(self, state: GlobalState) -> int:
        cached = self._cache.get(state)
        if cached is None:
            cached = 0
            for ap, bit in self.bits.items():
                if self._truth(ap, state):
                    cached |= bit
            self._cache[state] = cached
        return cached


def verify_agnostic(composition: Composition,
                    protocol: AgnosticProtocol,
                    databases: Mapping[str, Instance],
                    semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                    domain: VerificationDomain | None = None,
                    budget: SearchBudget | None = None,
                    ) -> VerificationResult:
    """Check compliance with a data-agnostic protocol (Theorem 4.2).

    Observer-at-source protocols are checked with the same product
    machinery (letters become send events).  For a fixed database and
    domain the check is exact; Theorem 4.3's undecidability concerns the
    unrestricted problem.  The protocol has no closure variables, so the
    sweep checks the one empty valuation.
    """
    unknown = set(protocol.alphabet) - {
        c.name for c in composition.channels
    }
    if unknown:
        raise VerificationError(
            f"protocol alphabet mentions unknown channels {sorted(unknown)}"
        )
    if domain is None:
        domain = verification_domain(composition, [], databases)
    cache = TransitionCache(
        composition, databases, domain.values, semantics, budget=budget,
    )
    text = (f"agnostic protocol over {sorted(protocol.alphabet)} "
            f"({protocol.observer.value})")

    def unit(_valuation):
        nba = protocol.violation_automaton()
        return nba, CallbackEvaluator(
            frozenset(nba.aps),
            lambda ap, state: ap in protocol.letter_of(state),
        )

    return sweep_valuations([{}], cache, unit, text, domain, semantics)


def verify_aware(composition: Composition,
                 protocol: DataAwareProtocol,
                 databases: Mapping[str, Instance],
                 semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                 domain: VerificationDomain | None = None,
                 budget: SearchBudget | None = None,
                 ) -> VerificationResult:
    """Check compliance with a data-aware protocol (Theorem 4.5).

    The protocol's free variables are universally quantified over the
    run's active domain: each canonical valuation is checked separately,
    with ``F occurs(v)`` constraints forcing fresh valuation values to
    appear in the counterexample run (mirroring the LTL-FO verifier).
    """
    variables = protocol.free_variables()
    if domain is None:
        domain = verification_domain(composition, [], databases)
        if protocol.constants() - set(domain.constants):
            extra = tuple(sorted(
                set(protocol.constants()) - set(domain.constants),
                key=str,
            ))
            domain = VerificationDomain(
                domain.constants + extra, domain.fresh
            )
    cache = TransitionCache(
        composition, databases, domain.values, semantics, budget=budget,
    )
    text = f"data-aware protocol over {sorted(protocol.symbols)}"
    violation = protocol.violation_automaton()

    def unit(valuation):
        instantiated = {
            name: fo.instantiate(formula, valuation)
            for name, formula in protocol.symbols.items()
        }
        occurs = occurs_terms(valuation, domain)
        nba = (violation.intersection(ltl_to_buchi(land(*occurs)))
               if occurs else violation)
        views: dict[GlobalState, Instance] = {}

        def truth(ap, state):
            if isinstance(ap, OccursAtom):
                return ap.value in state.active_domain()
            view = views.get(state)
            if view is None:
                view = views[state] = snapshot_view(state, composition)
            return evaluate(instantiated[ap], view, domain.values)

        return nba, CallbackEvaluator(frozenset(nba.aps), truth)

    return sweep_valuations(canonical_valuations(variables, domain), cache,
                            unit, text, domain, semantics)


def trace_of(lasso: Lasso, protocol: AgnosticProtocol
             ) -> tuple[list[frozenset], list[frozenset]]:
    """The protocol-alphabet trace (prefix, cycle) of a lasso run."""
    prefix = [protocol.letter_of(s) for s in lasso.prefix]
    cycle = [protocol.letter_of(s) for s in lasso.cycle]
    return prefix, cycle
