"""The per-valuation reference engine the differential checks compare against.

:func:`repro.verifier.verify` walks one interned
:class:`~repro.verifier.graph.SharedExploration`, reads letters through
memoized FO truths and searches once per letter class.  :func:`verify_seed`
decides the same question the plain way: the reachable snapshots
themselves are the nodes (:class:`SnapshotExploration`), each AP is
evaluated on the snapshot (:class:`SnapshotEvaluator`), and every valuation
is searched, over the same template automata and valuation loop.  Its
verdicts, decisive valuations, lassos and node counts must equal the
verifier's.  No module of the verifier imports this one; the differential
tests, ``repro fuzz``'s engine-differential oracle and the E14/E16
benchmarks do.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from ..fo.evaluator import evaluate
from ..fo.instance import Instance
from ..fo.terms import Value
from ..ltlfo.formulas import LTLFOSentence
from ..runtime.state import GlobalState, snapshot_view
from ..runtime.step import initial_states, successors
from ..spec.channels import ChannelSemantics, DECIDABLE_DEFAULT
from ..spec.composition import Composition
from ..verifier.atoms import OccursAtom, bindings, bit_table
from ..verifier.domain import (
    VerificationDomain, canonical_valuations, verification_domain,
)
from ..verifier.ltlfo_verifier import (
    _as_sentence, _check_restrictions, sentence_unit, sweep_valuations,
)
from ..verifier.product import SearchBudget
from ..verifier.result import VerificationResult


class SnapshotExploration:
    """The reachable snapshots as nodes; each snapshot's successors are
    computed once, by ``successors()``."""

    def __init__(self, composition: Composition,
                 databases: Mapping[str, Instance], domain: Sequence[Value],
                 semantics: ChannelSemantics,
                 budget: SearchBudget | None = None,
                 env_value_domain: Sequence[Value] | None = None) -> None:
        self.composition = composition
        self.domain = tuple(domain)
        self.semantics = semantics
        self.env_value_domain = env_value_domain
        self.budget = budget or SearchBudget()
        self._initial = tuple(initial_states(composition, databases,
                                             self.domain))
        self._successors: dict[GlobalState, tuple[GlobalState, ...]] = {}

    def initial(self) -> tuple[GlobalState, ...]:
        return self._initial

    def successors_of(self, state: GlobalState) -> tuple[GlobalState, ...]:
        row = self._successors.get(state)
        if row is None:
            self.budget.check_states(len(self._successors))
            row = self._successors[state] = tuple(successors(
                self.composition, state, self.domain, self.semantics,
                env_one_action_per_move=True,
                env_value_domain=self.env_value_domain))
        return row

    def state_of(self, state: GlobalState) -> GlobalState:
        return state

    @property
    def states_expanded(self) -> int:
        return len(self._successors)


class SnapshotEvaluator:
    """Letters over snapshots: an FO AP is evaluated on the snapshot's
    view, an occurs atom on its active domain.

    *aps* are the automaton's APs, or their binding
    (:func:`~repro.verifier.atoms.bindings`); bits follow its order.
    """

    def __init__(self, composition: Composition, domain: Iterable[Value],
                 aps: Iterable[Hashable] | Mapping) -> None:
        self.composition = composition
        self.domain = tuple(domain)
        self.binding = bindings(aps)
        self.aps = frozenset(self.binding)
        self.bits = bit_table(self.binding)
        self._letters: dict[GlobalState, int] = {}

    def letter(self, state: GlobalState) -> int:
        mask = self._letters.get(state)
        if mask is None:
            mask = 0
            view = snapshot_view(state, self.composition)
            for ap, bit in self.bits.items():
                formula = self.binding[ap]
                if (formula.value in state.active_domain()
                        if isinstance(formula, OccursAtom)
                        else evaluate(formula, view, self.domain)):
                    mask |= bit
            self._letters[state] = mask
        return mask


def verify_seed(composition: Composition, prop: LTLFOSentence | str,
                databases: Mapping[str, Instance],
                semantics: ChannelSemantics = DECIDABLE_DEFAULT,
                domain: VerificationDomain | None = None,
                check_input_bounded: bool = True,
                budget: SearchBudget | None = None,
                valuation_candidates: Mapping[str, Sequence[Value]]
                | None = None,
                env_value_domain: Sequence[Value] | None = None,
                fair_scheduling: bool = False) -> VerificationResult:
    """:func:`repro.verifier.verify`'s verdict, in process, one search
    per valuation (so ``valuation_classes == valuations_checked``)."""
    sentence = _as_sentence(prop, composition)
    _check_restrictions(composition, sentence, check_input_bounded)
    if domain is None:
        domain = verification_domain(composition, [sentence], databases)
    exploration = SnapshotExploration(
        composition, databases, domain.values, semantics, budget=budget,
        env_value_domain=env_value_domain)
    return sweep_valuations(
        canonical_valuations(sentence.variables, domain,
                             valuation_candidates),
        exploration,
        sentence_unit(composition, sentence, domain,
                      lambda binding: SnapshotEvaluator(
                          composition, domain.values, binding),
                      fair_scheduling),
        str(sentence), domain, semantics)
