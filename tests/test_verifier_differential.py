"""Differential testing of the verifier against sampled lasso runs.

If the verifier declares a property SATISFIED, then every lasso run we
can sample by random walk (walk until a snapshot repeats; the segment
between the repetitions is a legal cycle) must satisfy the instantiated
property for every canonical valuation.  Conversely, the verifier's own
counterexamples must violate the property on the word level.

This closes the loop between three independently implemented components:
the operational semantics (run sampling), the LTL word semantics
(evaluate_on_word), and the Büchi product search.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fo import Instance
from repro.ltlfo import parse_ltlfo
from repro.runtime import initial_states, successors
from repro.spec import DECIDABLE_DEFAULT, PERFECT_BOUNDED
from repro.verifier import (
    SnapshotEvaluator, canonical_valuations, decode_letter,
    verification_domain, verify,
)
from repro.ltl import evaluate_on_word, lnot

DB = {"S": Instance({"items": [("a",)]})}

PROPERTIES = [
    ("forall x: G( R.got(x) -> S.items(x) )", True),
    ("forall x: G( S.pick(x) -> F R.got(x) )", False),
    ("G( ~R.empty_msg -> F R.empty_msg )", False),   # queue may stay full
    ("forall x: (~R.got(x)) U S.pick(x) | G ~R.got(x)", True),
    ("G R.empty_msg", False),                        # a delivery refutes it
]


def sample_lasso(composition, databases, domain, seed, semantics,
                 max_steps=40):
    """Random-walk until a snapshot repeats; return (prefix, cycle)."""
    rng = random.Random(seed)
    state = rng.choice(initial_states(composition, databases, domain))
    path = [state]
    index = {state: 0}
    for _ in range(max_steps):
        state = rng.choice(
            successors(composition, state, domain, semantics)
        )
        if state in index:
            i = index[state]
            return tuple(path[:i]), tuple(path[i:])
        index[state] = len(path)
        path.append(state)
    return None


def lasso_word(composition, domain, lasso, aps):
    evaluator = SnapshotEvaluator(composition, domain, frozenset(aps))

    def letter(state):
        return decode_letter(evaluator.bits, evaluator.letter(state))

    return [letter(s) for s in lasso[0]], [letter(s) for s in lasso[1]]


def payloads_of(body):
    from repro.ltl import LAtom, lwalk
    return {n.ap for n in lwalk(body) if isinstance(n, LAtom)}


@pytest.mark.parametrize("prop_text,expected", PROPERTIES)
def test_verifier_agrees_with_sampled_runs(sender_receiver, prop_text,
                                           expected):
    sentence = parse_ltlfo(prop_text, sender_receiver.schema)
    domain = verification_domain(sender_receiver, [sentence], DB)
    result = verify(sender_receiver, sentence, DB, domain=domain)
    assert result.satisfied == expected, result.summary()

    # sample lassos; a SATISFIED verdict must hold on every sample
    for seed in range(12):
        lasso = sample_lasso(sender_receiver, DB, domain.values, seed,
                             DECIDABLE_DEFAULT)
        if lasso is None or not lasso[1]:
            continue
        for valuation in canonical_valuations(sentence.variables, domain):
            # Dom(rho) restriction: skip valuations whose fresh values
            # never occur in this sampled run
            run_domain = set()
            for s in lasso[0] + lasso[1]:
                run_domain |= s.active_domain()
            if any(v not in run_domain and v not in domain.constants
                   for v in valuation.values()):
                continue
            body = sentence.instantiate(valuation)
            prefix, cycle = lasso_word(
                sender_receiver, domain.values, lasso, payloads_of(body)
            )
            holds = evaluate_on_word(body, prefix, cycle)
            if result.satisfied:
                assert holds, (
                    f"verifier said SATISFIED but sampled run violates "
                    f"{prop_text} under {valuation} (seed {seed})"
                )


@pytest.mark.parametrize("prop_text,expected", PROPERTIES)
def test_counterexamples_violate_on_word_level(sender_receiver, prop_text,
                                               expected):
    if expected:
        pytest.skip("property holds; no counterexample to check")
    sentence = parse_ltlfo(prop_text, sender_receiver.schema)
    domain = verification_domain(sender_receiver, [sentence], DB)
    result = verify(sender_receiver, sentence, DB, domain=domain)
    assert not result.satisfied
    cex = result.counterexample
    from repro.fo.terms import Var
    valuation = {Var(k): v for k, v in cex.valuation.items()}
    body = sentence.instantiate(valuation)
    lasso = (cex.lasso.prefix, cex.lasso.cycle)
    prefix, cycle = lasso_word(
        sender_receiver, domain.values, lasso, payloads_of(body)
    )
    assert evaluate_on_word(lnot(body), prefix, cycle)
