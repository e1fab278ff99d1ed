"""Tests for the GPVW LTL -> Büchi translation.

The central correctness property: the translated automaton accepts an
ultimately periodic word iff the formula holds on it (checked against the
independent lasso-word evaluator, both by hand-picked cases and by
hypothesis).
"""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.ltl import (
    LAnd, LOr, LRelease, LUntil, evaluate_on_word, land, latom, lbefore,
    lfinally, lglobally, limplies, lnext, lnot, lrelease, ltl_to_buchi,
    luntil,
)

ROOT = Path(__file__).resolve().parents[1]

P, Q = latom("p"), latom("q")
EMPTY = frozenset()
ONLY_P = frozenset({"p"})
ONLY_Q = frozenset({"q"})
BOTH = frozenset({"p", "q"})

WORDS = [
    ([], [EMPTY]),
    ([], [ONLY_P]),
    ([], [ONLY_Q]),
    ([], [BOTH]),
    ([ONLY_P], [EMPTY]),
    ([EMPTY], [ONLY_P]),
    ([ONLY_P, ONLY_Q], [EMPTY]),
    ([], [ONLY_P, EMPTY]),
    ([BOTH, EMPTY], [ONLY_Q, ONLY_P]),
    ([EMPTY, EMPTY, ONLY_Q], [ONLY_P]),
]


def assert_equivalent(formula):
    nba = ltl_to_buchi(formula)
    for prefix, cycle in WORDS:
        expected = evaluate_on_word(formula, prefix, cycle)
        actual = nba.accepts_lasso(prefix, cycle)
        assert actual == expected, (
            f"{formula} on {prefix}+{cycle}^w: automaton={actual}, "
            f"semantics={expected}"
        )


class TestHandPicked:
    def test_atom(self):
        assert_equivalent(P)

    def test_negated_atom(self):
        assert_equivalent(lnot(P))

    def test_next(self):
        assert_equivalent(lnext(P))

    def test_until(self):
        assert_equivalent(luntil(P, Q))

    def test_release(self):
        assert_equivalent(LRelease(P, Q))

    def test_globally(self):
        assert_equivalent(lglobally(P))

    def test_finally(self):
        assert_equivalent(lfinally(P))

    def test_response(self):
        assert_equivalent(lglobally(limplies(P, lfinally(Q))))

    def test_before(self):
        assert_equivalent(lbefore(P, Q))

    def test_nested_until(self):
        assert_equivalent(luntil(P, luntil(Q, P)))

    def test_gf_vs_fg(self):
        assert_equivalent(lglobally(lfinally(P)))
        assert_equivalent(lfinally(lglobally(P)))

    def test_automaton_has_initial_state(self):
        nba = ltl_to_buchi(P)
        assert nba.initial
        assert nba.num_states() >= 2


_letters = st.sampled_from([EMPTY, ONLY_P, ONLY_Q, BOTH])


def _ltl(depth=2):
    base = st.sampled_from([P, Q, lnot(P), lnot(Q)])
    if depth == 0:
        return base
    sub = _ltl(depth - 1)
    return st.one_of(
        base,
        sub.map(lnext),
        st.tuples(sub, sub).map(lambda t: LAnd(*t)),
        st.tuples(sub, sub).map(lambda t: LOr(*t)),
        st.tuples(sub, sub).map(lambda t: LUntil(*t)),
        st.tuples(sub, sub).map(lambda t: LRelease(*t)),
        sub.map(lnot),
    )


@given(formula=_ltl(), prefix=st.lists(_letters, max_size=3),
       cycle=st.lists(_letters, min_size=1, max_size=3))
@settings(max_examples=120, deadline=None)
def test_translation_matches_word_semantics(formula, prefix, cycle):
    nba = ltl_to_buchi(formula)
    assert nba.accepts_lasso(prefix, cycle) == evaluate_on_word(
        formula, prefix, cycle
    )


@given(formula=_ltl(depth=1))
@settings(max_examples=60, deadline=None)
def test_formula_and_negation_partition_words(formula):
    """A ∪ ~A covers every word; A ∩ ~A covers none (on sample words)."""
    nba = ltl_to_buchi(formula)
    neg = ltl_to_buchi(lnot(formula))
    for prefix, cycle in WORDS[:6]:
        a = nba.accepts_lasso(prefix, cycle)
        b = neg.accepts_lasso(prefix, cycle)
        assert a != b


def _hash_sensitive_formulas():
    """Formulas whose APs hash by string: FO atoms over string relations
    and constants, an occurs atom, ``GF move_W`` fairness atoms, and
    nested U/R/X."""
    from repro.fo.formulas import Atom, Eq
    from repro.fo.schema import move_name
    from repro.fo.terms import Const
    from repro.verifier.atoms import OccursAtom

    letter = latom(Atom("O.letter", (Const("c1"), Const("ann"))))
    applied = latom(Atom("O.application", (Const("c1"), Const("small"))))
    rated = latom(Eq(Const("fair"), Const("poor")))
    occurs = latom(OccursAtom("$v0"))
    fair = [lglobally(lfinally(latom(Atom(move_name(peer), ()))))
            for peer in ("O", "B")]
    return [
        lnot(lglobally(limplies(letter, applied))),
        land(lnot(luntil(applied, lnext(letter))), lfinally(occurs), *fair),
        lrelease(luntil(letter, rated), lnext(luntil(applied, occurs))),
        land(lglobally(lfinally(letter)), lnot(lrelease(rated, applied)),
             *fair),
    ]


def render_hash_sensitive_automata() -> str:
    """Each translation's states in numbering order (the order the
    product compiles them in) with their ``edges_from`` rows and guards,
    then its initial and accepting states."""
    lines = []
    for formula in _hash_sensitive_formulas():
        nba = ltl_to_buchi(formula)
        lines.append(f"formula {formula}")
        for state in nba.states:
            row = "; ".join(f"{edge.guard} -> {edge.dst}"
                            for edge in nba.edges_from(state))
            lines.append(f"  {state}: {row}")
        lines.append(f"  initial {list(nba.initial)}")
        accepting = [q for q in nba.states if q in nba.accepting]
        lines.append(f"  accepting {accepting}")
    return "\n".join(lines)


def test_translation_does_not_follow_the_hash_seed():
    """Two interpreters with different string-hash seeds translate the
    same formulas to the same automata, state for state and edge for
    edge."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), str(ROOT),
                                         os.environ.get("PYTHONPATH"))))
    renderings = [
        subprocess.run(
            [sys.executable, "-c",
             "from tests.test_ltl_translate import "
             "render_hash_sensitive_automata as r; print(r())"],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=120).stdout
        for seed in ("1", "2")
    ]
    first, second = (rendering.splitlines() for rendering in renderings)
    assert sum(line.startswith("formula ") for line in first) == 4
    # the first differing line, not a diff of the whole rendering
    assert len(first) == len(second)
    assert next(((a, b) for a, b in zip(first, second) if a != b),
                None) is None
