"""Counterexample-replay regression tests.

Every lasso the verifier reports must be a genuine run of the
operational semantics: the prefix starts in an initial snapshot, each
consecutive pair of snapshots is related by the legal-successor
relation of :mod:`repro.runtime.step`, and the cycle closes back on
itself.  :func:`repro.runtime.validate_lasso` replays the reported
snapshots and returns a list of discrepancies; an empty list means the
counterexample survives independent replay.

These cases pin the known-violated library properties so a regression
in either the search (bogus lasso) or the runtime (successor relation
drift) shows up as a replay failure rather than a silently wrong
verdict.
"""

import pytest

from repro.fo import Instance
from repro.library import ecommerce, loan, synthetic, travel
from repro.runtime import validate_lasso
from repro.spec import Composition, PeerBuilder
from repro.verifier import verification_domain, verify


def _replay(comp, dbs, prop, candidates=None, fresh_count=1):
    dom = verification_domain(comp, [], dbs, fresh_count=fresh_count)
    result = verify(comp, prop, dbs, domain=dom,
                    valuation_candidates=candidates)
    assert not result.satisfied, f"expected a violation: {result.summary()}"
    cex = result.counterexample
    assert cex is not None
    lasso = cex.lasso
    assert lasso.cycle, "a violating lasso must have a non-empty cycle"
    problems = validate_lasso(comp, dbs, dom.values, lasso)
    assert not problems, "\n".join(problems)
    return result


def test_replay_lossy_channel_liveness():
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
    comp = Composition([sender, receiver])
    dbs = {"S": Instance({"items": [("a",), ("b",)]})}
    _replay(comp, dbs, "forall x: G( S.pick(x) -> F R.got(x) )")


@pytest.mark.slow
def test_replay_loan_buggy_officer():
    comp = loan.loan_composition(buggy_officer=True)
    _replay(comp, loan.standard_database("poor"),
            loan.PROPERTY_BANK_POLICY_POINTWISE,
            candidates=loan.STANDARD_CANDIDATES)


@pytest.mark.slow
def test_replay_loan_responsiveness():
    comp = loan.loan_composition()
    _replay(comp, loan.standard_database("fair"),
            loan.PROPERTY_RESPONSIVENESS,
            candidates=loan.STANDARD_CANDIDATES)


@pytest.mark.slow
def test_replay_ecommerce_order_resolved():
    comp = ecommerce.ecommerce_composition()
    _replay(comp, ecommerce.standard_database("good"),
            ecommerce.PROPERTY_ORDER_RESOLVED,
            candidates={"p": ("widget",), "card": ("visa", "amex")})


@pytest.mark.slow
def test_replay_travel_booking_confirmed():
    comp = travel.travel_composition()
    _replay(comp, travel.standard_database(),
            travel.PROPERTY_BOOKING_CONFIRMED,
            candidates={"f": ("fl1",), "d": ("rome",), "r": ("rm1",)})


def test_replay_chain_liveness():
    comp = synthetic.relay_chain(1)
    _replay(comp, synthetic.chain_databases(1),
            synthetic.chain_liveness_property(1))


def test_validate_lasso_rejects_corrupted_cycle():
    """Replay catches a lasso whose cycle is not actually closed."""
    from repro._record import replace

    comp = synthetic.relay_chain(1)
    dbs = synthetic.chain_databases(1)
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    result = verify(comp, synthetic.chain_liveness_property(1), dbs,
                    domain=dom)
    lasso = result.counterexample.lasso
    # truncating the cycle to its first snapshot (when the real cycle is
    # longer) or duplicating the prefix head breaks successor legality
    corrupted = replace(lasso, prefix=lasso.prefix + (lasso.prefix[0],))
    problems = validate_lasso(comp, dbs, dom.values, corrupted)
    assert problems, "corrupted lasso should fail replay"
