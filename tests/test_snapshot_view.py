"""The lazy snapshot view against an eager reference.

:func:`repro.runtime.snapshot_view` derives each queue and move relation
on demand and builds its full mapping only for whole-instance
operations.  For every reachable state of payments, dispatch and the
open credit-check composition, the view must be indistinguishable from
the view built eagerly here from Section 3's definition: ``state.data``
plus, per channel, the first message at the receiver (``ENV.q`` when the
environment consumes), the last message at the sender (``ENV.q`` when
the environment feeds), the receiver's ``empty_Q`` and ``received_Q``,
and ``move_W`` for every peer (``move_ENV`` when open).  Dispatch is
also explored with 2-bounded queues, where first and last messages
differ.
"""

import pickle

import pytest

from repro.errors import SemanticsError
from repro.fo import Instance
from repro.fo.schema import (
    ENVIRONMENT_NAME, empty_name, move_name, received_name,
)
from repro.library import dispatch, loan, payments
from repro.runtime import GlobalState, freeze_queues, snapshot_view
from repro.spec import DECIDABLE_DEFAULT, ChannelSemantics
from repro.verifier import (
    SharedExploration, verification_domain,
)
from repro.verifier.domain import VerificationDomain

TRUE, FALSE = frozenset({()}), frozenset()


def eager_view(state, composition) -> Instance:
    """Section 3's snapshot view of *state*, every relation built up front."""
    extra = {}
    for channel in composition.channels:
        contents = state.queue(channel.name)
        first = contents[0] if contents else FALSE
        last = contents[-1] if contents else FALSE
        if channel.receiver is None:
            extra[f"{ENVIRONMENT_NAME}.{channel.name}"] = first
        else:
            owner = channel.receiver
            extra[f"{owner}.{channel.name}"] = first
            extra[f"{owner}.{empty_name(channel.name)}"] = (
                FALSE if contents else TRUE)
            extra[f"{owner}.{received_name(channel.name)}"] = (
                TRUE if channel.name in state.enqueued else FALSE)
        if channel.sender is None:
            extra[f"{ENVIRONMENT_NAME}.{channel.name}"] = last
        else:
            extra[f"{channel.sender}.{channel.name}"] = last
    movers = [peer.name for peer in composition.peers]
    if not composition.is_closed:
        movers.append(ENVIRONMENT_NAME)
    for mover in movers:
        extra[move_name(mover)] = TRUE if state.mover == mover else FALSE
    return state.data.merged(Instance(extra))


def _library(module, name, semantics=DECIDABLE_DEFAULT):
    composition = getattr(module, f"{name}_composition")()
    databases = module.standard_database()
    domain = verification_domain(composition, [], databases, fresh_count=1)
    return composition, databases, domain, None, semantics


def _credit_check():
    composition = loan.credit_check_composition()
    databases = {"O": Instance({"customer": [("c1", "s1", "ann")]})}
    domain = verification_domain(composition, [], databases, fresh_count=1)
    if "fair" not in domain.constants:
        domain = VerificationDomain(domain.constants + ("fair",),
                                    domain.fresh)
    return (composition, databases, domain, ("s1", "fair", domain.fresh[0]),
            DECIDABLE_DEFAULT)


SETUPS = {
    "payments": lambda: _library(payments, "payments"),
    "dispatch": lambda: _library(dispatch, "dispatch"),
    "dispatch_k2": lambda: _library(
        dispatch, "dispatch", ChannelSemantics(lossy=True, queue_bound=2)),
    "credit_check": _credit_check,
}


@pytest.fixture(scope="module", params=sorted(SETUPS))
def reachable(request):
    """(composition, every reachable state) of one set-up."""
    (composition, databases, domain, env_values,
     semantics) = SETUPS[request.param]()
    exploration = SharedExploration(composition, databases, domain.values,
                                    semantics, env_value_domain=env_values)
    assert exploration.complete()
    return composition, [exploration.state_of(sid)
                         for sid in range(len(exploration.interner))]


def test_relations_read_one_by_one(reachable):
    composition, states = reachable
    names = composition.schema.names()
    for state in states:
        view, eager = snapshot_view(state, composition), eager_view(
            state, composition)
        for name in names:
            assert view[name] == eager[name], name
            assert (name in view) == (name in eager), name
            assert view.truth(name) == eager.truth(name), name
        for name in eager.relations():
            for row in eager[name]:
                for positions in ((0,), tuple(range(len(row)))):
                    if not positions or positions[-1] >= len(row):
                        continue
                    key = tuple(row[p] for p in positions)
                    assert (set(view.rows_matching(name, positions, key))
                            == set(eager.rows_matching(name, positions,
                                                       key))), name
        # per-relation reads never build the full mapping
        assert view._full is None


def test_whole_instance_operations(reachable):
    composition, states = reachable
    for state in states:
        view, eager = snapshot_view(state, composition), eager_view(
            state, composition)
        assert view == eager
        assert hash(view) == hash(eager)
        assert repr(view) == repr(eager)
        assert view.relations() == eager.relations()
        assert view.active_domain() == eager.active_domain()
        assert list(view.items()) == list(eager.items())
        assert pickle.loads(pickle.dumps(view)) == eager


def test_queue_layout_mismatch_is_an_error(open_relay):
    """A snapshot must list every channel of the composition in name
    order; reading a queue relation of one that does not raises."""
    state = GlobalState(data=Instance(),
                        queues=freeze_queues({"outbound": ()}))
    view = snapshot_view(state, open_relay)
    with pytest.raises(SemanticsError):
        view["P1.inbound"]   # position 0 holds "outbound"
    with pytest.raises(SemanticsError):
        view["ENV.outbound"]  # position 1 does not exist
