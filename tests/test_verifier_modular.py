"""Tests for modular (assume-guarantee) verification (Section 5)."""

import pytest

from repro.errors import VerificationError
from repro.fo import Instance
from repro.ltl import LNext, evaluate_on_word, latom, lwalk
from repro.ltlfo import parse_ltlfo
from repro.spec import Composition, DECIDABLE_DEFAULT, PeerBuilder
from repro.verifier import (
    environment_schema, parse_env_spec, translate_env_spec, verify,
    verify_modular,
)
from repro.verifier.domain import VerificationDomain

DOMAIN = VerificationDomain(("a",), ("$f0",))
DB = {"P0": Instance({"items": [("a",)]})}


class TestEnvSpecParsing:
    def test_environment_schema(self, open_relay):
        schema = environment_schema(open_relay)
        assert "outbound" in schema   # env consumes (E.Qin)
        assert "inbound" in schema    # env produces (E.Qout)

    def test_parse_renames_to_env(self, open_relay):
        spec = parse_env_spec("G forall x: ?outbound(x) -> !inbound(x)",
                              open_relay)
        assert spec.relations() == frozenset({"ENV.outbound",
                                              "ENV.inbound"})
        assert spec.is_strict

    def test_closed_composition_rejected(self, sender_receiver):
        with pytest.raises(VerificationError):
            parse_env_spec("G true", sender_receiver)


class TestTranslation:
    def test_recipient_translation_introduces_next(self, open_relay):
        spec = parse_env_spec("G forall x: ?outbound(x) -> !inbound(x)",
                              open_relay)
        translated = translate_env_spec(spec, open_relay, "recipient")
        assert any(isinstance(n, LNext) for n in lwalk(translated))
        # the received flag appears in some payload
        payloads = " ".join(
            str(n.ap) for n in lwalk(translated)
            if hasattr(n, "ap")
        )
        assert "received_inbound" in payloads
        assert "@prev." in payloads

    def test_source_translation_no_next_inside_payload(self, open_relay):
        spec = parse_env_spec("G forall x: !inbound(x) -> x = \"a\"",
                              open_relay)
        translated = translate_env_spec(spec, open_relay, "source")
        payloads = " ".join(
            str(n.ap) for n in lwalk(translated) if hasattr(n, "ap")
        )
        assert "received_inbound" in payloads
        assert "@prev." not in payloads

    def test_bad_observer_rejected(self, open_relay):
        spec = parse_env_spec("G true", open_relay)
        with pytest.raises(VerificationError):
            translate_env_spec(spec, open_relay, "midway")


class TestModularVerification:
    PROP = 'forall x: G( P1.seen(x) -> x = "a" )'
    SPEC = 'G forall x, y: ?outbound(y) & !inbound(x) -> x = "a"'
    SOURCE_SPEC = 'G forall x: !inbound(x) -> x = "a"'

    def test_unconstrained_environment_violates(self, open_relay):
        r = verify(open_relay, self.PROP, DB, domain=DOMAIN,
                   valuation_candidates={"x": ("a", "$f0")})
        assert not r.satisfied
        assert r.counterexample.valuation["x"] == "$f0"

    def test_source_spec_restores_property(self, open_relay):
        r = verify_modular(
            open_relay, self.PROP, self.SOURCE_SPEC, DB,
            domain=DOMAIN, observer="source",
            valuation_candidates={"x": ("a", "$f0")},
        )
        assert r.satisfied

    def test_recipient_spec_cannot_forbid_unsolicited(self, open_relay):
        # the paper's observer-at-recipient translation constrains only
        # messages arriving right after the spec's trigger; unsolicited
        # garbage still violates the property (see DESIGN.md)
        spec = 'G forall x: ?outbound(x) -> !inbound(x)'
        r = verify_modular(
            open_relay, self.PROP, spec, DB, domain=DOMAIN,
            observer="recipient",
            valuation_candidates={"x": ("a", "$f0")},
        )
        assert not r.satisfied

    def test_closed_composition_rejected(self, sender_receiver,
                                         sender_receiver_db):
        with pytest.raises(VerificationError):
            verify_modular(sender_receiver, "G true", "G true",
                           sender_receiver_db)

    def test_nonstrict_spec_rejected_by_default(self, open_relay):
        spec = "forall x: G ( !inbound(x) -> F ?outbound(x) )"
        with pytest.raises(VerificationError):
            verify_modular(open_relay, self.PROP, spec, DB, domain=DOMAIN)

    def test_nonstrict_spec_with_expansion(self, open_relay):
        # expanded over the bounded domain (Theorem 5.5 caveat)
        spec = 'forall x: G ( !inbound(x) -> x = "a" )'
        r = verify_modular(
            open_relay, self.PROP, spec, DB, domain=DOMAIN,
            allow_nonstrict=True, observer="source",
            valuation_candidates={"x": ("a", "$f0")},
        )
        assert r.satisfied

    def test_spec_over_nested_env_channel_rejected(self):
        consumer = (
            PeerBuilder("C")
            .state("seen", 1)
            .nested_in_queue("feed", 1)
            .insert_rule("seen", ["x"], "?feed(x)")
            .build()
        )
        comp = Composition([consumer])
        with pytest.raises(VerificationError):
            verify_modular(comp, "G true", "G forall x: !feed(x) -> x = x",
                           {}, domain=DOMAIN)
