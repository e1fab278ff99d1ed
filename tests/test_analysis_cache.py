"""Tests for the content-addressed lint cache (analysis.cache).

The contract under test: cached reports are *byte-for-byte* identical
to cold ones (text, JSON, and SARIF), document hits skip all pass work,
and editing one peer invalidates only that peer's entry.
"""

from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.analysis import (
    LintCache, default_cache_dir, lint_cached, lint_cached_composition,
    lint_composition, lint_text, render_report, to_json, to_sarif,
)

TWO_PEER_SPEC = """
peer S {
    database items/1
    input pick/1
    out flat msg/1
    input pick(x) <- items(x)
    send  msg(x)  <- pick(x)
}
peer R {
    state got/1
    in flat msg/1
    insert got(x) <- ?msg(x)
}
database S {
    items: ("a",)
}
property safety:
    forall x: G( R.got(x) -> S.items(x) )
"""


def render_all(report):
    return (render_report(report.diagnostics)
            + to_json(report.diagnostics)
            + to_sarif(report.diagnostics)
            + repr(report.passes_run)
            + repr({n: c.describe()
                    for n, c in sorted(report.classifications.items())}))


class TestAccounting:
    def test_cold_then_warm(self, tmp_path):
        cache = LintCache(tmp_path)
        lint_cached(TWO_PEER_SPEC, cache=cache)
        assert (cache.document_hits, cache.document_misses) == (0, 1)
        assert cache.peer_misses == 2
        assert cache.stores == 3   # 2 peers + 1 document
        lint_cached(TWO_PEER_SPEC, cache=cache)
        assert cache.document_hits == 1
        assert cache.peer_hits == 2
        assert cache.stores == 3   # nothing new written

    def test_stats_line_mentions_counts_and_root(self, tmp_path):
        cache = LintCache(tmp_path)
        lint_cached(TWO_PEER_SPEC, cache=cache)
        line = cache.stats_line()
        assert "doc-misses=1" in line
        assert str(tmp_path) in line

    def test_cache_root_is_env_then_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LINT_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"
        monkeypatch.delenv("REPRO_LINT_CACHE_DIR")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert default_cache_dir() == Path(tmp_path, ".cache", "repro",
                                           "lint")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = LintCache(tmp_path)
        lint_cached(TWO_PEER_SPEC, cache=cache)
        for path in tmp_path.rglob("*.json"):
            path.write_text("{ not json")
        fresh = LintCache(tmp_path)
        report = lint_cached(TWO_PEER_SPEC, cache=fresh)
        assert fresh.document_hits == 0
        assert report.passes_run[-1] == "decidability"


class TestByteIdentity:
    def test_warm_report_is_byte_identical(self, tmp_path):
        cache = LintCache(tmp_path)
        cold = lint_text(TWO_PEER_SPEC)
        first = lint_cached(TWO_PEER_SPEC, cache=cache)
        warm = lint_cached(TWO_PEER_SPEC, cache=cache)
        assert render_all(first) == render_all(cold)
        assert render_all(warm) == render_all(cold)

    def test_library_composition_round_trips(self, tmp_path):
        from repro.library import payments

        cache = LintCache(tmp_path)
        composition = payments.payments_composition()
        cold = lint_composition(composition)
        lint_cached_composition(composition, cache=cache)
        warm = lint_cached_composition(composition, cache=cache)
        assert cache.document_hits == 1
        assert render_all(warm) == render_all(cold)

    @given(st.integers(min_value=0, max_value=2 ** 20))
    @settings(max_examples=12, deadline=None)
    def test_fuzz_generated_specs_round_trip(self, tmp_path_factory, seed):
        from repro.fuzz.generate import generate
        from repro.ltlfo.parser import parse_ltlfo

        spec = generate(seed, "3.4")
        sentences = {
            name: parse_ltlfo(text, spec.composition.schema)
            for name, text in spec.properties.items()
        }
        cold = lint_composition(spec.composition, sentences,
                                spec.semantics)
        cache = LintCache(tmp_path_factory.mktemp("lint-cache"))
        first = lint_cached_composition(
            spec.composition, spec.properties, spec.semantics,
            cache=cache)
        warm = lint_cached_composition(
            spec.composition, spec.properties, spec.semantics,
            cache=cache)
        assert render_all(first) == render_all(cold)
        assert render_all(warm) == render_all(cold)


class TestInvalidation:
    def test_editing_one_peer_keeps_the_other_peers_entry(self, tmp_path):
        cache = LintCache(tmp_path)
        lint_cached(TWO_PEER_SPEC, cache=cache)
        edited = TWO_PEER_SPEC.replace(
            "    insert got(x) <- ?msg(x)\n",
            "    insert got(x) <- ?msg(x)\n"
            "    delete got(x) <- got(x)\n",
        )
        cache = LintCache(tmp_path)
        lint_cached(edited, cache=cache)
        assert cache.document_misses == 1
        assert cache.peer_hits == 1    # S unchanged, served
        assert cache.peer_misses == 1  # R edited, recomputed

    def test_semantics_partition_the_cache(self, tmp_path):
        from repro.spec import PERFECT_BOUNDED

        cache = LintCache(tmp_path)
        lint_cached(TWO_PEER_SPEC, cache=cache)
        lint_cached(TWO_PEER_SPEC, semantics=PERFECT_BOUNDED, cache=cache)
        assert cache.document_hits == 0
        assert cache.document_misses == 2

    def test_upstream_invention_invalidates_downstream_peer(self, tmp_path):
        spec = """
peer A {
    database items/1
    input go/1
    out flat m/1
    input go(x) <- items(x)
    send m(x) <- go(x)
}
peer B {
    state got/1
    in flat m/1
    insert got(x) <- ?m(x)
}
"""
        cache = LintCache(tmp_path)
        lint_cached(spec, cache=cache)
        # A now invents the payload; B's text is unchanged but its
        # inbound provenance signature is not, so B must recompute.
        inventing = spec.replace(
            "    send m(x) <- go(x)\n",
            "    send m(y) <- exists x. (go(x))\n")
        cache = LintCache(tmp_path)
        lint_cached(inventing, cache=cache)
        assert cache.peer_hits == 0
        assert cache.peer_misses == 2
