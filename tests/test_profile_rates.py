"""``repro profile`` prints the per-layer rates.

Below its phase table, the command reports ``expand`` microseconds per
expansion and ``search`` nanoseconds per product node searched,
computed from the phase seconds and phase counts of the results it
already holds and the run's ``search.blue_visited`` +
``search.red_visited`` registry counters -- the numbers
``--metrics-json`` writes out.  ``product_nodes_visited`` charges every
valuation its letter class's search, so it would count nodes no search
visited.  It also prints the successor memo's hits and misses, which
add up to the expansions, and the states decoded out of them.

Those counters must not depend on how the run is split: ``--workers
2`` counts what its two shards count in process, and its registry lists
the zero-valued counters a one-worker run lists.
"""

import json
import re

import pytest

from repro.cli import main
from repro.obs import (
    MetricsRegistry, REGISTRY, counters_snapshot, diff_numeric, merge_numeric,
)
from repro.runtime.step import clear_rule_cache

#: The phase-row parser of ``tests/test_cli.py``; rate lines must not
#: read as phase rows.
PHASE_ROW = re.compile(r"\s+(.+?)\s+(?:\d+|-)?\s*(\d+\.\d+)s\s+"
                       r"\d+\.\d+%\s*$")
EXPAND = re.compile(r"^  expand rate: (\d+\.\d) us per expansion "
                    r"\((\d+) expansions\)$", re.M)
SEARCH = re.compile(r"^  search rate: (\d+) ns per product node "
                    r"\((\d+) nodes\)$", re.M)
MEMO = re.compile(r"^  successor memo: (\d+) hits / (\d+) misses "
                  r"\(\d+\.\d% of rows\)$", re.M)
DECODED = re.compile(r"^  decoded states: (\d+) of (\d+) interned$", re.M)


def test_rates_come_from_the_results(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    before = counters_snapshot()
    assert main(["profile", "loan", "--workers", "1",
                 "--metrics-json", str(metrics)]) == 0
    out = capsys.readouterr().out
    expand, search, memo, decoded = (
        EXPAND.search(out), SEARCH.search(out), MEMO.search(out),
        DECODED.search(out))
    assert expand and search and memo and decoded, out

    written = json.loads(metrics.read_text())
    stats = [entry["stats"] for entry in written["results"]]
    expansions = sum(s["phase_counts"].get("expand", 0) for s in stats)
    counters = written["registry"]["counters"]
    nodes = sum(counters[name] - before.get(name, 0)
                for name in ("search.blue_visited", "search.red_visited"))
    assert int(expand.group(2)) == expansions == 205
    # every expanded row is a memo hit or a successors() call
    assert int(memo.group(1)) + int(memo.group(2)) == expansions
    assert int(memo.group(1)) == counters["graph.successor_memo_hits"] \
        - before.get("graph.successor_memo_hits", 0) > 0
    # a state is decoded only to fire rules or evaluate a formula
    assert int(decoded.group(2)) == expansions
    assert 0 < int(decoded.group(1)) == counters["graph.states_decoded"] \
        - before.get("graph.states_decoded", 0) < expansions
    assert int(search.group(2)) == nodes > 0
    assert nodes < sum(s["product_nodes_visited"] for s in stats)
    assert float(expand.group(1)) == pytest.approx(
        1e6 * sum(s["phase_seconds"].get("expand", 0.0) for s in stats)
        / expansions,
        abs=0.05)
    assert int(search.group(1)) == pytest.approx(
        1e9 * sum(s["phase_seconds"].get("search", 0.0) for s in stats)
        / nodes,
        abs=0.5)
    for line in (expand.group(0), search.group(0), memo.group(0),
                 decoded.group(0)):
        assert not PHASE_ROW.match(line)


def _counter_delta(argv, capsys) -> dict:
    """Counter deltas of one ``main(argv)`` from a cold rule cache."""
    clear_rule_cache()
    before = counters_snapshot()
    assert main(argv) == 0
    capsys.readouterr()
    return diff_numeric(counters_snapshot(), before)


def test_workers_count_what_their_shards_count(tmp_path, capsys):
    workers = _counter_delta(["profile", "loan", "--workers", "2"], capsys)
    shards: dict = {}
    for i in range(2):
        merge_numeric(shards, _counter_delta(
            ["profile", "loan", "--shard", f"{i}/2",
             "--shard-output", str(tmp_path / f"s{i}.json")], capsys))
    assert workers == shards
    assert workers["graph.reuse_hits"] == 205
    # the children's memo counters reach the parent's registry
    assert workers["graph.successor_memo_hits"] > 0
    assert workers["graph.successor_memo_hits"] \
        + workers["graph.successor_memo_misses"] \
        == workers["product.states_expanded"] == 410
    assert 0 < workers["graph.states_decoded"] < 410


def test_workers_list_the_zero_counters_of_one_worker(tmp_path, capsys):
    listed = {}
    for workers in ("1", "2"):
        REGISTRY.reset()
        clear_rule_cache()
        metrics = tmp_path / f"w{workers}.json"
        assert main(["profile", "loan", "--workers", workers,
                     "--metrics-json", str(metrics)]) == 0
        listed[workers] = json.loads(metrics.read_text())["registry"]
    capsys.readouterr()
    zeros = {name for name, value in listed["1"]["counters"].items()
             if value == 0}
    assert "search.red_visited" in zeros
    assert {name: listed["2"]["counters"].get(name) for name in zeros} == (
        dict.fromkeys(zeros, 0))
    assert "run" not in listed["2"]


def test_counting_looks_few_counters_up(monkeypatch, capsys):
    """The exploration holds the metric objects it counts into: ``repro
    profile ecommerce`` expands 4,260 states and serves thousands of
    rows, but looks a counter up in the registry a few hundred times,
    not once per row hit, expansion or decode."""
    lookups = []
    counter = MetricsRegistry.counter

    def counted(self, name):
        lookups.append(name)
        return counter(self, name)

    monkeypatch.setattr(MetricsRegistry, "counter", counted)
    assert main(["profile", "ecommerce", "--workers", "1"]) == 0
    capsys.readouterr()
    assert 0 < len(lookups) < 500
