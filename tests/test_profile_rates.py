"""``repro profile`` prints the per-layer rates.

Below its phase table, the command reports ``expand`` microseconds per
expansion and ``search`` nanoseconds per product node, computed from
the phase seconds, phase counts and product node counts of the results
it already holds -- the numbers ``--metrics-json`` writes out.
"""

import json
import re

import pytest

from repro.cli import main

#: The phase-row parser of ``tests/test_cli.py``; rate lines must not
#: read as phase rows.
PHASE_ROW = re.compile(r"\s+(.+?)\s+(?:\d+|-)?\s*(\d+\.\d+)s\s+"
                       r"\d+\.\d+%\s*$")
EXPAND = re.compile(r"^  expand rate: (\d+\.\d) us per expansion "
                    r"\((\d+) expansions\)$", re.M)
SEARCH = re.compile(r"^  search rate: (\d+) ns per product node "
                    r"\((\d+) nodes\)$", re.M)


def test_rates_come_from_the_results(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    assert main(["profile", "loan", "--workers", "1",
                 "--metrics-json", str(metrics)]) == 0
    out = capsys.readouterr().out
    expand, search = EXPAND.search(out), SEARCH.search(out)
    assert expand and search, out

    stats = [entry["stats"]
             for entry in json.loads(metrics.read_text())["results"]]
    expansions = sum(s["phase_counts"].get("expand", 0) for s in stats)
    nodes = sum(s["product_nodes_visited"] for s in stats)
    assert int(expand.group(2)) == expansions == 205
    assert int(search.group(2)) == nodes > 0
    assert float(expand.group(1)) == pytest.approx(
        1e6 * sum(s["phase_seconds"].get("expand", 0.0) for s in stats)
        / expansions,
        abs=0.05)
    assert int(search.group(1)) == pytest.approx(
        1e9 * sum(s["phase_seconds"].get("search", 0.0) for s in stats)
        / nodes,
        abs=0.5)
    for line in (expand.group(0), search.group(0)):
        assert not PHASE_ROW.match(line)
