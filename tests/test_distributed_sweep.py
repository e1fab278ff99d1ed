"""The distributed sweep: local shards, shards, dead children.

The determinism contract, tested differentially: the verdict, the
decisive valuation (and its global ``decisive_order``), and the
counterexample lasso must be bit-for-bit identical across

* worker counts (1 / 2 / 4): ``workers=N`` runs N local shards in
  forked children and merges them like ``repro merge-shards``,
* ``--shard`` runs -- a trivial 1-shard run and a 3-shard split merged
  back through :func:`repro.verifier.merge_fragments`, with and
  without local shards inside each shard,
* a shard over a caller-supplied transition cache, and
* two ``repro verify --workers 4 --shard i/2`` processes merged by
  ``repro merge-shards`` (verdicts and node counts only).

A child that dies ends the run in a :class:`VerificationError` that
names its shard and exit code (and ``repro verify`` exits 2).  White-box
units cover ``shard_filter`` and ``local_shards`` (disjoint complete
partitions with global orders), ``resolve_shard`` validation, and
``resolve_workers``.  A hypothesis property closes the loop over random
sender-receiver style compositions.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.verifier.ltlfo_verifier as ltlfo_verifier
from repro.cli import main
from repro.errors import VerificationError
from repro.fo import Instance
from repro.runtime import validate_lasso
from repro.spec import Composition, PeerBuilder
from repro.verifier import (
    local_shards, merge_fragments, resolve_shard, resolve_workers,
    result_from_merged, shard_filter, shard_fragment, verification_domain,
    verify,
)

SAFETY = "forall x: G( R.got(x) -> S.items(x) )"
LIVENESS = "forall x: G( S.pick(x) -> F R.got(x) )"

SPEC_TEXT = """
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
    items: ("a",), ("b",)
}
property liveness:
    forall x: G( S.pick(x) -> F R.got(x) )
"""


def sender_receiver_case(items=("a", "b")):
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
    dbs = {"S": Instance({"items": [(i,) for i in items]})}
    return comp, dbs


def _verify(comp, dbs, prop, **kwargs):
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    return verify(comp, prop, dbs, domain=dom, **kwargs)


def _merged_shard_run(comp, dbs, prop, count, workers=1):
    """Run *count* shards separately and merge their fragments."""
    fragments = []
    for index in range(count):
        result = _verify(comp, dbs, prop, workers=workers,
                         shard=(index, count))
        fragments.append(
            shard_fragment([result], (index, count), composition=comp)
        )
    merged = merge_fragments(fragments)
    assert merged["shards"] == count
    return result_from_merged(merged["properties"][0])


def _assert_equivalent(reference, other, comp, dbs, dom_values):
    assert other.verdict == reference.verdict
    assert other.stats.decisive_order == reference.stats.decisive_order
    assert (other.stats.product_nodes_visited
            == reference.stats.product_nodes_visited)
    assert (other.stats.valuations_checked
            == reference.stats.valuations_checked)
    if reference.counterexample is None:
        assert other.counterexample is None
        return
    assert other.counterexample is not None
    assert (other.counterexample.valuation
            == reference.counterexample.valuation)
    assert other.counterexample.lasso == reference.counterexample.lasso
    problems = validate_lasso(comp, dbs, dom_values,
                              other.counterexample.lasso)
    assert not problems, problems


# ---------------------------------------------------------------------------
# partition units


def test_shard_filter_is_a_partition():
    valuations = [f"v{i}" for i in range(10)]
    count = 3
    shards = [shard_filter(valuations, (i, count)) for i in range(count)]
    seen = [pair for shard in shards for pair in shard]
    assert sorted(seen) == list(enumerate(valuations))
    for i, shard in enumerate(shards):
        assert all(order % count == i for order, _v in shard)
    assert shard_filter(valuations, None) == list(enumerate(valuations))
    assert shard_filter(valuations, (0, 1)) == list(enumerate(valuations))


def test_local_shards_partition_their_shard():
    orders = range(60)
    assert local_shards(None, 3) == [(0, 3), (1, 3), (2, 3)]
    for outer in (None, (0, 2), (1, 2), (2, 5)):
        index, count = outer or (0, 1)
        mine = [o for o in orders if o % count == index]
        covered = sorted(
            o for sub_index, sub_count in local_shards(outer, 4)
            for o in orders if o % sub_count == sub_index)
        assert covered == mine  # each order of the shard exactly once


def test_resolve_shard_validates():
    assert resolve_shard(None) is None
    assert resolve_shard((2, 3)) == (2, 3)
    for bad in ((3, 3), (-1, 2), (0, 0)):
        with pytest.raises(ValueError):
            resolve_shard(bad)


def test_workers_zero_follows_cpu_affinity(monkeypatch):
    """``workers=0`` counts the CPUs this process may use, not the host's."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert resolve_workers(0) == 1
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3


# ---------------------------------------------------------------------------
# differential: workers x shards


@pytest.mark.parametrize("prop,expected", [(SAFETY, True),
                                           (LIVENESS, False)])
def test_workers_and_shards_agree(prop, expected):
    comp, dbs = sender_receiver_case()
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = _verify(comp, dbs, prop, workers=1)
    assert reference.satisfied == expected, reference.summary()

    for workers in (2, 4):
        par = _verify(comp, dbs, prop, workers=workers)
        _assert_equivalent(reference, par, comp, dbs, dom.values)

    trivial = _verify(comp, dbs, prop, workers=2, shard=(0, 1))
    _assert_equivalent(reference, trivial, comp, dbs, dom.values)

    merged = _merged_shard_run(comp, dbs, prop, count=3, workers=2)
    _assert_equivalent(reference, merged, comp, dbs, dom.values)


def test_shard_combines_with_supplied_cache():
    """The graph does not depend on the valuation: a shard may reuse one."""
    comp, dbs = sender_receiver_case()
    from repro.verifier import SharedExploration, TransitionCache
    from repro.spec.channels import DECIDABLE_DEFAULT
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = _verify(comp, dbs, LIVENESS, workers=1)
    cache = TransitionCache(comp, dbs, dom.values, DECIDABLE_DEFAULT)
    fragments = [
        shard_fragment([verify(comp, LIVENESS, dbs, domain=dom,
                               shard=(index, 2),
                               engine=SharedExploration(cache))],
                       (index, 2), composition=comp)
        for index in range(2)
    ]
    merged = result_from_merged(merge_fragments(fragments)["properties"][0])
    _assert_equivalent(reference, merged, comp, dbs, dom.values)


# ---------------------------------------------------------------------------
# one worker stays in process


#: Run in a fresh interpreter: ``import repro.cli`` and a one-worker
#: ``repro verify`` must not load the process-pool machinery, nor the
#: bench sentinel, which only ``repro bench check`` imports.
_NO_POOL_PROBE = """
import sys
import repro.cli

def pool_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("multiprocessing", "concurrent"))

assert pool_modules() == [], pool_modules()
assert "repro.obs.bench" not in sys.modules
assert repro.cli.main(["verify", "--workers", "1", sys.argv[1]]) == 1
assert pool_modules() == [], pool_modules()
assert "repro.obs.bench" not in sys.modules
"""


def test_one_worker_loads_no_process_pool(tmp_path):
    spec = tmp_path / "sr.dws"
    spec.write_text(SPEC_TEXT)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", _NO_POOL_PROBE, str(spec)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


# ---------------------------------------------------------------------------
# shards of local shards, through the CLI


def test_cli_shards_of_local_shards_merge_to_unsharded(tmp_path, capsys):
    """Two ``verify --workers 4 --shard i/2`` processes, as on two
    machines, merge through ``repro merge-shards`` to the verdicts and
    node counts of an unsharded ``repro verify``."""
    spec = tmp_path / "sr.dws"
    spec.write_text(SPEC_TEXT + f"property safety:\n    {SAFETY}\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    fragments = []
    for i in range(2):
        fragment = tmp_path / f"shard{i}.json"
        child = subprocess.run(
            [sys.executable, "-m", "repro", "verify", str(spec),
             "--workers", "4", "--shard", f"{i}/2",
             "--shard-output", str(fragment)],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300)
        assert child.returncode in (0, 1), child.stderr
        assert "run_id" not in json.loads(fragment.read_text())
        fragments.append(str(fragment))

    merged_file, reference = tmp_path / "merged.json", tmp_path / "ref.json"
    assert main(["merge-shards", *fragments,
                 "--output", str(merged_file)]) == 1
    assert main(["verify", str(spec), "--metrics-json",
                 str(reference)]) == 1
    merged = json.loads(merged_file.read_text())
    assert "run_ids" not in merged

    def rows(entries):
        return [(e["verdict"], e["stats"]["valuations_checked"],
                 e["stats"]["product_nodes_visited"]) for e in entries]

    unsharded = json.loads(reference.read_text())["results"]
    assert [e["verdict"] for e in unsharded] == ["VIOLATED", "SATISFIED"]
    assert rows(merged["properties"]) == rows(unsharded)


# ---------------------------------------------------------------------------
# a dead child


def _die_in_shard_one(monkeypatch):
    """Make the child of local shard 1 die with exit code 17.

    The fork start method copies the patched module into the child.
    """
    run_shard = ltlfo_verifier._run_shard

    def dying(shard):
        if shard[0] == 1:
            os._exit(17)
        return run_shard(shard)

    monkeypatch.setattr(ltlfo_verifier, "_run_shard", dying)


def test_dead_shard_child_is_an_error(monkeypatch):
    comp, dbs = sender_receiver_case()
    _die_in_shard_one(monkeypatch)
    with pytest.raises(VerificationError,
                       match=r"shard 1/2 died with exit code 17"):
        _verify(comp, dbs, LIVENESS, workers=2)


def test_dead_shard_child_exits_2_without_traceback(monkeypatch, tmp_path,
                                                    capsys):
    spec = tmp_path / "sr.dws"
    spec.write_text(SPEC_TEXT)
    _die_in_shard_one(monkeypatch)
    assert main(["verify", str(spec), "--workers", "2"]) == 2
    err = capsys.readouterr().err
    assert "error: the child running shard 1/2 died with exit code 17" \
        in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# hypothesis: random compositions, random shard splits


@settings(max_examples=5, deadline=None)
@given(
    items=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                   max_size=3, unique=True),
    prop=st.sampled_from([SAFETY, LIVENESS]),
    count=st.integers(min_value=1, max_value=3),
)
def test_shard_merge_matches_sequential(items, prop, count):
    comp, dbs = sender_receiver_case(tuple(items))
    dom = verification_domain(comp, [], dbs, fresh_count=1)
    reference = _verify(comp, dbs, prop, workers=1)
    merged = _merged_shard_run(comp, dbs, prop, count=count, workers=1)
    _assert_equivalent(reference, merged, comp, dbs, dom.values)
