"""Regression tests for ``repro merge-shards`` error paths.

Every malformed-fragment scenario must surface as a clear CLI error
(exit code 2 with an ``error:`` line) -- never a traceback.  The
interesting ones:

* mismatched spec hashes -- fragments from two *different* specs that
  happen to declare the same property list (the silent-garbage case
  the ``spec_sha`` stamp exists to catch);
* overlapping shard indices -- the same residue class submitted twice;
* an empty or non-object fragment file, or one that lacks a key.

Fragment files are untrusted input: ``repro merge-shards`` never
unpickles the counterexample a fragment carries.
"""

from __future__ import annotations

import base64
import json
import pickle

import pytest

from repro.cli import main
from repro.library import dispatch, payments
from repro.verifier import (
    merge_fragments, shard_fragment, spec_sha, verify,
)


@pytest.fixture(scope="module")
def payment_fragments():
    """Two real shard fragments of a payments sweep."""
    comp = payments.payments_composition()
    dbs = payments.standard_database()
    fragments = []
    for index in range(2):
        result = verify(
            comp, payments.PROPERTY_CAPTURE_CLEARED, dbs,
            valuation_candidates=payments.STANDARD_CANDIDATES,
            shard=(index, 2),
        )
        fragments.append(shard_fragment([result], (index, 2),
                                        composition=comp))
    return fragments


def _write(tmp_path, name, fragment):
    path = tmp_path / name
    path.write_text(json.dumps(fragment))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    return code, err


class _OpensFile:
    """Unpickles as ``open(path, "w")``: code a crafted pickle runs."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


class TestValidateFragments:
    def test_fragments_carry_the_spec_hash(self, payment_fragments):
        comp = payments.payments_composition()
        expected = spec_sha(comp)
        assert expected is not None
        for frag in payment_fragments:
            assert frag["spec_sha"] == expected

    def test_mismatched_spec_hashes_rejected(self, payment_fragments):
        """Same property list, different composition -> refuse."""
        other = dict(payment_fragments[1])
        other["spec_sha"] = spec_sha(dispatch.dispatch_composition())
        with pytest.raises(ValueError, match="different specs"):
            merge_fragments([payment_fragments[0], other])

    def test_legacy_fragments_without_hash_still_merge(
            self, payment_fragments):
        legacy = [dict(frag) for frag in payment_fragments]
        for frag in legacy:
            frag.pop("spec_sha")
        merged = merge_fragments(legacy)
        assert merged["properties"][0]["verdict"] == "SATISFIED"

    def test_overlapping_indices_rejected(self, payment_fragments):
        twice = [payment_fragments[0], payment_fragments[0]]
        with pytest.raises(ValueError, match="overlapping shard"):
            merge_fragments(twice)

    def test_empty_fragment_list_rejected(self):
        with pytest.raises(ValueError, match="no shard fragments"):
            merge_fragments([])


class TestCliErrors:
    def test_mismatched_spec_hashes_exit_2(self, payment_fragments,
                                           tmp_path, capsys):
        other = dict(payment_fragments[1])
        other["spec_sha"] = spec_sha(dispatch.dispatch_composition())
        argv = ["merge-shards",
                _write(tmp_path, "a.json", payment_fragments[0]),
                _write(tmp_path, "b.json", other)]
        code, err = _run(capsys, argv)
        assert code == 2
        assert "error:" in err and "different specs" in err
        assert "Traceback" not in err

    def test_overlapping_indices_exit_2(self, payment_fragments,
                                        tmp_path, capsys):
        path = _write(tmp_path, "a.json", payment_fragments[0])
        code, err = _run(capsys, ["merge-shards", path, path])
        assert code == 2
        assert "error:" in err and "overlapping shard" in err
        assert "Traceback" not in err

    def test_missing_shard_exit_2(self, payment_fragments, tmp_path,
                                  capsys):
        path = _write(tmp_path, "a.json", payment_fragments[0])
        code, err = _run(capsys, ["merge-shards", path])
        assert code == 2
        assert "error:" in err and "every shard" in err

    def test_empty_json_list_fragment_exit_2(self, tmp_path, capsys):
        """A fragment file holding ``[]`` is a clear error, not an
        AttributeError traceback."""
        path = tmp_path / "empty.json"
        path.write_text("[]")
        code, err = _run(capsys, ["merge-shards", str(path)])
        assert code == 2
        assert "error:" in err and "not a shard fragment" in err
        assert "Traceback" not in err

    def test_unreadable_fragment_exit_2(self, tmp_path, capsys):
        code, err = _run(
            capsys, ["merge-shards", str(tmp_path / "missing.json")])
        assert code == 2
        assert "error:" in err and "cannot read fragment" in err

    def test_fragment_without_shard_exit_2(self, payment_fragments,
                                           tmp_path, capsys):
        argv = ["merge-shards",
                _write(tmp_path, "a.json", {"schema": "repro.shard/1"}),
                _write(tmp_path, "b.json", payment_fragments[1])]
        code, err = _run(capsys, argv)
        assert code == 2
        assert "error:" in err and "no key 'shard'" in err

    def test_property_without_stats_exit_2(self, payment_fragments,
                                           tmp_path, capsys):
        broken = json.loads(json.dumps(payment_fragments[1]))
        del broken["properties"][0]["stats"]
        argv = ["merge-shards",
                _write(tmp_path, "a.json", payment_fragments[0]),
                _write(tmp_path, "b.json", broken)]
        code, err = _run(capsys, argv)
        assert code == 2
        assert "error:" in err and "no key 'stats'" in err

    def test_wrong_typed_shard_exit_2(self, payment_fragments, tmp_path,
                                      capsys):
        broken = dict(payment_fragments[1], shard=None)
        argv = ["merge-shards",
                _write(tmp_path, "a.json", payment_fragments[0]),
                _write(tmp_path, "b.json", broken)]
        code, err = _run(capsys, argv)
        assert code == 2
        assert "error:" in err and "malformed shard fragment" in err

    def test_no_fragment_arguments_exit_2(self, capsys):
        """argparse rejects an empty fragment list with usage + exit 2."""
        with pytest.raises(SystemExit) as exc:
            main(["merge-shards"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err


def test_counterexample_pickle_is_never_loaded(payment_fragments, tmp_path,
                                               capsys):
    """A fragment's pickled counterexample stays bytes: the merged
    verdict, stats and counterexample text come off the JSON."""
    target = tmp_path / "created-by-unpickling"
    crafted = json.loads(json.dumps(payment_fragments[0]))
    entry = crafted["properties"][0]
    order = entry["stats"]["per_task"][0]["order"]
    entry.update(
        satisfied=False, verdict="VIOLATED", decisive_order=order,
        counterexample={
            "pickle": base64.b64encode(
                pickle.dumps(_OpensFile(str(target)))).decode("ascii"),
            "text": "counterexample text from the fragment",
        },
    )
    argv = ["merge-shards", "--counterexample",
            _write(tmp_path, "a.json", crafted),
            _write(tmp_path, "b.json", payment_fragments[1])]
    code = main(argv)
    out = capsys.readouterr().out
    assert not target.exists()
    assert code == 1
    assert (f"{entry['property']}: VIOLATED  (valuations=1, "
            in out)
    assert f"decisive: order {order} in shard 0)" in out
    assert "counterexample text from the fragment" in out
