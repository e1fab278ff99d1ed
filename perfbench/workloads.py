"""The four workloads: inputs, one timed unit each, and known answers.

A workload is built once per process (its set-up), then runs units in a
closed loop.  Its constructor takes the checkout root, a scratch
directory, the seed, and the :class:`Launcher` that starts child
processes (``None`` for the in-process workloads, which start none).
Every unit goes in three steps: ``prepare`` (untimed: fresh inputs),
``run`` (timed: one call into a public entry point), ``check`` (untimed:
compare with answers fixed here, never with another run of the engine).
``check`` returns the list of problems; any problem fails the unit.

Expected answers:

* ``sweep`` and ``explore``: every library property is documented as
  SATISFIED (``repro.library.loan``/``ecommerce`` docstrings, E12/E14);
* ``corpus``: the verdicts the corpus generator builds in, plus both
  auction properties SATISFIED; each counterexample must replay through
  ``repro.runtime.run.validate_lasso``;
* ``cold_cli``: both auction properties SATISFIED, exit code 0.
"""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import corpus

AUCTION = "examples/specs/auction.dws"
AUCTION_VERDICTS = {"sold_meets_reserve": True, "outcome_is_definite": True}

#: E14's candidate pool: 180 canonical valuations of the letter property.
WIDE_CANDIDATES = {
    "id": ("c1", "s1", "ann", "small", "acct1"),
    "name": ("ann", "c1", "small", "high"),
    "loan": ("small", "large", "c1", "fair"),
    "dec": ("approved", "denied", "large", "high"),
}

#: The properties ``repro profile ecommerce`` checks, all SATISFIED.
ECOMMERCE_PROPERTIES = ("ship_requires_auth", "no_ship_on_decline",
                        "auth_honest")

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def library_documents() -> dict[str, str]:
    """Canonical text of the library compositions the workloads verify."""
    from repro.library import ecommerce, loan
    from repro.spec.dsl import dump_document

    return {
        "library/loan": dump_document(
            loan.loan_composition(), loan.standard_database("fair"),
            {"letter_needs_application":
             loan.PROPERTY_LETTER_NEEDS_APPLICATION}),
        "library/ecommerce": dump_document(
            ecommerce.ecommerce_composition(),
            ecommerce.standard_database("good"),
            {"ship_requires_auth": ecommerce.PROPERTY_SHIP_REQUIRES_AUTH,
             "no_ship_on_decline": ecommerce.PROPERTY_NO_SHIP_ON_DECLINE,
             "auth_honest": ecommerce.PROPERTY_AUTH_HONEST}),
    }


def input_fingerprints(root: Path) -> dict[str, str]:
    """sha256 of every input of every workload, keyed by input name."""
    out = {f"corpus/{name}.dws": sha256(text)
           for name, text, _ in corpus.catalog()}
    out[AUCTION] = sha256((root / AUCTION).read_bytes())
    out.update({k: sha256(v) for k, v in library_documents().items()})
    return out


def check_fingerprint(key: str, digest: str) -> None:
    recorded = json.loads(FINGERPRINTS.read_text())
    if recorded.get(key) != digest:
        raise RuntimeError(
            f"input fingerprint drifted: {key} is {digest}, recorded "
            f"{recorded.get(key)}")


def _import_program(root: Path):
    """Import ``repro.cli`` and insist it comes from this checkout."""
    import repro.cli

    src = (root / "src").resolve()
    if src not in Path(repro.cli.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.cli.__file__}, "
                           f"not from {src}")
    return repro.cli


class _VerifyCapture:
    """Keeps the results of the CLI's ``verify`` calls for checking.

    Installed on the ``repro.cli`` module's binding only; the unit's cost
    grows by one Python call per property.
    """

    def __init__(self, cli) -> None:
        self.calls: list[tuple[tuple, dict, object]] = []
        inner = cli.verify

        def verify(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.calls.append((args, kwargs, result))
            return result

        cli.verify = verify


class Launcher:
    """Client of ``launcher.py``, which starts the cold units' children.

    Start it before the speed probe builds its table; ``launcher.py``
    says why.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        #: Largest peak RSS of the commands run so far, in MB.
        self.peak_rss_mb = 0.0

    def run(self, cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
        self._proc.stdin.write(json.dumps({"cmd": cmd, "cwd": str(cwd)})
                               + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self._proc.wait()}")
        answer = json.loads(line)
        self.peak_rss_mb = answer["peak_rss_mb"]
        return subprocess.CompletedProcess(cmd, answer["returncode"],
                                           answer["stdout"], answer["stderr"])

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=30)


def _clear_rule_cache() -> None:
    from repro.runtime.step import clear_rule_cache
    clear_rule_cache()


class Sweep:
    """E14's row: one ``verify()`` over 180 valuations of one property."""

    in_process = True
    cycle = 1
    #: Largest share of a traced unit's wall time outside its root span
    #: (reading the program's counters around it).
    closure_tolerance = 0.02

    def __init__(self, root: Path, outdir: Path, seed: int,
                 launcher: Launcher | None) -> None:
        _import_program(root)
        from repro import verifier
        from repro.library import loan

        self.verifier, self.loan = verifier, loan
        check_fingerprint("library/loan",
                          sha256(library_documents()["library/loan"]))

    def prepare(self, index: int):
        _clear_rule_cache()
        return (self.loan.loan_composition(),
                self.loan.standard_database("fair"))

    def run(self, inputs):
        composition, databases = inputs
        # attribute lookups at call time, so the traced run's wrappers fire
        domain = self.verifier.verification_domain(
            composition, [], databases, fresh_count=1)
        return self.verifier.verify(
            composition, self.loan.PROPERTY_LETTER_NEEDS_APPLICATION,
            databases, domain=domain, valuation_candidates=WIDE_CANDIDATES,
            workers=1)

    def check(self, inputs, result) -> list[str]:
        return [] if result.satisfied else ["loan letter sweep: VIOLATED"]


class Explore:
    """E12's e-commerce row through the CLI: ``repro profile ecommerce``."""

    in_process = True
    cycle = 1
    closure_tolerance = 0.02

    def __init__(self, root: Path, outdir: Path, seed: int,
                 launcher: Launcher | None) -> None:
        self.cli = _import_program(root)
        check_fingerprint("library/ecommerce",
                          sha256(library_documents()["library/ecommerce"]))
        self.capture = _VerifyCapture(self.cli)

    def prepare(self, index: int):
        _clear_rule_cache()
        self.capture.calls.clear()
        return None

    def run(self, inputs):
        return self.cli.main(["profile", "ecommerce", "--workers", "1"])

    def check(self, inputs, code) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        verdicts = [r.satisfied for _a, _k, r in self.capture.calls]
        if verdicts != [True] * len(ECOMMERCE_PROPERTIES):
            problems.append(f"verdicts {verdicts}, expected all SATISFIED")
        return problems


class Corpus:
    """``repro verify --lint-first`` over the seeded corpus plus auction."""

    in_process = True
    #: Units per pass over the documents; the documents differ in cost.
    cycle = len(corpus.catalog()) + 1
    closure_tolerance = 0.02

    def __init__(self, root: Path, outdir: Path, seed: int,
                 launcher: Launcher | None) -> None:
        self.cli = _import_program(root)
        import repro.analysis.lint  # noqa: F401  (the CLI imports it lazily)
        from repro.runtime.run import validate_lasso
        from repro.verifier import verification_domain

        self.validate_lasso = validate_lasso
        self.verification_domain = verification_domain
        docs = outdir / "corpus"
        docs.mkdir(parents=True, exist_ok=True)
        self.documents = []
        for name, text, verdicts in corpus.catalog():
            check_fingerprint(f"corpus/{name}.dws", sha256(text))
            path = docs / f"{name}.dws"
            path.write_text(text)
            self.documents.append((str(path), verdicts))
        check_fingerprint(AUCTION, sha256((root / AUCTION).read_bytes()))
        self.documents.append((str(root / AUCTION), AUCTION_VERDICTS))
        self.seed = seed
        self.metrics = outdir / "corpus-metrics.json"
        self.capture = _VerifyCapture(self.cli)

    def prepare(self, index: int):
        _clear_rule_cache()
        self.capture.calls.clear()
        self.metrics.unlink(missing_ok=True)
        return self.documents[corpus.visit(self.seed, len(self.documents),
                                           index)]

    def run(self, inputs):
        path, _ = inputs
        return self.cli.main(["verify", "--lint-first", "--workers", "1",
                              "--metrics-json", str(self.metrics), path])

    def check(self, inputs, code) -> list[str]:
        path, expected = inputs
        problems = []
        want = 0 if all(expected.values()) else 1
        if code != want:
            problems.append(f"{path}: exit code {code}, expected {want}")
        reported = {e["property"]: e["verdict"] == "SATISFIED"
                    for e in json.loads(self.metrics.read_text())["results"]}
        if reported != expected:
            problems.append(f"{path}: verdicts {reported}, "
                            f"expected {expected}")
        for args, kwargs, result in self.capture.calls:
            if result.satisfied:
                continue
            composition, sentence, databases = args
            domain = self.verification_domain(composition, [sentence],
                                              databases)
            replay = self.validate_lasso(
                composition, databases, domain.values,
                result.counterexample.lasso, semantics=kwargs["semantics"])
            if replay:
                problems.append(f"{path}: counterexample does not replay: "
                                f"{replay}")
        return problems


_VERDICT_LINE = re.compile(r"^(\w+): (SATISFIED|VIOLATED)\b", re.M)


class ColdCli:
    """``python -m repro verify examples/specs/auction.dws`` as a process."""

    in_process = False
    cycle = 1
    #: A traced unit's root span starts when the child is spawned and
    #: ends before it writes its spans, tears down and is reaped.
    closure_tolerance = 0.15

    def __init__(self, root: Path, outdir: Path, seed: int,
                 launcher: Launcher | None) -> None:
        self.root = root
        self.launcher = launcher
        check_fingerprint(AUCTION, sha256((root / AUCTION).read_bytes()))
        # the program's part of the set-up: one child imports the CLI
        probe = launcher.run([sys.executable, "-c", "import repro.cli"], root)
        if probe.returncode != 0:
            raise RuntimeError(f"import repro.cli failed: {probe.stderr}")
        self.argv = ["verify", "--workers", "1", AUCTION]
        self.spans = outdir / "cold-unit-spans.json"
        self.child = str(Path(__file__).with_name("coldchild.py"))
        self.traced = False

    def prepare(self, index: int):
        self.spans.unlink(missing_ok=True)
        return None

    def run(self, inputs):
        if self.traced:
            cmd = [sys.executable, self.child, str(self.spans),
                   repr(time.perf_counter()), *self.argv]
        else:
            cmd = [sys.executable, "-m", "repro", *self.argv]
        return self.launcher.run(cmd, self.root)

    def check(self, inputs, proc) -> list[str]:
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}, expected 0: "
                            f"{proc.stderr.strip()[-300:]}")
        verdicts = {name: verdict == "SATISFIED"
                    for name, verdict in _VERDICT_LINE.findall(proc.stdout)}
        if verdicts != AUCTION_VERDICTS:
            problems.append(f"verdicts {verdicts}, "
                            f"expected {AUCTION_VERDICTS}")
        return problems


WORKLOADS = {"sweep": Sweep, "explore": Explore, "corpus": Corpus,
             "cold_cli": ColdCli}

#: Spans each workload's traced units must reach at least once.
_VERIFIER_SPANS = {
    "verifier.verify", "domain.verification_domain",
    "domain.canonical_valuations", "ib.check_composition",
    "ib.check_sentence", "ltl.ltl_to_buchi", "runtime.successors",
    "search.find_accepting_lasso", "graph.complete",
}
EXPECTED_SPANS = {
    "sweep": _VERIFIER_SPANS,
    "explore": _VERIFIER_SPANS | {"cli.main"},
    "corpus": _VERIFIER_SPANS | {"cli.main", "spec.load_document",
                                 "analysis.lint_composition"},
    "cold_cli": _VERIFIER_SPANS | {"cli.main", "spec.load_document",
                                   "import"},
}
