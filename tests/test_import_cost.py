"""What a cold ``repro verify`` loads.

The package ``__init__``s re-export the shard plane, modular
verification, the protocols, the communication graph, the environment
step, runs (``repro.runtime.run``: lassos, simulation, replay) and the
lint diagnostics, none of which an in-process LTL-FO verification of a
satisfied property runs; they load on first use (PEP 562).  Value
classes are records (``repro._record``), so ``dataclasses`` and the
``inspect`` it loads stay out, and ``json`` loads only where JSON is
written.  Each check runs in a fresh interpreter, since this one has
long loaded everything.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Modules neither ``import repro.cli`` nor ``repro verify auction.dws``
#: loads; ``hashlib`` (the shard plane's) maps OpenSSL into the process.
DEFERRED = (
    "repro.protocols.base", "repro.protocols.verify",
    "repro.verifier.modular", "repro.verifier.shards",
    "repro.spec.commgraph", "repro.runtime.environment", "hashlib",
    "repro.runtime.run", "repro.analysis.diagnostics",
    "repro.analysis.passes", "dataclasses", "inspect", "json",
)

#: A module the bare interpreter already holds (a site hook may load
#: ``json`` or ``inspect``) is not charged to ``repro``.
_VERIFY_PROBE = f"""
import contextlib, io, sys
bare = set(sys.modules)
import repro.cli
loaded = [m for m in {DEFERRED!r} if m in sys.modules and m not in bare]
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(["verify", {str(ROOT / "examples/specs/auction.dws")!r}])
loaded += [m for m in {DEFERRED!r}
           if m in sys.modules and m not in bare and m not in loaded]
print(code, *loaded)
"""

#: Imports every ``repro`` module first, so each submodule is bound on
#: its package before any lazy name is read, as after ``import
#: repro.protocols``; a lazy name that is also a submodule's name would
#: then read as the module.
_EVERY_MODULE = """
import pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        __import__(info.name)
"""

#: Prints each public name of the six packages that does not resolve to
#: the object its defining submodule holds, star imports included.
_NAMES_PROBE = """
import importlib, types
import repro.cli
import repro, repro.analysis, repro.ltl, repro.runtime, repro.spec
import repro.verifier
wrong = []
for pkg in (repro, repro.analysis, repro.ltl, repro.runtime, repro.spec,
            repro.verifier):
    star = {}
    exec(f"from {pkg.__name__} import *", star)
    for name in pkg.__all__:
        value = getattr(pkg, name, None)
        if (isinstance(value, types.ModuleType) or not hasattr(pkg, name)
                or star.get(name) is not value):
            wrong.append(f"{pkg.__name__}.{name}")
    sources = getattr(vars(pkg).get("__getattr__"), "sources", {})
    for module, names in sources.items():
        defining = importlib.import_module(module, pkg.__name__)
        wrong += [f"{pkg.__name__}.{name}" for name in names
                  if getattr(pkg, name) is not getattr(defining, name)]
print(*wrong)
"""


def _probe(code: str) -> list[str]:
    path = os.pathsep.join(filter(None, (str(SRC),
                                         os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.split()


def test_a_cold_verify_loads_only_the_verifier():
    """``import repro.cli`` and a whole ``repro verify`` of the auction
    spec (exit 0) load none of the deferred modules."""
    assert _probe(_VERIFY_PROBE) == ["0"]


def test_every_public_name_still_resolves():
    """Every name of each package's ``__all__`` resolves after a cold
    ``import repro.cli``, to the object its submodule defines, and star
    imports take them all."""
    assert _probe(_NAMES_PROBE) == []


def test_no_public_name_reads_as_a_submodule():
    """The same holds once every submodule is imported first: no lazy
    name is shadowed by a submodule of the same name."""
    assert _probe(_EVERY_MODULE + _NAMES_PROBE) == []
