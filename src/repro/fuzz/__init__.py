"""The scenario factory: a frontier-sweeping specification fuzzer.

The paper's contribution is a *decidability map* (Theorems 3.4-3.10)
over composition/property/semantics configurations.  This package turns
the reproduction into its own test subject:

* :mod:`repro.fuzz.generate` -- a seeded random generator of
  well-formed compositions (peers, channels, rules, databases,
  properties) targeted at a requested theorem row of the map;
* :mod:`repro.fuzz.harness` -- runs every generated spec through the
  full pipeline under a stack of layered oracles: the static analyzer
  must never crash and must classify the spec into its requested row,
  the verifier and the reference engine of :mod:`repro.fuzz.seed_engine`
  (and worker counts, and shard splits merged back) must agree
  bit-for-bit, and every counterexample must replay through
  :func:`repro.runtime.validate_lasso`;
* :mod:`repro.fuzz.shrink` -- minimizes any failing case by deleting
  peers, rules, declarations, database rows and properties while the
  failure persists, so the corpus holds small replayable ``.dws``
  reproducers.

Exposed on the command line as ``repro fuzz``.
"""

from .generate import GeneratedSpec, THEOREM_ROWS, generate
from .harness import (
    CaseOutcome, FuzzReport, OracleViolation, fuzz, minimize, run_case,
)
from .shrink import shrink

__all__ = [
    "CaseOutcome",
    "FuzzReport",
    "GeneratedSpec",
    "OracleViolation",
    "THEOREM_ROWS",
    "fuzz",
    "generate",
    "minimize",
    "run_case",
    "shrink",
]
