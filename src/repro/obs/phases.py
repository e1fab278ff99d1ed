"""Exclusive phase timers for the verifier pipeline.

``with phase(PHASE_SEARCH): ...`` accumulates *self time* into the
process registry: when phases nest (the emptiness search expands
system states, which fires rules, which evaluates FO bodies), entering
a child pauses the parent's clock, so each phase's seconds count only
the work done at that level and the per-phase totals sum to the total
instrumented wall time.  That additivity is what lets ``repro
profile`` print a breakdown whose rows sum to the observed wall clock.

The phase stack is thread-local; the accumulators live in
:data:`repro.obs.metrics.REGISTRY` (process-local).

Overhead per enter+exit is two ``perf_counter`` calls and a few dict
operations; every instrumented site sits behind real work (a cache
miss, a state expansion, a whole automaton translation), keeping the
cost well under the noise floor of the benchmarks.
"""

from __future__ import annotations

import threading
from time import perf_counter

from .metrics import REGISTRY

# Canonical phase names, in pipeline order (see DESIGN.md section 4:
# translation -> product -> emptiness).
PHASE_IB_CHECK = "ib-check"      #: input-boundedness restriction check
PHASE_VALUATIONS = "valuations"  #: universal-closure valuation enumeration
PHASE_TRANSLATE = "translate"    #: LTL -> Büchi (GPVW + degeneralize)
PHASE_SEARCH = "search"          #: nested-DFS emptiness (self: DFS bookkeeping)
PHASE_EXPAND = "expand"          #: system-state successor expansion
PHASE_RULE_FIRE = "rule-fire"    #: rule firing (self: cache lookup/key cost)
PHASE_FO_EVAL = "fo-eval"        #: FO formula evaluation (sat-set computation)
PHASE_SWEEP = "sweep"            #: driver side of the valuation sweep
PHASE_LINT = "lint"              #: static analyzer driver (repro lint)


def lint_phase(pass_name: str) -> str:
    """The phase name timing one static-analysis pass: ``lint:<name>``."""
    return "lint:" + pass_name


_local = threading.local()


def _stack() -> list:
    try:
        return _local.stack
    except AttributeError:
        stack = _local.stack = []
        return stack


class phase:
    """Context manager timing one pipeline phase (exclusive/self time)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "phase":
        now = perf_counter()
        stack = _stack()
        if stack:
            parent = stack[-1]
            seconds = REGISTRY.phase_seconds
            pname = parent[0]
            seconds[pname] = seconds.get(pname, 0.0) + (now - parent[1])
        counts = REGISTRY.phase_counts
        counts[self.name] = counts.get(self.name, 0) + 1
        stack.append([self.name, now])
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        now = perf_counter()
        stack = _stack()
        name, start = stack.pop()
        seconds = REGISTRY.phase_seconds
        seconds[name] = seconds.get(name, 0.0) + (now - start)
        if stack:
            stack[-1][1] = now


def phase_seconds() -> dict[str, float]:
    """Copy of the per-phase self-time accumulators (this process)."""
    return dict(REGISTRY.phase_seconds)


def phase_counts() -> dict[str, int]:
    """Copy of the per-phase entry counters (this process)."""
    return dict(REGISTRY.phase_counts)
