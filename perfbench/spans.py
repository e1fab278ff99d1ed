"""Spans around calls into the verifier's layers, recorded from outside.

:meth:`Tracer.install` replaces each layer's public function at every
module of the ``repro`` package that binds it, so a ``from x import y``
binding is wrapped as well as the defining module.  A wrapper records a
span -- name, start, end, parent span, unit id -- only while a unit is
open, and passes straight through otherwise.  Spans are held in memory
and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; summed over every span of a unit, self times add up to the
unit's root span.  :func:`summarize` checks that the root span matches
the wall time the worker took of the unit, so the per-layer breakdown
accounts for the unit's time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter

#: span name -> (defining module, attribute); one public function per layer.
LAYER_FUNCTIONS = {
    "spec.load_document": ("repro.spec.dsl", "load_document"),
    "analysis.lint_composition": ("repro.analysis.lint", "lint_composition"),
    "ib.check_composition": ("repro.ib.checker", "check_composition"),
    "ib.check_sentence": ("repro.ib.checker", "check_sentence"),
    "domain.verification_domain": ("repro.verifier.domain",
                                   "verification_domain"),
    "domain.canonical_valuations": ("repro.verifier.domain",
                                    "canonical_valuations"),
    "ltl.ltl_to_buchi": ("repro.ltl.translate", "ltl_to_buchi"),
    "runtime.successors": ("repro.runtime.step", "successors"),
    "search.find_accepting_lasso": ("repro.verifier.search",
                                    "find_accepting_lasso"),
    "verifier.verify": ("repro.verifier.ltlfo_verifier", "verify"),
    "cli.main": ("repro.cli", "main"),
}

#: span name -> (module, class, method) for layers entered through a method.
LAYER_METHODS = {
    "graph.complete": ("repro.verifier.graph", "SharedExploration",
                       "complete"),
}

#: Name of the span that wraps one whole unit.
ROOT = "unit"

#: Name of the span around ``import repro.cli`` in a cold CLI unit.
IMPORT = "import"

#: Seconds a unit's wall time may exceed its root span by on top of the
#: workload's tolerance: room for one speed probe tick (``speed.py``)
#: landing just outside the root span.
SLACK_S = 0.002

#: Per-layer self-time metrics: metric -> the spans whose self time it sums.
SELF_TIME_METRICS = {
    "runtime.expand_s": ("runtime.successors",),
    "search.self_s": ("search.find_accepting_lasso",),
    "ltl.translate_s": ("ltl.ltl_to_buchi",),
    "graph.freeze_s": ("graph.complete",),
    "domain.setup_s": ("domain.verification_domain",
                       "domain.canonical_valuations"),
    "spec.parse_s": ("spec.load_document",),
    "analysis.lint_s": ("analysis.lint_composition",),
    "ib.check_s": ("ib.check_composition", "ib.check_sentence"),
    "cli.self_s": ("cli.main",),
    "verifier.self_s": ("verifier.verify",),
    "import.self_s": (IMPORT,),
    "unit.self_s": (ROOT,),
}

#: Program counters read per unit from ``repro.obs.counters_snapshot()``.
_COUNTERS = ("fo.evaluate_calls", "search.blue_visited",
             "search.red_visited", "search.runs",
             "translate.automata_built", "graph.reuse_hits")


def _program_counters() -> dict:
    """Counters, phase entry counts and rule-cache totals of this process.

    Empty until ``repro`` is imported: a fresh process has counted nothing.
    """
    if "repro.obs" not in sys.modules:
        return {}
    from repro.obs import counters_snapshot, phase_counts
    from repro.runtime.step import rule_cache_info

    counters = counters_snapshot()
    out = {name: counters.get(name, 0) for name in _COUNTERS}
    out["phase.expand"] = phase_counts().get("expand", 0)
    cache = rule_cache_info()
    out["rule_cache.hits"] = cache["hits"]
    out["rule_cache.misses"] = cache["misses"]
    return out


class Tracer:
    """Span recorder for one process."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, unit id]`` per span.
        self.spans: list[list] = []
        self.units: list[dict] = []
        self._stack: list[int] = []
        self._unit: int | None = None
        self._states: set = set()
        self._formulas: set = set()
        self._valuations = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0,
                  self._stack[-1] if self._stack else -1, self._unit]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    @contextlib.contextmanager
    def unit(self, unit_id: int, started: float | None = None):
        """Open the root span of one unit and count what it does.

        *started* backdates the root span to an earlier ``perf_counter()``
        reading, such as the instant a parent spawned this process.
        """
        self._unit = unit_id
        self._states.clear()
        self._formulas.clear()
        self._valuations = 0
        before = _program_counters()
        try:
            with self.span(ROOT) as record:
                if started is not None:
                    record[1] = started
                yield
        finally:
            self._unit = None
            after = _program_counters()
            self.units.append({
                "unit": unit_id,
                "distinct_states": len(self._states),
                "distinct_formulas": len(self._formulas),
                "valuations": self._valuations,
                "counters": {k: v - before.get(k, 0)
                             for k, v in after.items()},
            })

    def _wrap(self, name: str, fn):
        tracer = self
        states, formulas = self._states, self._formulas

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._unit is None:
                return fn(*args, **kwargs)
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if name == "runtime.successors":
                states.add(args[1])
            elif name == "ltl.ltl_to_buchi":
                formulas.add(args[0])
            elif name == "domain.canonical_valuations":
                tracer._valuations += len(result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function at every ``repro`` module binding it.

        Modules imported later bind the wrapper, because they import it
        from a module patched here.
        """
        originals = {
            name: getattr(importlib.import_module(module_name), attr)
            for name, (module_name, attr) in LAYER_FUNCTIONS.items()
        }
        modules = [m for n, m in list(sys.modules.items())
                   if n == "repro" or n.startswith("repro.")]
        for name, original in originals.items():
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for name, (module_name, cls, attr) in LAYER_METHODS.items():
            owner = getattr(importlib.import_module(module_name), cls)
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def dump(self) -> dict:
        return {"spans": self.spans, "units": self.units}


# -- analysis ---------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _unit in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_n, start, end, _p, _u) in enumerate(spans)]


def summarize(dumps: list[dict], samples: list[float], tolerance: float
              ) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-layer metrics as means per traced unit, span counts by name, and
    the share of the traced units' wall time the root spans cover.

    *dumps* are :meth:`Tracer.dump` results, one per process that traced
    units; *samples* are the wall times the worker took of units 0, 1, ...
    Raises ``ValueError`` if a span has negative self time (a nesting or
    clock fault), or if the root span of unit *i* is longer than sample
    *i* or shorter by more than *tolerance* of it.
    """
    self_by_name: dict[str, float] = {}
    fired: dict[str, int] = {}
    units: list[dict] = []
    covered = timed = 0.0
    for dump in dumps:
        spans = dump["spans"]
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            if own < -1e-9:
                raise ValueError(f"span {span[0]} of unit {span[4]} has "
                                 f"self time {own!r}")
        for name, start, end, _parent, unit in spans:
            if name != ROOT:
                continue
            wall, root = samples[unit], end - start
            if not -1e-4 <= wall - root <= tolerance * wall + SLACK_S:
                raise ValueError(
                    f"unit {unit}: root span {root:.6f} s, unit wall time "
                    f"{wall:.6f} s (tolerance {tolerance:.0%} + {SLACK_S} s)")
            covered += root
            timed += wall
        for span, own in zip(spans, selfs):
            self_by_name[span[0]] = self_by_name.get(span[0], 0.0) + own
            fired[span[0]] = fired.get(span[0], 0) + 1
        units.extend(dump["units"])
    n = len(units)
    if n == 0:
        raise ValueError("no traced units")

    def total(key: str) -> int:
        return sum(u["counters"].get(key, 0) for u in units)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {metric: sum(self_by_name.get(s, 0.0) for s in names) / n
               for metric, names in SELF_TIME_METRICS.items()}
    expansions = total("phase.expand")
    nodes = total("search.blue_visited") + total("search.red_visited")
    hits, misses = total("rule_cache.hits"), total("rule_cache.misses")
    automata = total("translate.automata_built")
    search_s = self_by_name.get("search.find_accepting_lasso", 0.0)
    metrics.update({
        "runtime.expansions": expansions / n,
        "runtime.expand_us_per_call": ratio(
            self_by_name.get("runtime.successors", 0.0) * 1e6, expansions),
        "runtime.expansions_per_state": ratio(
            expansions, sum(u["distinct_states"] for u in units)),
        "runtime.rule_cache_hit_rate": ratio(hits, hits + misses),
        "fo.evaluate_calls": total("fo.evaluate_calls") / n,
        "search.product_nodes": nodes / n,
        "search.ns_per_product_node": ratio(search_s * 1e9, nodes),
        "search.runs": total("search.runs") / n,
        "ltl.automata_built": automata / n,
        "ltl.automata_per_distinct_formula": ratio(
            automata, sum(u["distinct_formulas"] for u in units)),
        "graph.reuse_hits": total("graph.reuse_hits") / n,
        "domain.valuations": sum(u["valuations"] for u in units) / n,
    })
    return metrics, fired, covered / timed
