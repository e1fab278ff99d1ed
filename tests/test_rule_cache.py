"""The rule-firing memo holds nothing beyond its bounded entries.

:class:`repro.runtime.step._RuleCache` evicts least-recently-used
answers at ``maxsize``.  Its keys must be all it keeps of the relation
extensions and quantification domains it has seen: a long-running
process (a fuzz campaign, a service) fires rules over ever new
extensions and domains, and anything kept per distinct value grows
without bound.
"""

import gc
from types import FunctionType, ModuleType

from repro.fo import Instance
from repro.runtime import GlobalState, empty_queues, input_choices
from repro.runtime import step
from repro.spec import Composition, PeerBuilder


def _reachable_ids(root) -> set[int]:
    """Ids of the objects *root* holds, directly or through other objects
    (not through classes, modules or functions)."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, ModuleType, FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return seen


def test_memo_keeps_only_its_entries(monkeypatch):
    cache = step._RuleCache(maxsize=2)
    monkeypatch.setattr(step, "_RULE_CACHE", cache)
    peer = (
        PeerBuilder("S")
        .database("items", 1)
        .input("pick", 1)
        .input_rule("pick", ["x"], "items(x)")
        .build()
    )
    composition = Composition([peer])
    extensions, domains = [], []
    for i in range(1000):
        state = GlobalState(data=Instance({"S.items": [(f"v{i}",)]}),
                            queues=empty_queues(composition))
        domain = (f"v{i}", f"w{i}")
        assert len(input_choices(composition, state, peer, domain)) == 2
        extensions.append(state.data["S.items"])
        domains.append(domain)

    info = cache.info()
    assert (info["size"], info["misses"], info["evictions"]) == (2, 1000, 998)
    held = _reachable_ids(cache)
    assert sum(id(rows) in held for rows in extensions) == 2
    assert sum(id(domain) in held for domain in domains) == 2
