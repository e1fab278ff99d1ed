"""Seeded corpus of small `.dws` documents with verdicts known by construction.

The corpus is a fixed catalog of relay pipelines (the shapes the fuzz
generator draws for the decidable row): a source peer whose user picks a
database item and sends it, 0-2 relay peers, and a sink that records what
arrives.  The catalog crosses every shape choice:

* 0, 1 or 2 relays (the first relay remembers what it forwarded);
* 1 or 2 database items;
* a gated source (one pick, then the menu closes) or an ungated one;
* a sink with or without an action;
* with or without a nested side channel (a producer publishes its table
  as one nested message, a consumer stores it).

Shapes multiply: an ungated source with two items behind a relay, or a
side channel next to anything but a short gated pipeline, reaches
thousands of states and takes seconds, where the catalog aims at
documents of tens of milliseconds.  Those combinations are left out,
which keeps 24 documents whose reachable graphs still span 7 to about
400 states.  The seed only decides the order in which the documents are
visited, so every seed does the same work.

The text is written here, not by ``repro.fuzz``: a change to the fuzzer
cannot change these inputs, and `fingerprints.json` pins every document.

Verdicts under the default lossy 1-bounded channels, by construction:

* ``safety`` -- whatever the sink records was a source item -- holds,
  because every relay forwards only what it received;
* ``liveness`` -- every pick is eventually recorded by the sink -- fails,
  because a lossy channel may drop the message;
* ``side`` -- the consumer stores only the producer's rows -- holds.
"""

from __future__ import annotations

import itertools
import random

#: Values drawn by the sources; the side channel uses a disjoint value.
_ITEMS = ("a", "b")
_SIDE_ROW = "c"


def _source(gated: bool) -> str:
    lines = ["peer S {", "    database items/1"]
    if gated:
        lines.append("    state    picked/0")
    lines += ["    input    pick/1", "    out flat q0/1", ""]
    if gated:
        lines += ["    input  pick(x) <- items(x) & ~picked",
                  "    insert picked <- exists x: pick(x)"]
    else:
        lines.append("    input  pick(x) <- items(x)")
    lines += ["    send   q0(x) <- pick(x)", "}"]
    return "\n".join(lines)


def _relay(index: int, remember: bool) -> str:
    src, dst = f"q{index - 1}", f"q{index}"
    lines = [f"peer M{index} {{"]
    if remember:
        lines.append("    state    seen/1")
    lines += [f"    in  flat {src}/1", f"    out flat {dst}/1", "",
              f"    send   {dst}(x) <- ?{src}(x)"]
    if remember:
        lines.append(f"    insert seen(x) <- ?{src}(x)")
    lines.append("}")
    return "\n".join(lines)


def _sink(name: str, queue: str, with_action: bool) -> str:
    lines = [f"peer {name} {{", "    state    done/1"]
    if with_action:
        lines.append("    action   report/1")
    lines += [f"    in  flat {queue}/1", "",
              f"    insert done(x) <- ?{queue}(x)"]
    if with_action:
        lines.append(f"    action report(x) <- ?{queue}(x)")
    lines.append("}")
    return "\n".join(lines)


_SIDE_CHANNEL = """\
peer NP {
    database rows/1
    state    published/0
    input    publish/0
    out nested bulk/1

    input  publish <- ~published
    send   bulk(x) <- publish & rows(x)
    insert published <- publish
}

peer NC {
    state    stored/1
    in  nested bulk/1

    insert stored(x) <- ?bulk(x)
}"""


def document(relays: int, items: int, gated: bool, with_action: bool,
             side: bool) -> tuple[str, str, dict[str, bool]]:
    """One catalog entry: (name, `.dws` text, property -> satisfied)."""
    name = (f"relays{relays}-items{items}-{'gated' if gated else 'open'}"
            f"-{'action' if with_action else 'quiet'}"
            f"-{'side' if side else 'plain'}")
    sink = f"T{relays}"
    blocks = [f"# benchmark corpus document {name}", _source(gated)]
    blocks += [_relay(i, remember=(i == 1)) for i in range(1, relays + 1)]
    blocks.append(_sink(sink, f"q{relays}", with_action))
    if side:
        blocks.append(_SIDE_CHANNEL)
    rows = ", ".join(f'("{v}")' for v in _ITEMS[:items])
    blocks.append(f"database S {{\n    items: {rows}\n}}")
    if side:
        blocks.append(f'database NP {{\n    rows: ("{_SIDE_ROW}")\n}}')
    props = [f"property safety: forall x: G( {sink}.done(x) -> S.items(x) )",
             f"property liveness: forall x: G( S.pick(x) -> F {sink}.done(x) )"]
    verdicts = {"safety": True, "liveness": False}
    if side:
        props.append("property side: forall x: G( NC.stored(x) -> NP.rows(x) )")
        verdicts["side"] = True
    blocks.append("\n".join(props))
    return name, "\n\n".join(blocks) + "\n", verdicts


def _small(relays: int, items: int, gated: bool, side: bool) -> bool:
    if side:
        return gated and items == 1 and relays <= 1
    return gated or items == 1 or relays == 0


def catalog() -> list[tuple[str, str, dict[str, bool]]]:
    """Every corpus document, in a fixed order."""
    return [
        document(relays, items, gated, with_action, side)
        for relays, items, gated, with_action, side in itertools.product(
            (0, 1, 2), (1, 2), (True, False), (True, False), (True, False))
        if _small(relays, items, gated, side)
    ]


def visit(seed: int, size: int, unit: int) -> int:
    """The catalog index a run visits at *unit*.

    Each pass over the catalog is its own seeded shuffle, so a process
    can resume the sequence at any unit.
    """
    order = list(range(size))
    random.Random(f"{seed}/{unit // size}").shuffle(order)
    return order[unit % size]
