"""The distributed run ledger: one ``run_id``, one stitched trace.

The multi-process pipeline (driver, the forked children of ``--workers``,
shard slices on other machines, fuzz campaigns) emits per-process JSONL
span streams (:mod:`repro.obs.trace`).  This module is the correlation
layer that turns those streams into *one* picture:

* :func:`begin_run` assigns (or adopts, via the ``REPRO_RUN_ID``
  environment variable or ``--run-id``) a globally unique run id and
  installs it as the trace stamp, so every subsequent event carries
  ``run``/``worker``/``shard`` fields; a forked child re-opens the
  parent's run with its worker index;
* :func:`stitch` reads any number of trace files (the driver's, a
  shard's from another machine, ...) and reassembles them into one
  causally-ordered event sequence plus a span forest, aligning the
  per-process monotonic clocks on the shared wall-clock axis via each
  stream's ``stream-start`` anchor.

The stitched form is what the exporters consume
(:mod:`repro.obs.export`) and what the upcoming ``repro serve`` daemon
will stream incrementally.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import trace

#: Version tag of the run-ledger context/stitch contract.
SCHEMA = "repro.run/1"

#: Environment variable carrying a caller-assigned run id, the
#: cross-machine correlation hook: export the same ``REPRO_RUN_ID``
#: before every ``--shard i/N`` slice and the fragments' traces stitch
#: under one id.
RUN_ID_ENV = "REPRO_RUN_ID"

_CURRENT: "RunContext | None" = None


@dataclass(frozen=True)
class RunContext:
    """Identity of one verification run, shared by all its processes."""

    run_id: str
    role: str = "driver"            #: driver | worker | fuzz | merge
    worker: int | None = None       #: local-shard child index (workers)
    shard: tuple[int, int] | None = None  #: ``(i, N)`` slice, if any

    def stamp(self) -> dict:
        """The fields merged into every trace event of this process."""
        out: dict = {"run": self.run_id}
        if self.worker is not None:
            out["worker"] = self.worker
        if self.shard is not None:
            out["shard"] = f"{self.shard[0]}/{self.shard[1]}"
        return out


def new_run_id() -> str:
    """A fresh, sortable, collision-resistant run id."""
    return ("r-" + time.strftime("%Y%m%dT%H%M%S")
            + "-" + os.urandom(4).hex())


def current_run() -> RunContext | None:
    return _CURRENT


def current_run_id() -> str | None:
    return _CURRENT.run_id if _CURRENT is not None else None


def begin_run(run_id: str | None = None, role: str = "driver",
              worker: int | None = None,
              shard: tuple[int, int] | None = None) -> RunContext:
    """Open a run context and install its trace stamp.

    ``run_id=None`` adopts ``$REPRO_RUN_ID`` when set (the shard /
    cross-machine case) and mints a fresh id otherwise.
    """
    global _CURRENT
    if run_id is None:
        run_id = os.environ.get(RUN_ID_ENV, "").strip() or new_run_id()
    ctx = RunContext(run_id=run_id, role=role, worker=worker, shard=shard)
    _CURRENT = ctx
    trace.set_stamp(ctx.stamp())
    return ctx


def set_shard(shard: tuple[int, int] | None) -> RunContext | None:
    """Record the shard selector on the active run (no-op without one)."""
    global _CURRENT
    if _CURRENT is None or shard is None:
        return _CURRENT
    ctx = RunContext(run_id=_CURRENT.run_id, role=_CURRENT.role,
                     worker=_CURRENT.worker, shard=shard)
    _CURRENT = ctx
    trace.set_stamp(ctx.stamp())
    return ctx


def end_run() -> None:
    """Close the run context and clear the trace stamp."""
    global _CURRENT
    _CURRENT = None
    trace.set_stamp(None)


# ---------------------------------------------------------------------------
# stitching: N JSONL files -> one causally-ordered trace


@dataclass
class Span:
    """One closed (or force-closed) span in the stitched tree."""

    name: str
    pid: int
    tid: int
    start: float                 #: wall-clock seconds (epoch)
    end: float | None = None
    worker: int | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start


@dataclass
class StitchedTrace:
    """The merged view over every input stream of one (or more) runs."""

    #: All events, each with a computed ``wall`` field, in causal
    #: (wall-clock) order; ties break on (pid, tid, input order).
    events: list[dict]
    #: Distinct run ids seen (ideally exactly one).
    run_ids: tuple[str, ...]
    #: pid -> {"role", "worker", "shard", "first_wall", "files"}.
    processes: dict[int, dict]
    #: Per-(pid, tid) span forests, driver streams first.
    roots: list[Span]
    #: Input lines that failed to parse (torn writes, truncation).
    corrupt_lines: int = 0

    def driver_pids(self) -> list[int]:
        return [pid for pid, info in sorted(self.processes.items())
                if info["role"] == "driver"]

    def worker_pids(self) -> list[int]:
        return [pid for pid, info in sorted(self.processes.items())
                if info["role"] == "worker"]


def read_trace_events(paths: Iterable[str | Path]
                      ) -> tuple[list[dict], int]:
    """Parse JSONL trace files; returns (events, corrupt line count).

    Every event is annotated with ``_file`` (input path) and ``_seq``
    (position within its file) for stable downstream ordering; corrupt
    lines -- possible when a machine died mid-write -- are counted, not
    fatal.
    """
    events: list[dict] = []
    corrupt = 0
    for path in paths:
        text = Path(path).read_text()
        for seq, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except ValueError:
                corrupt += 1
                continue
            if not isinstance(event, dict) or "ts" not in event:
                corrupt += 1
                continue
            event["_file"] = str(path)
            event["_seq"] = seq
            events.append(event)
    return events, corrupt


def _anchor_offsets(events: Sequence[dict]) -> dict[tuple[str, int], float]:
    """Per-(file, pid) ``wall - ts`` offsets from the stream anchors.

    A pid's monotonic clock is only meaningful within its machine; the
    ``stream-start`` anchor pairs it with an epoch timestamp, giving
    the additive offset that places the stream on the shared wall
    axis.  Streams without an anchor (pre-/2 files) borrow their
    file's earliest anchor, and a file with no anchors at all falls
    back to offset 0 -- events stay ordered within the file either way.
    """
    offsets: dict[tuple[str, int], float] = {}
    file_fallback: dict[str, float] = {}
    for event in events:
        args = event.get("args") or {}
        if event.get("name") == "stream-start" and "wall" in args:
            key = (event["_file"], event["pid"])
            if key not in offsets:
                offsets[key] = args["wall"] - event["ts"]
                file_fallback.setdefault(event["_file"],
                                         args["wall"] - event["ts"])
    for event in events:
        key = (event["_file"], event["pid"])
        if key not in offsets:
            offsets[key] = file_fallback.get(event["_file"], 0.0)
    return offsets


def _build_forest(events: Sequence[dict]) -> list[Span]:
    """Per-(pid, tid) span trees from the B/E events, driver first.

    Unbalanced tails (a worker killed mid-span) are force-closed at the
    stream's last timestamp instead of being dropped -- truthful about
    what ran, honest about not knowing when it would have ended.
    """
    streams: dict[tuple[int, int], list[dict]] = {}
    for event in events:
        streams.setdefault((event["pid"], event["tid"]), []).append(event)
    forests: list[tuple[tuple, list[Span]]] = []
    for key, stream in streams.items():
        roots: list[Span] = []
        stack: list[Span] = []
        worker = next((e["worker"] for e in stream if "worker" in e), None)
        for event in stream:
            if event["ph"] == "B":
                span = Span(name=event["name"], pid=event["pid"],
                            tid=event["tid"], start=event["wall"],
                            worker=worker)
                (stack[-1].children if stack else roots).append(span)
                stack.append(span)
            elif event["ph"] == "E":
                if stack and stack[-1].name == event["name"]:
                    stack.pop().end = event["wall"]
                elif stack:  # mismatched nesting: close what we can
                    stack.pop().end = event["wall"]
        last = stream[-1]["wall"] if stream else 0.0
        while stack:
            stack.pop().end = last
        sort_key = (0 if worker is None else 1, worker or 0, key)
        forests.append((sort_key, roots))
    forests.sort(key=lambda item: item[0])
    return [span for _, roots in forests for span in roots]


def stitch(paths: Sequence[str | Path]) -> StitchedTrace:
    """Merge trace files into one causally-ordered, anchored trace."""
    events, corrupt = read_trace_events(paths)
    offsets = _anchor_offsets(events)
    for event in events:
        event["wall"] = (offsets[(event["_file"], event["pid"])]
                         + event["ts"])
    events.sort(key=lambda e: (e["wall"], e["pid"], e["tid"], e["_seq"]))

    processes: dict[int, dict] = {}
    for event in events:
        info = processes.setdefault(event["pid"], {
            "role": "driver", "worker": None, "shard": None,
            "first_wall": event["wall"], "files": [],
        })
        if "worker" in event and info["worker"] is None:
            info["worker"] = event["worker"]
            info["role"] = "worker"
        if "shard" in event and info["shard"] is None:
            info["shard"] = event["shard"]
        if event["_file"] not in info["files"]:
            info["files"].append(event["_file"])

    run_ids = tuple(sorted({e["run"] for e in events if "run" in e}))
    return StitchedTrace(
        events=events,
        run_ids=run_ids,
        processes=processes,
        roots=_build_forest(events),
        corrupt_lines=corrupt,
    )
