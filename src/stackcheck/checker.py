"""Model checking: run every violation monitor over the state space.

Each monitor has two states, run and reject, so its product with the
memory state space is the state space itself. One breadth-first search
per space therefore serves all properties: at each dequeued state every
monitor still running takes one step, and the first state where a
monitor rejects ends the (hence shortest) path to a state falsifying its
body. BFS order does not depend on the property, so each verdict, trace
and vacuity count is the one a search for that property alone gives.
The steps of one state are one call of the property set's kernel
(`ltl.compile_kernel`), compiled at the set's first check and cached by
its bodies; `Monitor.step` is the one-monitor reference it agrees with.
A state's incoming label says what its call calls, so a check needs
nothing but the space and the monitors.
Past a deadline the search stops and every monitor still running is
inconclusive. A violation keeps its path, which becomes a counterexample
trace of <address: instruction -> memory operation> steps with per-byte
state deltas when the trace is first read. The paths of one search share
their prefixes, so each step is built once per transition and shared.
"""

from __future__ import annotations

import time
from collections import deque
from functools import cached_property
from itertools import compress
from operator import ne
from typing import NamedTuple

from .ltl import EvalContext, Monitor, compile_kernel, load_bundled_properties
from .memstace import DEADLINE_EVERY, MemStaCe, MemoryState, TransitionLabel

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


class TraceStep(NamedTuple):
    address: int
    text: str
    operation: str
    deltas: list[tuple[str, int, str, str]]     # (frame label, byte index, before, after)

    def render(self) -> str:
        groups: dict[str, list[str]] = {}
        for frame, idx, before, after in self.deltas:
            groups.setdefault(frame, []).append(f"{idx}:{before}->{after}")
        parts = "".join(f"[{frame}]({','.join(items)})" for frame, items in groups.items())
        return f"0x{self.address:x}: {self.text} -> {self.operation}{parts}"


class Trace(NamedTuple):
    steps: list[TraceStep]
    violating_state: int

    def render(self) -> str:
        return "\n".join(s.render() for s in self.steps)

    def to_json(self) -> list[dict]:
        return [{
            "address": s.address, "text": s.text, "operation": s.operation,
            "deltas": [{"frame": f, "index": i, "before": b, "after": a}
                       for f, i, b, a in s.deltas],
        } for s in self.steps]


class Verdict:
    def __init__(self, property_name: str, status: str,
                 path: list[tuple[int, TransitionLabel, int]] | None = None,
                 space: MemStaCe | None = None, vacuity_notes: list[str] | None = None,
                 vacuous: bool = False, timed_out: bool = False,
                 trace_steps: dict | None = None):
        self.property_name = property_name
        self.status = status
        # a violation's path from the initial state: (source, label, target)
        # per transition; `trace` is built from it on first read
        self.path = path
        self.space = space
        self.vacuity_notes = [] if vacuity_notes is None else vacuity_notes
        self.vacuous = vacuous
        self.timed_out = timed_out      # the deadline passed before the search ended
        # (source, target) -> TraceStep, shared by the verdicts of one search
        self.trace_steps = {} if trace_steps is None else trace_steps

    @cached_property
    def trace(self) -> Trace | None:
        return None if self.path is None else build_counterexample(self.path, self.space,
                                                                    self.trace_steps)


def check(space: MemStaCe, monitors: list[Monitor] | Monitor,
          deadline: float | None = None) -> list[Verdict] | Verdict:
    """One BFS for all monitors; one verdict per monitor (or the verdict of
    a single monitor passed alone). Past `deadline` (a `time.perf_counter()`
    value, read once per DEADLINE_EVERY dequeues) every monitor still
    running is inconclusive."""
    if isinstance(monitors, Monitor):
        return check(space, [monitors], deadline)[0]
    ctxs = [EvalContext() for _ in monitors]
    if space.initial < 0:
        return [Verdict(m.name, HOLDS, vacuity_notes=["empty state space"]) for m in monitors]

    succ: dict[int, list[tuple[TransitionLabel, int]]] = {}
    for src, lbl, dst in space.transitions:
        succ.setdefault(src, []).append((lbl, dst))

    kernel = compile_kernel(tuple(m.body for m in monitors))
    states = space.states
    parent: dict[int, tuple[int, TransitionLabel] | None] = {space.initial: None}
    queue = deque([space.initial])
    violating: dict[int, int] = {}          # monitor position -> first rejecting state
    live = [True] * len(monitors)           # the monitors still running
    running = len(monitors)
    dequeued, expired = 0, False
    while queue and running:
        dequeued += 1
        if deadline is not None and dequeued % DEADLINE_EVERY == 0 \
                and time.perf_counter() > deadline:
            expired = True
            break
        sid = queue.popleft()
        for k in kernel(states[sid], ctxs, live):
            violating[k] = sid
            live[k] = False
            running -= 1
        for lbl, dst in succ.get(sid, ()):
            if dst not in parent:
                parent[dst] = (sid, lbl)
                queue.append(dst)
    unfinished = {k for k, on in enumerate(live) if on} if expired else set()
    trace_steps: dict = {}
    return [_verdict(space, m, ctx, violating.get(k), parent, k in unfinished, trace_steps)
            for k, (m, ctx) in enumerate(zip(monitors, ctxs))]


def _verdict(space: MemStaCe, monitor: Monitor, ctx: EvalContext,
             violating: int | None, parent: dict, timed_out: bool,
             trace_steps: dict) -> Verdict:
    notes = list(dict.fromkeys(ctx.notes))
    if timed_out:
        return Verdict(monitor.name, INCONCLUSIVE, vacuity_notes=notes, timed_out=True)
    if violating is None:
        status = INCONCLUSIVE if space.truncated else HOLDS
        return Verdict(monitor.name, status, vacuity_notes=notes,
                       vacuous=ctx.vacuous())

    path: list[tuple[int, TransitionLabel, int]] = []
    cur = violating
    while parent[cur] is not None:
        prev, lbl = parent[cur]
        path.append((prev, lbl, cur))
        cur = prev
    path.reverse()
    return Verdict(monitor.name, VIOLATED, path=path, space=space, vacuity_notes=notes,
                   trace_steps=trace_steps)


def build_counterexample(path: list[tuple[int, TransitionLabel, int]],
                         space: MemStaCe, memo: dict) -> Trace:
    """One step per transition, with before/after byte-state deltas. `memo`
    maps (source, target) to the step built for that transition; the paths
    of one search enter each state by one transition, so their traces
    share it."""
    steps = []
    for src, lbl, dst in path:
        step = memo.get((src, dst))
        if step is None:
            step = memo[src, dst] = TraceStep(
                address=lbl.address,
                text=lbl.text or lbl.render(),
                operation=_operation_name(lbl),
                deltas=_frame_deltas(space.states[src], space.states[dst]),
            )
        steps.append(step)
    return Trace(steps=steps, violating_state=path[-1][2] if path else space.initial)


def _operation_name(lbl: TransitionLabel) -> str:
    if lbl.kind == "call":
        return f"Call({lbl.name})"
    return {"push": "Push", "pop": "Pop", "write": "Write", "fe": "Fe",
            "fa": "Fa", "loop": "Loop", "buffer-register": "BufferReg"}.get(lbl.kind, lbl.kind)


def _frame_deltas(before: MemoryState, after: MemoryState):
    deltas = []
    for fb, fa in zip(before.frames, after.frames):
        if fb.bytes == fa.bytes:
            continue
        b, a = fb.bytes, fa.bytes
        deltas.extend((fa.label, idx, chr(b[idx]), chr(a[idx]))
                      for idx in compress(range(len(a)), map(ne, b, a)))
    return deltas


# --- CWE mapping ---------------------------------------------------------------

def load_cwe_map() -> dict[str, list[str]]:
    """{name: CWE tags} of the bundled properties that carry tags: the
    `cwe:` entries of the bundled property file are the only source."""
    return {p.name: list(p.cwes) for p in load_bundled_properties() if p.cwes}


def map_cwe(property_name: str, db: dict[str, list[str]] | None = None,
            warnings: list[str] | None = None) -> list[str]:
    table = db if db is not None else load_cwe_map()
    if property_name not in table:
        if warnings is not None:
            warnings.append(f"no CWE mapping for property {property_name!r}")
        return []
    return list(table[property_name])
