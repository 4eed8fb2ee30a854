"""Model checking: run each violation monitor over the state space.

A breadth-first search over the product of the memory state space and
the two-state monitor finds the first (hence shortest) path to a state
falsifying the property body. That path becomes a counterexample trace
of <address: instruction -> memory operation> steps with per-byte state
deltas.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from . import load_data
from .ltl import EvalContext, Monitor
from .memstace import MemStaCe, MemoryState, TransitionLabel

HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"


@dataclass
class TraceStep:
    address: int
    text: str
    operation: str
    deltas: list[tuple[str, int, str, str]] = field(default_factory=list)
    # (frame label, byte index, before, after)

    def render(self) -> str:
        groups: dict[str, list[str]] = {}
        for frame, idx, before, after in self.deltas:
            groups.setdefault(frame, []).append(f"{idx}:{before}->{after}")
        parts = "".join(f"[{frame}]({','.join(items)})" for frame, items in groups.items())
        return f"0x{self.address:x}: {self.text} -> {self.operation}{parts}"


@dataclass
class Trace:
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


@dataclass
class Verdict:
    property_name: str
    status: str
    trace: Trace | None = None
    vacuity_notes: list[str] = field(default_factory=list)
    vacuous: bool = False


def check(space: MemStaCe, monitor: Monitor, libc_names: set[str] | None = None) -> Verdict:
    """BFS the product; first reject gives a shortest counterexample."""
    ctx = EvalContext(libc_names=libc_names or set())
    if space.initial < 0:
        return Verdict(monitor.name, HOLDS, vacuity_notes=["empty state space"])

    succ: dict[int, list[tuple[TransitionLabel, int]]] = {}
    for src, lbl, dst in space.transitions:
        succ.setdefault(src, []).append((lbl, dst))

    parent: dict[int, tuple[int, TransitionLabel] | None] = {space.initial: None}
    queue = deque([space.initial])
    violating = None
    while queue:
        sid = queue.popleft()
        if monitor.step("run", space.states[sid], ctx) == "reject":
            violating = sid
            break
        for lbl, dst in succ.get(sid, []):
            if dst not in parent:
                parent[dst] = (sid, lbl)
                queue.append(dst)

    notes = list(dict.fromkeys(ctx.notes))
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
    trace = build_counterexample(path, space)
    return Verdict(monitor.name, VIOLATED, trace=trace, vacuity_notes=notes)


def build_counterexample(path: list[tuple[int, TransitionLabel, int]],
                         space: MemStaCe) -> Trace:
    """One step per transition, with before/after byte-state deltas."""
    steps = []
    for src, lbl, dst in path:
        steps.append(TraceStep(
            address=lbl.address,
            text=lbl.text or lbl.render(),
            operation=_operation_name(lbl),
            deltas=_frame_deltas(space.states[src], space.states[dst]),
        ))
    return Trace(steps=steps, violating_state=path[-1][2] if path else space.initial)


def _operation_name(lbl: TransitionLabel) -> str:
    if lbl.kind == "call":
        return f"Call({lbl.name})"
    return {"push": "Push", "pop": "Pop", "write": "Write", "fe": "Fe",
            "fa": "Fa", "loop": "Loop", "buffer-register": "BufferReg"}.get(lbl.kind, lbl.kind)


def _frame_deltas(before: MemoryState, after: MemoryState):
    deltas = []
    for pos in range(min(len(before.frames), len(after.frames))):
        fb, fa = before.frames[pos], after.frames[pos]
        for idx in range(min(len(fb.bytes), len(fa.bytes))):
            if fb.bytes[idx] is not fa.bytes[idx]:
                deltas.append((fa.label, idx, fb.bytes[idx].value, fa.bytes[idx].value))
    return deltas


# --- CWE mapping ---------------------------------------------------------------

def load_cwe_map(path: str | None = None) -> dict[str, list[str]]:
    return load_data("cwe_map.json", json.loads, path)


def map_cwe(property_name: str, db: dict[str, list[str]] | None = None,
            warnings: list[str] | None = None) -> list[str]:
    table = db if db is not None else load_cwe_map()
    if property_name not in table:
        if warnings is not None:
            warnings.append(f"no CWE mapping for property {property_name!r}")
        return []
    return list(table[property_name])
