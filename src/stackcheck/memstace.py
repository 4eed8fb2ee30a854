"""Byte-precise stack memory model and the memory state space (MemStaCe).

A memory state is an ordered list of stack frames (caller to callee).
Each frame is a `bytes` object with one letter per byte state (F, C, O
or M), indexed so that index i denotes the byte at machine address
rbp_anchor + 15 - i: indices 0-7 hold the saved return address, 8-15 the
saved base register, 16-23 the canary when one is present. Higher
indices are lower machine addresses, so a write that ascends in address
space walks *down* in index space and may continue into the caller frame
(frames are address-contiguous). A write is one `bytes.translate` per
run of adjacent bytes, through the table of its byte operator.

The state space itself is a labeled transition system built by DFS over
the binary CFG; library calls and loops contribute summarized effects
computed by the effects module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import groupby

from .frontend import (CANARY_FS_OFFSET, CMOV, IMM, MEM, REG, BCfg, FunctionMap,
                       Instruction, ProgramImage)

RBP_RANGE = range(8, 16)
CALL_DEPTH = 16             # user calls deeper than this are skipped with a note


class ByteState(Enum):
    FREE = "F"
    CRITICAL = "C"
    OCCUPIED = "O"
    MODIFIED = "M"

    def __repr__(self):
        return self.name.capitalize()


class ByteOp(Enum):
    RWRITE = "RWrite"
    NRWRITE = "nRWrite"


class IllegalByteTransition(Exception):
    pass


class WriteOutsideStack(Exception):
    pass


class PopUnderflow(Exception):
    pass


class OverlappingBuffer(Exception):
    pass


class StateBudgetExceeded(Exception):
    pass


# the byte-state automaton: everything not listed here is an error
_BYTE_AUTOMATON = {
    (ByteState.FREE, ByteOp.NRWRITE): ByteState.OCCUPIED,
    (ByteState.FREE, ByteOp.RWRITE): ByteState.CRITICAL,
    (ByteState.OCCUPIED, ByteOp.NRWRITE): ByteState.MODIFIED,
    (ByteState.CRITICAL, ByteOp.NRWRITE): ByteState.MODIFIED,
    (ByteState.MODIFIED, ByteOp.NRWRITE): ByteState.MODIFIED,
}


def byte_transition(state: ByteState, op: ByteOp) -> ByteState:
    try:
        return _BYTE_AUTOMATON[(state, op)]
    except KeyError:
        raise IllegalByteTransition(f"{state.name} + {op.value} has no transition")


# the automaton as one `bytes.translate` table per operator over the
# letters; 0 marks a letter with no transition
_TRANSLATE = {op: bytearray(256) for op in ByteOp}
for (_state, _op), _target in _BYTE_AUTOMATON.items():
    _TRANSLATE[_op][ord(_state.value)] = ord(_target.value)


# --- frames and states ---------------------------------------------------

@dataclass(frozen=True)
class StackFrame:
    label: str
    bytes: bytes                # one ByteState letter per byte
    buffers: frozenset[tuple[int, int]] = frozenset()  # (rbp offset, size)
    has_canary: bool = False
    has_rbp_slot: bool = False  # standard prologue (push rbp; mov rbp, rsp) seen

    def index_for_rbp_offset(self, disp: int) -> int:
        # rbp+0 is index 15 once the prologue has pushed the base register
        return 15 - disp

    def index_for_rsp_offset(self, disp: int) -> int:
        return (len(self.bytes) - 1) - disp

    def rle(self) -> str:
        return "".join(f"{len(list(run))}{chr(letter)}" for letter, run in groupby(self.bytes))


@dataclass(frozen=True)
class TransitionLabel:
    kind: str               # push|pop|write|fe|fa|call|loop|buffer-register
    address: int
    name: str | None = None  # callee for call labels
    text: str = ""

    def render(self) -> str:
        if self.kind == "call":
            return f"call {self.name}"
        return self.kind


@dataclass(frozen=True)
class MemoryState:
    frames: tuple[StackFrame, ...]
    incoming_label: TransitionLabel | None = None

    @property
    def top(self) -> StackFrame:
        return self.frames[-1]


def fresh_frame(label: str) -> StackFrame:
    """A frame as created by a call: 8 critical bytes of saved return address."""
    return StackFrame(label=label, bytes=b"C" * 8)


# --- memory operators ----------------------------------------------------

@dataclass(frozen=True)
class MemOp:
    kind: str                      # push|pop|write|fe|fa|shrink|frame-release|no-effect
    byte_op: ByteOp | None = None
    base: str | None = None        # rbp/rsp for writes and buffer registration
    disp: int = 0
    width: int = 0
    amount: int = 0                # fe/shrink byte count
    canary: bool = False


def Push(byte_op: ByteOp) -> MemOp:
    return MemOp("push", byte_op=byte_op)


def Pop() -> MemOp:
    return MemOp("pop")


def Write(byte_op: ByteOp, base: str, disp: int, width: int, canary: bool = False) -> MemOp:
    return MemOp("write", byte_op=byte_op, base=base, disp=disp, width=width, canary=canary)


def Fe(amount: int) -> MemOp:
    return MemOp("fe", amount=amount)


def Fa() -> MemOp:
    return MemOp("fa")


def Shrink(amount: int) -> MemOp:
    return MemOp("shrink", amount=amount)


def NoEffect() -> MemOp:
    return MemOp("no-effect")


@dataclass
class FrameContext:
    """Static facts classify_instruction needs about the surrounding code."""

    canary_store_sites: set[int] = field(default_factory=set)
    fresh_frame: bool = False   # no push has extended the new frame yet


def classify_instruction(ins: Instruction, ctx: FrameContext) -> MemOp:
    """Map one instruction to its memory operator.

    Stores to frame-relative addresses are writes (risky only for canary
    stores); push of the base register on a fresh frame is the prologue
    push and therefore risky; sub rsp grows the frame, add rsp shrinks it.
    Everything else leaves the stack untouched; calls never get here,
    because the state-space builder splices their effects itself.
    """
    m = ins.mnemonic
    if m == "endbr64":
        return Fa()
    if m == "push":
        op = ins.operands[0]
        risky = op.kind == REG and op.reg == "rbp" and ctx.fresh_frame
        return Push(ByteOp.RWRITE if risky else ByteOp.NRWRITE)
    if m == "pop":
        return Pop()
    if m == "sub":
        dst, src = ins.operands
        if dst.kind == REG and dst.reg == "rsp" and src.kind == IMM:
            return Fe(src.value)
        return NoEffect()
    if m == "add":
        dst, src = ins.operands
        if dst.kind == REG and dst.reg == "rsp" and src.kind == IMM:
            # epilogue inverse of Fe: releases local bytes
            return Shrink(src.value)
        if dst.is_frame_relative():
            return Write(ByteOp.NRWRITE, dst.base, dst.disp, _write_width(ins, dst))
        return NoEffect()
    if m in ("mov", "xchg") or m in CMOV:
        dst = ins.operands[0]
        if dst.is_frame_relative():
            risky = ins.address in ctx.canary_store_sites
            return Write(ByteOp.RWRITE if risky else ByteOp.NRWRITE,
                         dst.base, dst.disp, _write_width(ins, dst), canary=risky)
    return NoEffect()


def _write_width(ins: Instruction, dst) -> int:
    if dst.width:
        return dst.width
    if len(ins.operands) > 1 and ins.operands[1].kind == REG:
        return ins.operands[1].width or 8
    return 8


def scan_canary_stores(body: list[Instruction]) -> set[int]:
    """Addresses of stores whose source register was loaded from fs:0x28."""
    sites: set[int] = set()
    tainted: set[str] = set()
    for ins in body:
        if ins.mnemonic == "mov" and len(ins.operands) == 2:
            dst, src = ins.operands
            if src.kind == MEM and src.base == "fs" and src.disp == CANARY_FS_OFFSET:
                if dst.kind == REG:
                    tainted.add(dst.reg)
                continue
            if dst.is_frame_relative() and src.kind == REG and src.reg in tainted:
                sites.add(ins.address)
                continue
            if dst.kind == REG:
                tainted.discard(dst.reg)
    return sites


# --- applying operators --------------------------------------------------

def apply_memory_operator(state: MemoryState, op: MemOp, *,
                          clamp: bool = False) -> tuple[MemoryState, list[str]]:
    """Apply a direct memory operator, returning the new state plus notes.

    Writes walk down in index space and continue into caller frames;
    leaving the outermost frame raises WriteOutsideStack unless clamp is
    set, in which case the in-stack prefix is applied and a note recorded.
    """
    notes: list[str] = []
    frames = list(state.frames)
    if op.kind == "fa":
        frames.append(fresh_frame("?"))
    elif op.kind == "push":
        top, risky = frames[-1], op.byte_op is ByteOp.RWRITE
        frames[-1] = replace(top, bytes=top.bytes + (b"C" if risky else b"O") * 8,
                             has_rbp_slot=top.has_rbp_slot or (risky and len(top.bytes) == 8))
    elif op.kind == "pop":
        top = frames[-1]
        if len(top.bytes) - 8 < 8:
            raise PopUnderflow(f"pop would consume the saved return address of {top.label}")
        frames[-1] = replace(top, bytes=top.bytes[:-8])
    elif op.kind == "fe":
        top = frames[-1]
        frames[-1] = replace(top, bytes=top.bytes + b"F" * op.amount)
    elif op.kind == "shrink":
        top = frames[-1]
        if len(top.bytes) - op.amount < 16:
            raise PopUnderflow(f"frame shrink below control data in {top.label}")
        frames[-1] = replace(top, bytes=top.bytes[:len(top.bytes) - op.amount])
    elif op.kind == "frame-release":
        frames.pop()
    elif op.kind == "write":
        top = frames[-1]
        if op.base == "rbp":
            start = top.index_for_rbp_offset(op.disp)
        else:
            start = top.index_for_rsp_offset(op.disp)
        if start >= len(top.bytes):
            msg = f"write below the allocated frame of {top.label} (index {start})"
            if not clamp:
                raise WriteOutsideStack(msg)
            notes.append(msg)
            start = len(top.bytes) - 1
        touched = [(len(frames) - 1, start - k) for k in range(op.width)]
        frames, extra = _apply_touches(frames, touched, op.byte_op, clamp=clamp)
        notes.extend(extra)
    else:
        raise ValueError(f"not a direct operator: {op.kind}")
    if op.kind == "write" and op.canary:
        frames[-1] = replace(frames[-1], has_canary=True)
    return MemoryState(frames=tuple(frames), incoming_label=state.incoming_label), notes


def _apply_touches(frames: list[StackFrame], touched: list[tuple[int, int]],
                   byte_op: ByteOp, *, clamp: bool) -> tuple[list[StackFrame], list[str]]:
    """Apply byte transitions at (frame position, index) pairs.

    Indices below 0 continue into the caller frame at its highest index;
    running past the outermost frame raises or clamps. Each run of adjacent
    touches (descending index in one frame) is one slice translate; runs
    apply in order, so the result is the byte-by-byte one.
    """
    notes: list[str] = []
    rows = [f.bytes for f in frames]
    runs: list[list[int]] = []      # [pos, lo, hi) in touch order
    for pos, idx in touched:
        while idx < 0:
            if pos == 0:
                if not clamp:
                    raise WriteOutsideStack("write ascends past the outermost modeled frame")
                notes.append("write continued past the outermost modeled frame; clamped")
                idx = None
                break
            pos -= 1
            idx = len(rows[pos]) + idx  # idx is negative
        if idx is None:
            continue
        if idx >= len(rows[pos]):
            if not clamp:
                raise WriteOutsideStack("write below the allocated frame")
            notes.append("write below the allocated frame; clamped")
            continue
        if runs and runs[-1][0] == pos and runs[-1][1] == idx + 1:
            runs[-1][1] = idx
        else:
            runs.append([pos, idx, idx + 1])
    table = _TRANSLATE[byte_op]
    for pos, lo, hi in runs:
        row = rows[pos]
        seg = row[lo:hi].translate(table)
        if 0 in seg:    # the first touched (highest) index without a transition
            byte_transition(ByteState(chr(row[lo + seg.rindex(0)])), byte_op)
        rows[pos] = row[:lo] + seg + row[hi:]
    out = [f if f.bytes is bs else replace(f, bytes=bs) for f, bs in zip(frames, rows)]
    return out, notes


def register_buffer(frame: StackFrame, offset: int, size: int) -> StackFrame:
    """Add a buffer (rbp offset, size) to the frame's buffer set."""
    entry = (offset, size)
    if entry in frame.buffers:
        return frame
    lo, hi = offset, offset + size
    for (o, s) in frame.buffers:
        if lo < o + s and o < hi:
            raise OverlappingBuffer(f"buffer {entry} overlaps {(o, s)}")
    return replace(frame, buffers=frame.buffers | {entry})


def buffer_index_span(frame: StackFrame, offset: int, size: int) -> tuple[int, int]:
    """(start, end) byte indices of a buffer: start is its lowest-address
    byte (highest index), end its highest-address byte (lowest index)."""
    start = frame.index_for_rbp_offset(offset)
    return start, start - (size - 1)


def scan_object_boundaries(body) -> set[int]:
    """Start offsets of stack objects a function addresses directly: lea'd
    frame addresses and store destinations below the frame base."""
    offs: set[int] = set()
    for ins in body:
        for pos, op in enumerate(ins.operands):
            if op.kind == MEM and op.base == "rbp" and op.disp < 0:
                if ins.mnemonic == "lea" or pos == 0:
                    offs.add(op.disp)
    return offs


def infer_buffer_size(offset: int, boundaries: set[int], has_canary: bool) -> int:
    """Gap between the buffer start and the next higher known object.

    Boundaries are other object start offsets; the canary (or, without
    one, the saved base register) caps the local area from above.
    """
    cap = -8 if has_canary else 0
    higher = [b for b in boundaries if offset < b <= cap] + [cap]
    return min(higher) - offset


# --- the state space ------------------------------------------------------

@dataclass
class MemStaCe:
    states: dict[int, MemoryState]
    transitions: list[tuple[int, TransitionLabel, int]]
    initial: int
    root: str
    truncated: bool = False
    notes: list[str] = field(default_factory=list)

    def state_count(self) -> int:
        return len(self.states)


@dataclass
class Config:
    """Analysis budgets and switches shared across the pipeline."""

    max_states: int = 4096
    max_loop_iters: int = 64
    max_input_len: int = 4096
    step_budget: int = 200_000
    atomic_writes: bool = False
    timeout: float | None = None
    seed: int = 0
    properties_path: str | None = None
    templates_path: str | None = None
    libc_db_path: str | None = None
    buffers_path: str | None = None
    enable_scanf_patch: bool = False


class _SpaceBuilder:
    def __init__(self, bcfg: BCfg, funcs: FunctionMap, effects, cfg: Config,
                 image: ProgramImage, buffer_overrides: dict | None):
        self.funcs = funcs
        self.effects = effects
        self.cfg = cfg
        self.image = image
        self.buffer_overrides = buffer_overrides or {}
        self.states: dict[int, MemoryState] = {}
        self.ids: dict = {}
        self.transitions: list[tuple[int, TransitionLabel, int]] = []
        self.tx_seen: set = set()
        self.notes: list[str] = []
        self.truncated = False
        self.visited: set = set()
        self._fn_boundaries: dict[str, set[int]] = {}
        self._fn_canary_sites: dict[str, set[int]] = {}

    def intern(self, state: MemoryState) -> int:
        sid = self.ids.get(state)     # frames plus incoming label
        if sid is not None:
            return sid
        if len(self.states) >= self.cfg.max_states:
            raise StateBudgetExceeded(f"state budget ({self.cfg.max_states}) exhausted")
        sid = len(self.states)
        self.ids[state] = sid
        self.states[sid] = state
        return sid

    def emit(self, src: int, label: TransitionLabel, state: MemoryState) -> int:
        state = MemoryState(frames=state.frames, incoming_label=label)
        dst = self.intern(state)
        edge = (src, label, dst)
        if edge not in self.tx_seen:
            self.tx_seen.add(edge)
            self.transitions.append(edge)
        return dst

    # static per-function facts

    def object_boundaries(self, fn: str) -> set[int]:
        if fn not in self._fn_boundaries:
            self._fn_boundaries[fn] = scan_object_boundaries(self.image.function_body(fn))
        return self._fn_boundaries[fn]

    def canary_sites(self, fn: str) -> set[int]:
        if fn not in self._fn_canary_sites:
            self._fn_canary_sites[fn] = scan_canary_stores(self.image.function_body(fn))
        return self._fn_canary_sites[fn]

    def buffer_size_at(self, fn: str, offset: int, has_canary: bool) -> int:
        pinned = self.buffer_overrides.get(fn, {}).get(offset)
        if pinned is not None:
            return pinned
        return infer_buffer_size(offset, self.object_boundaries(fn), has_canary)

    # the DFS itself

    def run(self, entry: int) -> MemStaCe:
        root_fn = self.funcs.function_of(entry) or f"sub_{entry:x}"
        init = MemoryState(frames=(fresh_frame(root_fn),))
        try:
            init_id = self.intern(init)
            self._walk(entry, init_id, call_stack=())
        except StateBudgetExceeded as exc:
            self.truncated = True
            self.notes.append(str(exc))
        return MemStaCe(states=self.states, transitions=self.transitions,
                        initial=0 if self.states else -1, root=root_fn,
                        truncated=self.truncated, notes=self.notes)

    def _walk(self, pc: int, sid: int, call_stack: tuple) -> None:
        work = [(pc, sid, call_stack)]
        while work:
            pc, sid, call_stack = work.pop()
            if pc is None or pc not in self.image.instructions:
                continue
            vkey = (pc, sid, call_stack)
            if vkey in self.visited:
                continue
            self.visited.add(vkey)

            fn = self.funcs.function_of(pc) or "?"
            loop = self.effects.loop_at(pc) if self.effects else None
            if loop is not None and not self._came_from_loop(sid, loop):
                sid2 = self._apply_loop(sid, loop, fn)
                work.append((loop.exit, sid2, call_stack))
                continue

            ins = self.image.instructions[pc]
            nxt = self._next_in_function(pc, fn)

            if ins.mnemonic == "ret":
                if call_stack:
                    state = self.states[sid]
                    label = TransitionLabel("pop", pc, text=ins.text)
                    released, _ = apply_memory_operator(
                        state, MemOp("frame-release"), clamp=True)
                    dst = self.emit(sid, label, released)
                    work.append((call_stack[-1], dst, call_stack[:-1]))
                continue

            # a target outside the image is dropped when popped
            if ins.mnemonic == "jmp":
                work.append((ins.target(), sid, call_stack))
                continue
            if ins.is_conditional:
                work.append((ins.target(), sid, call_stack))
                work.append((nxt, sid, call_stack))
                continue

            if ins.mnemonic == "lea":
                sid = self._maybe_register_buffer(sid, ins, fn)
                work.append((nxt, sid, call_stack))
                continue

            if ins.mnemonic == "call":
                work.append(self._do_call(ins, sid, call_stack, nxt))
                continue

            sid = self._apply_direct(sid, ins, fn)
            work.append((nxt, sid, call_stack))

    def _next_in_function(self, pc: int, fn: str) -> int | None:
        nxt = self.image.next_address(pc)
        return nxt if nxt is not None and self.funcs.function_of(nxt) == fn else None

    def _came_from_loop(self, sid: int, loop) -> bool:
        lbl = self.states[sid].incoming_label
        return lbl is not None and lbl.kind == "loop" and lbl.address == loop.entry

    def _apply_direct(self, sid: int, ins: Instruction, fn: str) -> int:
        state = self.states[sid]
        ctx = FrameContext(canary_store_sites=self.canary_sites(fn),
                           fresh_frame=len(state.top.bytes) == 8)
        op = classify_instruction(ins, ctx)
        if op.kind == "no-effect":
            return sid
        if op.kind == "fa":
            if len(state.top.bytes) == 8 and state.top.label == fn:
                # frame already allocated by the incoming call; record the marker
                label = TransitionLabel("fa", ins.address, text=ins.text)
                return self.emit(sid, label, state)
            return sid
        kind = {"push": "push", "pop": "pop", "write": "write",
                "fe": "fe", "shrink": "fe"}[op.kind]
        label = TransitionLabel(kind, ins.address, text=ins.text)
        if op.kind == "write" and self.cfg.atomic_writes and op.width > 1:
            cur = sid
            for k in range(op.width):
                one = replace(op, width=1, disp=op.disp + k)
                sub = TransitionLabel("write", ins.address, text=f"{ins.text} [byte {k}]")
                cur = self._emit_applied(cur, sub, one)
            return cur
        return self._emit_applied(sid, label, op)

    def _emit_applied(self, sid: int, label: TransitionLabel, op: MemOp) -> int:
        state = self.states[sid]
        try:
            new, notes = apply_memory_operator(state, op, clamp=True)
        except (PopUnderflow, IllegalByteTransition) as exc:
            self.notes.append(f"{label.text} at {label.address:#x}: {exc}")
            return sid
        self.notes.extend(notes)
        return self.emit(sid, label, new)

    def _maybe_register_buffer(self, sid: int, ins: Instruction, fn: str) -> int:
        src = ins.operands[1]
        if not (src.kind == MEM and src.base == "rbp" and src.disp < 0):
            return sid
        state = self.states[sid]
        top = state.top
        if not top.has_rbp_slot:
            return sid
        size = self.buffer_size_at(fn, src.disp, top.has_canary)
        if size <= 0:
            return sid
        try:
            new_top = register_buffer(top, src.disp, size)
        except OverlappingBuffer as exc:
            self.notes.append(f"{ins.text}: {exc}")
            return sid
        if new_top is top:
            return sid
        label = TransitionLabel("buffer-register", ins.address, text=ins.text)
        new = MemoryState(frames=state.frames[:-1] + (new_top,),
                          incoming_label=state.incoming_label)
        return self.emit(sid, label, new)

    def _do_call(self, ins: Instruction, sid: int, call_stack: tuple, nxt):
        callee_addr = ins.target()
        sym = ins.target_symbol()
        state = self.states[sid]
        if callee_addr in self.image.instructions:
            # user call: the call itself creates the callee frame (the
            # pushed return address is its first 8 critical bytes)
            callee = self.funcs.reverse.get(callee_addr, sym or f"sub_{callee_addr:x}")
            if len(call_stack) >= CALL_DEPTH:
                self.notes.append(f"call depth limit at {ins.address:#x}; call skipped")
                return (nxt, sid, call_stack)
            label = TransitionLabel("call", ins.address, name=callee, text=ins.text)
            new = MemoryState(frames=state.frames + (fresh_frame(callee),))
            dst = self.emit(sid, label, new)
            return (callee_addr, dst, call_stack + (nxt,))
        # library / external call: splice the emulated effect
        name = (sym or f"sub_{callee_addr:x}").removesuffix("@plt")
        label = TransitionLabel("call", ins.address, name=name, text=ins.text)
        effect = self.effects.call_effect(ins.address) if self.effects else None
        if effect is None or effect.opaque:
            if effect is not None and effect.truncating:
                self.truncated = True
            if effect is not None:
                self.notes.extend(effect.notes)
            dst = self.emit(sid, label, state)
            return (nxt, dst, call_stack)
        new, notes = apply_effect(state, effect)
        self.notes.extend(notes)
        dst = self.emit(sid, label, new)
        return (nxt, dst, call_stack)

    def _apply_loop(self, sid: int, loop, fn: str) -> int:
        state = self.states[sid]
        effect = self.effects.loop_effect(loop)
        label = TransitionLabel("loop", loop.entry, text=f"loop {loop.entry:#x}..{loop.exit:#x}")
        if effect is None or effect.opaque:
            if effect is not None:
                self.notes.extend(effect.notes)
            return self.emit(sid, label, state)
        new, notes = apply_effect(state, effect)
        self.notes.extend(notes)
        return self.emit(sid, label, new)


def apply_effect(state: MemoryState, effect) -> tuple[MemoryState, list[str]]:
    """Splice an emulated call/loop effect (depth, index, op) into a state."""
    frames = list(state.frames)
    touched = []
    skipped = 0
    for depth, idx, bop in effect.touched:
        pos = len(frames) - 1 - depth
        if pos < 0:
            skipped += 1
            continue
        touched.append((pos, idx))
    frames, notes = _apply_touches(frames, touched, ByteOp.NRWRITE, clamp=True)
    if skipped:
        notes = notes + [f"effect of {effect.name}: {skipped} byte(s) above the "
                         "modeled frames skipped"]
    if effect.clamped:
        notes = notes + [f"effect of {effect.name} clamped at the outermost frame"]
    return MemoryState(frames=tuple(frames), incoming_label=state.incoming_label), notes


def build_memstace(bcfg: BCfg, funcs: FunctionMap, effects, cfg: Config,
                   image: ProgramImage, entry: int | None = None,
                   buffer_overrides: dict | None = None) -> MemStaCe:
    """DFS the CFG from entry, producing the labeled transition system.

    Library calls and loop bodies are summarized through the effects
    oracle; user calls descend, giving multi-frame states. Identical
    states (frames plus incoming label) are shared.
    """
    builder = _SpaceBuilder(bcfg, funcs, effects, cfg, image, buffer_overrides)
    return builder.run(bcfg.entry if entry is None else entry)


# --- export ---------------------------------------------------------------

def memstace_to_json(space: MemStaCe) -> dict:
    nodes = []
    for sid in sorted(space.states):
        st = space.states[sid]
        nodes.append({
            "id": sid,
            "frames": [{
                "fn": f.label,
                "rle": f.rle(),
                "buffers": sorted(list(b) for b in f.buffers),
                "canary": f.has_canary,
            } for f in st.frames],
        })
    edges = [{
        "src": src, "dst": dst, "kind": lbl.kind,
        "address": lbl.address, "name": lbl.name, "text": lbl.text,
    } for (src, lbl, dst) in space.transitions]
    return {"root": space.root, "initial": space.initial,
            "truncated": space.truncated, "nodes": nodes, "edges": edges}


def memstace_to_dot(space: MemStaCe) -> str:
    lines = ["digraph memstace {", '  rankdir=LR;']
    for sid in sorted(space.states):
        st = space.states[sid]
        desc = "|".join(f"{f.label}:{f.rle()}" for f in st.frames)
        shape = "doublecircle" if sid == space.initial else "box"
        lines.append(f'  n{sid} [label="{sid}\\n{desc}" shape={shape}];')
    for (src, lbl, dst) in space.transitions:
        lines.append(f'  n{src} -> n{dst} [label="{lbl.render()}@{lbl.address:#x}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_memstace(space: MemStaCe, path: str) -> None:
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(memstace_to_json(space), fh, indent=2, sort_keys=True)
    with open(path + ".dot", "w", encoding="utf-8") as fh:
        fh.write(memstace_to_dot(space))
