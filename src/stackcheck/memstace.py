"""Byte-precise stack memory model and the memory state space (MemStaCe).

A memory state is a tuple of stack frames (caller to callee) plus the
label of the transition that reached it. Frames, states and labels are
`NamedTuple`s, so they are immutable and hash and compare as plain
tuples, in C. A frame's `bytes` holds one letter per byte state (F, C, O
or M), indexed so that index i denotes the byte at machine address
rbp_anchor + 15 - i: indices 0-7 hold the saved return address, 8-15 the
saved base register, 16-23 the canary when one is present. Higher
indices are lower machine addresses, so a write that ascends in address
space walks *down* in index space and may continue into the caller frame
(frames are address-contiguous). A write is one `bytes.translate` per
frame it crosses, over a run computed in closed form, through the table
of its byte operator. There is one write path: a write that leaves the
modeled stack is clamped with a note, never raised; its common case, one
run inside the top frame, replaces that frame alone.

The state space itself is a labeled transition system built by DFS over
the binary CFG, which pushes only the targets of conditional jumps and
goes on with every single successor in place; library calls and loops
contribute summarized effects computed by the effects module, each a
list of (frame depth, byte index) pairs written with nRWrite. One
builder step splices either kind: it writes the touches, records the
notes, and truncates the root's space when the effect is incomplete.
Operators and effects map a frames tuple to a new one, and the builder
wraps it with its label into the one `MemoryState` it interns, so each
state is constructed once. Each instruction is decoded once per
analysis, at its first visit, into a record that every root's build
shares: owning function, successor, loop, dispatch kind, jump or call
target, memory operator and prebuilt transition label (a call's says
what it calls); the operators without operands are shared constants
(MemOp is immutable). Whether a base-register push is the prologue push
depends on the frame it meets, so apply_memory_operator decides that,
not the decoder.

A state keeps only the bytes a property can read. `ltl.frame_horizon`
gives K, how many leading indices of a frame the monitors read outside
frames kept whole (16 for the bundled set). The frames of a function that
can store the canary or register a buffer stay whole, decided once per
function per image (`ProgramImage.frame_facts`); in any other frame a
push or frame extension adds M at index K and past. nRWrite maps M to
itself, so a cut tail stays cut, and no frame's length changes. A canary
store or buffer registration that meets a cut frame anyway (code reached
by a jump from another function) has the root built again whole. So the
cut is a bisimulation for every atom, which keeps each verdict and each
counterexample's length, and merges states that differ only in bytes no
property reads: if/else arms that write different locals no longer
double the states. The frames of one state also hold at most STACK_SIZE
bytes, as the interpreter's stack does; growth past that is clamped with
a note that truncates the root.
"""

from __future__ import annotations

import json
import time
from enum import Enum
from itertools import groupby
from typing import NamedTuple

from .frontend import (CANARY_FS_OFFSET, CMOV, IMM, JCC, LIBRARY, MEM, REG, Instruction,
                       ProgramImage)

RBP_RANGE = range(8, 16)
CALL_DEPTH = 16             # user calls deeper than this are skipped with a note
# the builder reads the clock once per this many visits, the checker once
# per this many dequeues
DEADLINE_EVERY = 256
# the bytes of stack the interpreter models; the frames of one state hold no
# more between them, and growth past it is clamped with this note
STACK_SIZE = 0x40000
STACK_CLAMPED = f"stack growth past the modeled {STACK_SIZE:#x} bytes; clamped"


# members of both enums are singletons, so identity hashing agrees with
# equality; it runs in C, where Enum.__hash__ runs Python code on every
# table lookup and on every hash of a property AST node holding a ByteState

class ByteState(Enum):
    FREE = "F"
    CRITICAL = "C"
    OCCUPIED = "O"
    MODIFIED = "M"

    __hash__ = object.__hash__

    def __repr__(self):
        return self.name.capitalize()


class ByteOp(Enum):
    RWRITE = "RWrite"
    NRWRITE = "nRWrite"

    __hash__ = object.__hash__


class IllegalByteTransition(Exception):
    pass


class PopUnderflow(Exception):
    pass


class OverlappingBuffer(Exception):
    pass


class StateBudgetExceeded(Exception):
    """The state budget or the build deadline ran out."""


class _ProjectionLost(Exception):
    """A canary store or a buffer registration met a frame the projection
    cuts; the root is built again with every byte kept."""


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

class StackFrame(NamedTuple):
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


# TransitionLabel.calls of a library call whose function the libc database models
LIBC = "libc"


class TransitionLabel(NamedTuple):
    kind: str               # push|pop|write|fe|fa|call|loop|buffer-register
    address: int
    name: str | None = None  # callee for call labels
    text: str = ""
    calls: str | None = None  # call labels: its frontend.Callee kind, or LIBC

    def render(self) -> str:
        if self.kind == "call":
            return f"call {self.name}"
        return self.kind


class MemoryState(NamedTuple):
    frames: tuple[StackFrame, ...]
    incoming_label: TransitionLabel | None = None

    @property
    def top(self) -> StackFrame:
        return self.frames[-1]


def fresh_frame(label: str) -> StackFrame:
    """A frame as created by a call: 8 critical bytes of saved return address."""
    return StackFrame(label, b"C" * 8, frozenset(), False, False)


# --- memory operators ----------------------------------------------------

class MemOp(NamedTuple):
    kind: str                      # push|pop|write|fe|fa|shrink|no-effect
    byte_op: ByteOp | None = None
    base: str | None = None        # rbp/rsp for writes and buffer registration
    disp: int = 0
    width: int = 0
    amount: int = 0                # fe/shrink byte count
    canary: bool = False


def Push(byte_op: ByteOp) -> MemOp:
    return MemOp("push", byte_op, None, 0, 0, 0, False)


def Write(byte_op: ByteOp, base: str, disp: int, width: int, canary: bool = False) -> MemOp:
    return MemOp("write", byte_op, base, disp, width, 0, canary)


def Fe(amount: int) -> MemOp:
    return MemOp("fe", None, None, 0, 0, amount, False)


def Shrink(amount: int) -> MemOp:
    return MemOp("shrink", None, None, 0, 0, amount, False)


# the operators that carry no operand; MemOp is immutable, so one of each serves
POP = MemOp("pop")
FA = MemOp("fa")
NO_EFFECT = MemOp("no-effect")


def classify_instruction(ins: Instruction, canary_store_sites: set[int]) -> MemOp:
    """Map one instruction to its memory operator.

    Stores to frame-relative addresses are writes (risky only for canary
    stores, whose addresses `canary_store_sites` holds); a push of the base
    register is risky, and apply_memory_operator makes it the prologue
    push on a fresh frame only; sub rsp grows the frame, add rsp shrinks
    it. Everything else leaves the stack untouched; calls never get here,
    because the state-space builder splices their effects itself.
    """
    m = ins.mnemonic
    if m == "endbr64":
        return FA
    if m == "push":
        op = ins.operands[0]
        risky = op.kind == REG and op.reg == "rbp"
        return Push(ByteOp.RWRITE if risky else ByteOp.NRWRITE)
    if m == "pop":
        return POP
    if m == "sub":
        dst, src = ins.operands
        if dst.kind == REG and dst.reg == "rsp" and src.kind == IMM:
            return Fe(src.value)
        return NO_EFFECT
    if m == "add":
        dst, src = ins.operands
        if dst.kind == REG and dst.reg == "rsp" and src.kind == IMM:
            # epilogue inverse of Fe: releases local bytes
            return Shrink(src.value)
        if dst.is_frame_relative():
            return Write(ByteOp.NRWRITE, dst.base, dst.disp, _write_width(ins, dst))
        return NO_EFFECT
    if m in ("mov", "xchg") or m in CMOV:
        dst = ins.operands[0]
        if dst.is_frame_relative():
            risky = ins.address in canary_store_sites
            return Write(ByteOp.RWRITE if risky else ByteOp.NRWRITE,
                         dst.base, dst.disp, _write_width(ins, dst), canary=risky)
    return NO_EFFECT


def _write_width(ins: Instruction, dst) -> int:
    if dst.width:
        return dst.width
    if len(ins.operands) > 1 and ins.operands[1].kind == REG:
        return ins.operands[1].width or 8
    return 8


def scan_frame(body: list[Instruction]) -> tuple[set[int], bool]:
    """Addresses of stores whose source register was loaded from fs:0x28
    (canary stores), and whether the body takes a frame address."""
    sites: set[int] = set()
    tainted: set[str] = set()
    addressed = False
    for ins in body:
        if ins.mnemonic == "lea":
            addressed = addressed or takes_frame_address(ins)
        elif ins.mnemonic == "mov" and len(ins.operands) == 2:
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
    return sites, addressed


def takes_frame_address(lea: Instruction) -> bool:
    """Whether a `lea` takes an address below the frame base: such a `lea`
    registers a buffer."""
    src = lea.operands[1]
    return src.kind == MEM and src.base == "rbp" and src.disp < 0


# --- applying operators --------------------------------------------------

def apply_memory_operator(frames: tuple[StackFrame, ...], op: MemOp,
                          keep: int | None = None) -> tuple[tuple[StackFrame, ...], list[str]]:
    """Apply a direct memory operator to a state's frames (caller to
    callee), returning the new frames plus notes; `frames` is not changed.

    Writes walk down in index space and continue into caller frames. A
    write that starts below the allocated frame starts at its lowest byte
    instead, and the part past the outermost frame is left out, with a
    note per byte. A write is one closed-form run per frame it crosses. An
    RWrite push is the prologue push (critical bytes, and the frame gets
    its base-register slot) only on a fresh frame; elsewhere it occupies.
    A push or frame extension adds its bytes through `_grown`, which
    projects them past index `keep` of the top frame and clamps them at
    STACK_SIZE.
    """
    notes: list[str] = []
    top = frames[-1]
    if op.kind == "write":
        start = _write_start(top, op)
        if start >= len(top.bytes):
            notes.append(f"write below the allocated frame of {top.label} (index {start})")
            start = len(top.bytes) - 1
        lo = start + 1 - op.width
        if lo >= 0:     # the common case: one run inside the top frame
            row = _translated(top.bytes, lo, start + 1, op.byte_op)
            return frames[:-1] + (StackFrame(top.label, row, top.buffers,
                                             top.has_canary or op.canary,
                                             top.has_rbp_slot),), notes
        frames = list(frames)
        runs, pos, left = [], len(frames) - 1, op.width
        while left:
            while start < 0 and pos:    # continue at the caller's highest index
                pos -= 1
                start += len(frames[pos].bytes)
            if start < 0:
                notes += ["write continued past the outermost modeled frame; clamped"] * left
                break
            take = min(left, start + 1)
            runs.append((pos, start + 1 - take, start + 1))
            start, left = start - take, left - take
        _translate_runs(frames, runs, op.byte_op)
        if op.canary:
            top = frames[-1]
            frames[-1] = StackFrame(top.label, top.bytes, top.buffers, True, top.has_rbp_slot)
        return tuple(frames), notes
    if op.kind == "push":
        risky = op.byte_op is ByteOp.RWRITE and len(top.bytes) == 8
        top = StackFrame(top.label, _grown(frames, b"C" if risky else b"O", 8, keep, notes),
                         top.buffers, top.has_canary, top.has_rbp_slot or risky)
    elif op.kind == "pop":
        if len(top.bytes) - 8 < 8:
            raise PopUnderflow(f"pop would consume the saved return address of {top.label}")
        top = _with_bytes(top, top.bytes[:-8])
    elif op.kind == "fe":
        top = _with_bytes(top, _grown(frames, b"F", op.amount, keep, notes))
    elif op.kind == "shrink":
        if len(top.bytes) - op.amount < 16:
            raise PopUnderflow(f"frame shrink below control data in {top.label}")
        top = _with_bytes(top, top.bytes[:len(top.bytes) - op.amount])
    else:
        raise ValueError(f"not a direct operator: {op.kind}")
    return frames[:-1] + (top,), notes


def _write_start(top: StackFrame, op: MemOp) -> int:
    """The index of the top frame a write's first (lowest-address) byte
    falls on, before a start below the allocated frame is clamped."""
    if op.base == "rbp":
        return top.index_for_rbp_offset(op.disp)
    return top.index_for_rsp_offset(op.disp)


def _grown(frames: tuple[StackFrame, ...], letter: bytes, n: int, keep: int | None,
           notes: list[str]) -> bytes:
    """The top frame's bytes with `n` bytes of `letter` added past its
    highest index. Those at index `keep` and above are M, which no property
    reads and nRWrite keeps (None keeps every letter). Growth that would
    take all frames past STACK_SIZE bytes is cut there, with STACK_CLAMPED."""
    row = frames[-1].bytes
    room = STACK_SIZE
    for frame in frames:
        room -= len(frame.bytes)
    if n > room:
        notes.append(STACK_CLAMPED)
        n = max(room, 0)
    if keep is None or len(row) + n <= keep:
        return row + letter * n
    kept = max(keep - len(row), 0)
    return row + letter * kept + b"M" * (n - kept)


def _with_bytes(frame: StackFrame, data: bytes) -> StackFrame:
    return StackFrame(frame.label, data, frame.buffers, frame.has_canary, frame.has_rbp_slot)


def _translate_runs(frames: list[StackFrame], runs, byte_op: ByteOp) -> None:
    """Translate each (frame position, lo, hi) run in order."""
    for pos, lo, hi in runs:
        frame = frames[pos]
        frames[pos] = _with_bytes(frame, _translated(frame.bytes, lo, hi, byte_op))


def _translated(row: bytes, lo: int, hi: int, byte_op: ByteOp) -> bytes:
    """`row` with bytes lo..hi-1 moved by `byte_op`; the first byte (highest
    index) with no transition raises, as byte by byte."""
    seg = row[lo:hi].translate(_TRANSLATE[byte_op])
    if 0 in seg:
        byte_transition(ByteState(chr(row[lo + seg.rindex(0)])), byte_op)
    return row[:lo] + seg + row[hi:]


def register_buffer(frame: StackFrame, offset: int, size: int) -> StackFrame:
    """Add a buffer (rbp offset, size) to the frame's buffer set."""
    entry = (offset, size)
    if entry in frame.buffers:
        return frame
    lo, hi = offset, offset + size
    for (o, s) in frame.buffers:
        if lo < o + s and o < hi:
            raise OverlappingBuffer(f"buffer {entry} overlaps {(o, s)}")
    return StackFrame(frame.label, frame.bytes, frame.buffers | {entry}, frame.has_canary,
                      frame.has_rbp_slot)


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

class MemStaCe(NamedTuple):
    states: dict[int, MemoryState]
    transitions: list[tuple[int, TransitionLabel, int]]
    initial: int
    root: str
    truncated: bool = False
    notes: list[str] | tuple = ()


class _Settings(NamedTuple):
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


class Config(_Settings):
    """Analysis budgets and switches shared across the pipeline."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        # budgets are hard limits: one that is not positive limits nothing
        for name in ("max_states", "max_loop_iters", "max_input_len", "step_budget", "timeout"):
            value = getattr(cfg, name)
            if name == "timeout" and value is None:
                continue
            if not value > 0:
                raise ValueError(f"Config.{name} must be positive, got {value!r}")
        return cfg

    @classmethod
    def _make(cls, iterable) -> Config:
        # `_replace` builds through here, so a replaced value is checked too
        return cls(*iterable)


class _Decoded(NamedTuple):
    """One instruction's static facts, decoded at its first visit."""

    ins: Instruction
    fn: str                         # owning function
    nxt: int | None                 # successor within fn
    loop: object                    # reducible loop entered here, or None
    kind: str                       # ret|jmp|jcc|lea|call|fa|direct|no-effect
    target: int | None = None       # jump target, or where a user call jumps
    label: TransitionLabel | None = None
    steps: tuple = ()               # direct: (MemOp, TransitionLabel) applied in order


class _SpaceBuilder:
    def __init__(self, image: ProgramImage, effects, cfg: Config,
                 deadline: float | None, decoded: dict[int, _Decoded],
                 horizon: int | None = None):
        self.effects = effects
        self.cfg = cfg
        self.image = image
        self.deadline = deadline
        self.decoded = decoded
        self.horizon = horizon
        self.states: dict[int, MemoryState] = {}
        self.ids: dict = {}
        self.transitions: list[tuple[int, TransitionLabel, int]] = []
        self.tx_seen: set = set()
        self.notes: list[str] = []
        self.truncated = False
        self.visited: set = set()

    def intern(self, state: MemoryState) -> int:
        sid = self.ids.get(state)     # frames plus incoming label
        return self._add(state) if sid is None else sid

    def _add(self, state: MemoryState) -> int:
        if len(self.states) >= self.cfg.max_states:
            raise StateBudgetExceeded(f"state budget ({self.cfg.max_states}) exhausted")
        sid = len(self.states)
        self.ids[state] = sid
        self.states[sid] = state
        return sid

    def emit(self, src: int, label: TransitionLabel, frames: tuple[StackFrame, ...]) -> int:
        state = MemoryState(frames, label)
        dst = self.ids.get(state)
        if dst is None:                 # a new state: no edge reaches it yet
            dst = self._add(state)
        elif (src, label, dst) in self.tx_seen:
            return dst
        edge = (src, label, dst)
        self.tx_seen.add(edge)
        self.transitions.append(edge)
        return dst

    def facts(self, fn: str) -> tuple[set[int], bool]:
        """A function's canary stores, and whether its frames stay whole: it
        stores the canary or registers a buffer. Decided once per image."""
        facts = self.image.frame_facts.get(fn)
        if facts is None:
            sites, addressed = scan_frame(self.image.function_body(fn))
            facts = self.image.frame_facts[fn] = (sites, bool(sites) or addressed)
        return facts

    def keep(self, frame: StackFrame) -> int | None:
        """How many leading indices of `frame` the projection keeps: the
        horizon, unless the frame stays whole or is not a function's (a call
        into the middle of one); None keeps every byte."""
        if frame.label not in self.image.functions or self.facts(frame.label)[1]:
            return None
        return self.horizon

    def decode(self, pc: int) -> _Decoded:
        """The record of the instruction at pc, built in one step: each
        label's text is computed once, and every record is built
        positionally."""
        image = self.image
        ins = image.instructions[pc]
        fn = image.function_of(pc)
        nxt = image.next_in_function(pc)
        m = ins.mnemonic
        target = label = None
        steps = ()
        if m in JCC or m == "jmp":
            kind, target = "jcc" if m != "jmp" else "jmp", ins.operands[0].value
        elif m == "ret":
            kind, label = "ret", TransitionLabel("pop", pc, None, ins.text, None)
        elif m == "lea":
            kind = "no-effect"
            if takes_frame_address(ins):
                kind, label = "lea", TransitionLabel("buffer-register", pc, None, ins.text, None)
        elif m == "call" or m == "safecall":
            callee = image.callees[pc]
            modelled = callee.kind == LIBRARY and self.effects.spec(pc) is not None
            kind, target = "call", callee.target
            label = TransitionLabel("call", pc, callee.name, ins.text,
                                    LIBC if modelled else callee.kind)
        else:
            op = classify_instruction(ins, self.facts(fn)[0])
            kind = op.kind
            if kind != "no-effect":
                text = ins.text
                label = TransitionLabel("fe" if kind == "shrink" else kind, pc, None, text, None)
            if kind != "no-effect" and kind != "fa":
                steps = ((op, label),)
                if kind == "write" and self.cfg.atomic_writes and op.width > 1:
                    steps = tuple((op._replace(width=1, disp=op.disp + k),
                                   TransitionLabel("write", pc, None, f"{text} [byte {k}]", None))
                                  for k in range(op.width))
                kind, label = "direct", None
        return _Decoded(ins, fn, nxt, self.effects.loop_at(pc), kind, target, label, steps)

    # the DFS itself

    def run(self, entry: int) -> MemStaCe:
        self.root = self.image.function_of(entry)
        init = MemoryState((fresh_frame(self.root),), None)
        try:
            init_id = self.intern(init)
            self._walk(entry, init_id, call_stack=())
        except StateBudgetExceeded as exc:
            self.truncated = True
            self.notes.append(str(exc))
        return MemStaCe(states=self.states, transitions=self.transitions,
                        initial=0 if self.states else -1, root=self.root,
                        truncated=self.truncated, notes=self.notes)

    def _walk(self, pc: int, sid: int, call_stack: tuple) -> None:
        """Depth first: a jcc pushes its target and goes on with its
        fall-through; every other step has one successor, which the walk
        goes on with in place. A path ends at a (pc, state, call stack)
        already visited, at a target outside the image or at the root's
        own ret; the walk then resumes at the last target pushed."""
        work = [(pc, sid, call_stack)]
        decoded, visited, deadline = self.decoded, self.visited, self.deadline
        instructions = self.image.instructions
        visits = 0
        while work:
            pc, sid, call_stack = work.pop()
            while True:
                visits += 1
                if deadline is not None and visits % DEADLINE_EVERY == 0 \
                        and time.perf_counter() > deadline:
                    raise StateBudgetExceeded(
                        f"timeout during state-space construction of root {self.root!r}")
                d = decoded.get(pc)
                if d is None:
                    if pc not in instructions:
                        break
                    d = decoded[pc] = self.decode(pc)
                vkey = (pc, sid, call_stack)
                if vkey in visited:
                    break
                visited.add(vkey)

                kind = d.kind
                if d.loop is not None and not self._came_from_loop(sid, d.loop):
                    loop = d.loop
                    label = TransitionLabel("loop", loop.entry,
                                            text=f"loop {loop.entry:#x}..{loop.exit:#x}")
                    pc, sid = loop.exit, self._splice(sid, label, self.effects.loop_effect(loop))
                elif kind == "no-effect":
                    pc = d.nxt
                elif kind == "direct":
                    for op, label in d.steps:
                        sid = self._emit_applied(sid, label, op)
                    pc = d.nxt
                elif kind == "jcc":
                    work.append((d.target, sid, call_stack))
                    pc = d.nxt
                elif kind == "jmp":
                    pc = d.target
                elif kind == "ret":
                    if not call_stack:
                        break
                    sid = self.emit(sid, d.label, self.states[sid].frames[:-1])
                    pc, call_stack = call_stack[-1], call_stack[:-1]
                elif kind == "call":
                    pc, sid, call_stack = self._do_call(d, sid, call_stack)
                elif kind == "lea":
                    pc, sid = d.nxt, self._maybe_register_buffer(sid, d)
                else:   # fa: the frame the incoming call allocated gets its marker
                    top = self.states[sid].top
                    if len(top.bytes) == 8 and top.label == d.fn:
                        sid = self.emit(sid, d.label, self.states[sid].frames)
                    pc = d.nxt

    def _came_from_loop(self, sid: int, loop) -> bool:
        lbl = self.states[sid].incoming_label
        return lbl is not None and lbl.kind == "loop" and lbl.address == loop.entry

    def _emit_applied(self, sid: int, label: TransitionLabel, op: MemOp) -> int:
        frames = self.states[sid].frames
        keep = None
        if self.horizon is not None:
            if op.kind == "push" or op.kind == "fe":
                keep = self.keep(frames[-1])
            elif op.canary:
                self._check_canary_store(frames, op)
        try:
            frames, notes = apply_memory_operator(frames, op, keep)
        except (PopUnderflow, IllegalByteTransition) as exc:
            self.notes.append(f"{label.text} at {label.address:#x}: {exc}")
            return sid
        if notes:
            self.notes.extend(notes)
            self.truncated = self.truncated or STACK_CLAMPED in notes
        return self.emit(sid, label, frames)

    def _check_canary_store(self, frames: tuple[StackFrame, ...], op: MemOp) -> None:
        """A canary store marks its frame as one with a canary and writes by
        RWrite, which has no transition from M: its frame must keep every
        byte, and so must every caller when it runs past the top frame."""
        top = frames[-1]
        inside = min(_write_start(top, op), len(top.bytes) - 1) + 1 >= op.width
        if self.keep(top) is not None or (
                not inside and any(self.keep(f) is not None for f in frames[:-1])):
            raise _ProjectionLost

    def _maybe_register_buffer(self, sid: int, d: _Decoded) -> int:
        state = self.states[sid]
        top, offset = state.top, d.ins.operands[1].disp
        if not top.has_rbp_slot:
            return sid
        size = self.effects.buffer_size(d.fn, offset, top.has_canary)
        if size <= 0:
            return sid
        try:
            new_top = register_buffer(top, offset, size)
        except OverlappingBuffer as exc:
            self.notes.append(f"{d.label.text}: {exc}")
            return sid
        if new_top is top:
            return sid
        # the frame of the lea's own function is whole; any other may be cut
        if top.label != d.fn and self.keep(top) is not None:
            raise _ProjectionLost
        return self.emit(sid, d.label, state.frames[:-1] + (new_top,))

    def _do_call(self, d: _Decoded, sid: int, call_stack: tuple):
        frames = self.states[sid].frames
        if d.target is not None:
            # user call: the call itself creates the callee frame (the
            # pushed return address is its first 8 critical bytes)
            if len(call_stack) >= CALL_DEPTH:
                self.notes.append(f"call depth limit at {d.ins.address:#x}; call skipped")
                return (d.nxt, sid, call_stack)
            dst = self.emit(sid, d.label, frames + (fresh_frame(d.label.name),))
            return (d.target, dst, call_stack + (d.nxt,))
        # library call or safecall: splice the emulated effect
        return (d.nxt, self._splice(sid, d.label, self.effects.call_effect(d.ins.address)),
                call_stack)

    def _splice(self, sid: int, label: TransitionLabel, effect) -> int:
        """Splice an emulated call or loop effect into state sid. An
        incomplete (truncating) effect truncates the root's space."""
        frames, notes = apply_effect(self.states[sid].frames, effect)
        self.notes += notes + effect.notes
        self.truncated = self.truncated or effect.truncating
        return self.emit(sid, label, frames)


def apply_effect(frames: tuple[StackFrame, ...], effect) -> tuple[tuple[StackFrame, ...], list[str]]:
    """Splice an emulated call/loop effect into a state's frames, returning
    the new frames plus notes; `frames` is not changed.

    Each touch is an nRWrite at a (frame depth from the callee, byte index)
    pair. A touch in a frame above the modeled ones, or below the frame's
    allocated bytes, is left out with a note. Each run of adjacent touches
    (descending index in one frame) is one slice translate.
    """
    frames = list(frames)
    notes: list[str] = []
    runs: list[list[int]] = []      # [pos, lo, hi) in touch order
    skipped = 0
    for depth, idx in effect.touched:
        pos = len(frames) - 1 - depth
        if pos < 0:
            skipped += 1
            continue
        if idx >= len(frames[pos].bytes):
            notes.append("write below the allocated frame; clamped")
            continue
        if runs and runs[-1][0] == pos and runs[-1][1] == idx + 1:
            runs[-1][1] = idx
        else:
            runs.append([pos, idx, idx + 1])
    _translate_runs(frames, runs, ByteOp.NRWRITE)
    if skipped:
        notes.append(f"effect of {effect.name}: {skipped} byte(s) above the "
                     "modeled frames skipped")
    return tuple(frames), notes


def build_memstace(image: ProgramImage, effects, cfg: Config, entry: int,
                   deadline: float | None = None, decoded: dict | None = None,
                   horizon: int | None = None) -> MemStaCe:
    """DFS the CFG from entry, producing the labeled transition system.

    Library calls and loop bodies are summarized through the effects
    oracle, which also sizes the buffers the builder registers; user
    calls descend, giving multi-frame states. Identical states (frames
    plus incoming label) are shared. Roots that share one `decoded` dict
    decode each instruction once; past `deadline` (a
    `time.perf_counter()` value) the space is truncated. `horizon` is how
    many leading indices of a frame the properties can read
    (`ltl.frame_horizon`): the frames that may be cut hold M past it. None
    keeps every byte, and so does the build again of a root whose canary
    store or buffer registration met a cut frame.
    """
    decoded = {} if decoded is None else decoded
    try:
        return _SpaceBuilder(image, effects, cfg, deadline, decoded, horizon).run(entry)
    except _ProjectionLost:
        return _SpaceBuilder(image, effects, cfg, deadline, decoded, None).run(entry)


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
