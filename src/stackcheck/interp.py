"""Concrete interpreter for the supported x86-64 subset.

Runs a parsed image on a byte-addressed stack. Each user call records a
shadow copy of the saved return address, saved base register and canary;
at ret the live bytes are compared against the shadow and a mismatch
crashes with the matching cause. Every way a run stops raises one
exception, Halt, whose status is a clean exit, a crash, the step budget
running out, the analysis deadline passing (a machine given one reads
the clock every DEADLINE_EVERY dispatches of run, run_to and a loop
fork's step loop), or a construct the interpreter does not model (a
printf conversion, an operand form). The same machine serves the
effects module in capture mode (one run per analysis root that stops at
each call site, safecall and loop entry, where forks run the handler,
are snapshotted and diffed, and that may continue from a loop's fork)
and the validator for full before/after runs.

LIBC is the one table of modelled library functions: each entry names
its handler and the registers it writes through, copies from and fills
with. `call_spec` is the one rule for what a call (see
`ProgramImage.callees`) runs: a library call the entry the libc database
(`load_libc_db`, bundled or --libc-db) gives its name, none when the
database lists none, and the safecall pseudo-instruction the patcher
installs the LIBC entry of the function its template bounds
(frontend.SAFECALLS), its write capped at the bound. The interpreter and
the effects oracle both ask it.

Each form of instruction (mnemonic and operands) is compiled once per
image, at the first execution of an instruction of that form, into a
handler (see codegen) that takes the machine, the instruction and the pc
after it and returns the next pc. The image's `forms` table holds it,
and its `code` table holds (handler, instruction, next pc) for each pc
executed; `ProgramImage.index()` resets both, and every machine running
the image shares them. The handlers in _HANDLERS are the generic
semantics: an uncommon form runs its handler directly, and a specialised
handler must leave the machine as the generic one would. The jcc closing
a counted single-block loop compiles, for its pc alone, to a closure
that also runs, in closed form, every further iteration whose back edge
is taken (codegen.compile_counted_loop), so root runs, loop
forks and validation runs alike step only a counted loop's first and
exiting iterations. A skip stops short of the step budget, of a store
outside the stack, of a pc the run must stop at (`stops`, which run_to
sets), of the exit of the loop an emulate_loop fork runs (`loop_exit`)
and of more back edges to that loop's entry (`loop_entry`) than the
fork's iteration budget has left (`loop_left`). A run therefore halts
and stops where stepping would, with the same machine; `steps` counts
every instruction retired, skipped ones included.

The stack spans STACK_SIZE bytes below STACK_TOP, but a machine holds
bytes only from the lowest page written so far up to STACK_TOP: the
window grows down a page at a time, unwritten bytes read as 0xCC, and
fork() and snapshot() copy only the window. Many machines can then be
alive at once without each holding the whole stack. wr_mem, which every
stack write goes through, keeps the span written since the last
snapshot, and diff_stack compares only that span.
"""

from __future__ import annotations

import re
import time
from collections.abc import Callable, Collection
from itertools import compress, repeat, takewhile
from operator import ne
from typing import NamedTuple

from . import MalformedData, load_data, parse_json
from .codegen import CONDITIONS, compile_counted_loop, compile_form
from .frontend import (CANARY_FS_OFFSET, CMOV, IMM, JCC, LIBRARY, MEM, R64, REG, SAFECALL,
                       SAFECALLS, USER, Callee, Instruction, ProgramImage)
from .memstace import DEADLINE_EVERY, STACK_SIZE

STACK_BASE = 0x7FFE0000
STACK_TOP = STACK_BASE + STACK_SIZE
ENTRY_RSP = STACK_TOP - 0x1000          # headroom absorbs overflow past the root frame
PAGE = 0x1000                           # the stack window grows by whole pages
# diff_stack compares blocks of this many bytes and diffs only the unequal
# ones byte by byte, so sparse writes over a wide span cost little
DIFF_BLOCK = 256
# classic uninitialized-memory fill; a NUL terminator written over it
# shows up in stack diffs, unlike a NUL over a zeroed stack
FILL = 0xCC
ARGV_BASE = 0x500000
# no zero bytes: a terminator written over any sentinel byte must show up
# in stack diffs and shadow comparisons
SENTINEL_RET = 0xFEEDFACEFEEDFACE
CANARY_VALUE = 0x00C0FFEE0BADF00D

CAUSE_RET = "return-address-corrupted"
CAUSE_RBP = "base-register-corrupted"
CAUSE_CANARY = "canary-mismatch"
CAUSE_OOS = "out-of-stack-write"

# how a run stopped: Halt.status is one of these
CLEAN = "clean-exit"
CRASH = "crash"
STEP_BUDGET = "step-budget"
TIMEOUT = "timeout"
UNSUPPORTED = "unsupported"


class Halt(Exception):
    """The run stopped: `status` says how, `cause` names the crash cause or
    the construct the interpreter does not model."""

    def __init__(self, status: str, cause: str | None = None):
        self.status = status
        self.cause = cause
        super().__init__(f"{status}: {cause}" if cause else status)


class ShadowFrame:
    """What a frame's protected slots held when written: the return
    address from the call, the saved base register and canary once the
    prologue stores them. Equal frames hold equal slots."""

    __slots__ = ("ret_loc", "ret_bytes", "rbp_loc", "rbp_bytes", "canary_loc", "canary_bytes")

    def __init__(self, ret_loc: int, ret_bytes: bytes,
                 rbp_loc: int | None = None, rbp_bytes: bytes | None = None,
                 canary_loc: int | None = None, canary_bytes: bytes | None = None):
        self.ret_loc = ret_loc
        self.ret_bytes = ret_bytes
        self.rbp_loc = rbp_loc          # where the prologue saved the base register
        self.rbp_bytes = rbp_bytes
        self.canary_loc = canary_loc
        self.canary_bytes = canary_bytes

    def _slots(self) -> tuple:
        return (self.ret_loc, self.ret_bytes, self.rbp_loc, self.rbp_bytes,
                self.canary_loc, self.canary_bytes)

    def __eq__(self, other) -> bool:
        return type(other) is ShadowFrame and self._slots() == other._slots()

    def copy(self) -> ShadowFrame:
        return ShadowFrame(*self._slots())

    @property
    def top_addr(self) -> int:
        # highest address belonging to this frame (last return-address byte)
        return self.ret_loc + 7

    def index_of(self, addr: int) -> int:
        return self.top_addr - addr

    def protected_floor(self) -> int:
        if self.canary_loc is not None:
            return self.canary_loc
        if self.rbp_loc is not None:
            return self.rbp_loc
        return self.ret_loc


class Machine:
    def __init__(self, image: ProgramImage, cfg, stdin: bytes = b"",
                 argv: tuple[str, ...] = (), deadline: float | None = None):
        self.image = image
        self.cfg = cfg
        self.deadline = deadline        # a time.perf_counter() value, or None
        self.regs = {r: 0 for r in R64}
        self.flags = {"zf": False, "sf": False, "cf": False, "of": False}
        # the written window of the stack: stack[0] is the byte at stack_lo
        self.stack = bytearray()
        self.stack_lo = STACK_TOP
        self.aux: dict[int, int] = {}
        self.stdin = stdin
        self.stdin_pos = 0
        self.stdout = bytearray()
        self.shadow: list[ShadowFrame] = []
        self.steps = 0
        self.pc: int | None = None
        self.canary_regs: set[str] = set()
        self.read_stdin = False     # set by every reader of stdin
        # what a counted loop's skip may not pass (see codegen): the pcs the
        # current run_to stops at, the exit of the loop an emulate_loop fork
        # runs, and the back edges to that loop's entry its budget has left
        self.stops: Collection[int] = frozenset()
        self.loop_entry: int | None = None
        self.loop_exit: int | None = None
        self.loop_left = 0
        self.libc = load_libc_db(cfg.libc_db_path)   # the library calls it runs
        # the write marks: the span of stack bytes written since the last
        # snapshot (since the start, on a machine never snapshotted)
        self._wm_lo = STACK_TOP
        self._wm_hi = STACK_BASE
        self._setup_argv(argv)

    def _setup_argv(self, argv: tuple[str, ...]) -> None:
        addr = ARGV_BASE
        ptrs = []
        for a in argv:
            data = a.encode() + b"\0"
            for i, b in enumerate(data):
                self.aux[addr + i] = b
            ptrs.append(addr)
            addr += len(data)
        table = addr
        for i, p in enumerate(ptrs):
            for k, b in enumerate(p.to_bytes(8, "little")):
                self.aux[table + i * 8 + k] = b
        self.regs["rdi"] = len(argv)
        self.regs["rsi"] = table if argv else 0

    # --- memory ---------------------------------------------------------

    def in_stack(self, addr: int) -> bool:
        return STACK_BASE <= addr < STACK_TOP

    def rd_mem(self, addr: int, n: int) -> bytes:
        lo = self.stack_lo
        if lo <= addr and addr + n <= STACK_TOP:
            return bytes(self.stack[addr - lo:addr - lo + n])
        if STACK_BASE <= addr and addr + n <= STACK_TOP:
            # unwritten bytes below the window, then the window's
            below = min(lo - addr, n)
            return bytes([FILL]) * below + bytes(self.stack[:n - below])
        return bytes(self.stack[a - lo] if lo <= a < STACK_TOP
                     else FILL if self.in_stack(a) else self.aux.get(a, 0)
                     for a in range(addr, addr + n))

    def wr_mem(self, addr: int, data: bytes) -> None:
        end = addr + len(data)
        if STACK_BASE <= addr < end <= STACK_TOP:
            if addr < self.stack_lo:
                self._grow(addr)
            off = addr - self.stack_lo
            self.stack[off:off + len(data)] = data
            if addr < self._wm_lo:
                self._wm_lo = addr
            if end - 1 > self._wm_hi:
                self._wm_hi = end - 1
            return
        if STACK_BASE <= addr < STACK_TOP < end:
            # the part inside the stack in one write, then the bytes past it
            self.wr_mem(addr, data[:STACK_TOP - addr])
            addr, data = STACK_TOP, data[STACK_TOP - addr:]
        for i, b in enumerate(data):
            a = addr + i
            if self.in_stack(a):
                self.wr_mem(a, bytes([b]))
            elif a in self.aux or ARGV_BASE <= a < ARGV_BASE + 0x10000:
                self.aux[a] = b
            else:
                raise Halt(CRASH, CAUSE_OOS)

    def _grow(self, addr: int) -> None:
        """Extend the window down to the page holding addr."""
        lo = addr - (addr - STACK_BASE) % PAGE
        self.stack[0:0] = bytes([FILL]) * (self.stack_lo - lo)
        self.stack_lo = lo

    def rd_cstr(self, addr: int, cap: int | None = None) -> bytes:
        end = addr + (cap if cap is not None else self.cfg.max_input_len * 2)
        out = bytearray()
        lo = self.stack_lo
        if lo <= addr < STACK_TOP:
            # the part inside the written window in one search
            out = self.stack[addr - lo:min(end, STACK_TOP) - lo]
            nul = out.find(0)
            if nul != -1:
                return bytes(out[:nul])
        start = addr + len(out)
        if start >= STACK_TOP or end <= STACK_BASE:
            # the rest lies outside the stack: aux bytes, 0 where none is set
            return bytes(out) + bytes(takewhile(bool, map(self.aux.get, range(start, end),
                                                          repeat(0))))
        for a in range(start, end):
            b = self.rd_mem(a, 1)[0]
            if b == 0:
                break
            out.append(b)
        return bytes(out)

    # --- registers ------------------------------------------------------

    def rd_reg(self, name: str, width: int = 8) -> int:
        v = self.regs[name]
        return v & ((1 << (width * 8)) - 1)

    def wr_reg(self, name: str, value: int, width: int = 8) -> None:
        mask = (1 << (width * 8)) - 1
        value &= mask
        if width in (8, 4):
            self.regs[name] = value       # 32-bit writes zero-extend
        else:
            old = self.regs[name]
            self.regs[name] = (old & ~mask) | value
        self.canary_regs.discard(name)

    # --- snapshots (capture mode) ----------------------------------------

    def snapshot(self) -> tuple[bytes, int]:
        """The stack window and its low address, for diff_stack; clears the
        write marks, so that they span only the writes after it."""
        self._wm_lo, self._wm_hi = STACK_TOP, STACK_BASE
        return (bytes(self.stack), self.stack_lo)

    def diff_stack(self, snap: tuple[bytes, int]) -> list[int]:
        """The stack addresses changed since the snapshot, ascending. Every
        stack write goes through wr_mem, which widens the write marks, so
        only the marked span can differ from the snapshot; the snapshot
        reads FILL below its window, as unwritten bytes do."""
        old, old_lo = snap
        lo = max(self._wm_lo, self.stack_lo)
        hi = min(self._wm_hi, STACK_TOP - 1)
        if hi < lo:
            return []
        now = self.stack[lo - self.stack_lo:hi + 1 - self.stack_lo]
        was = bytes([FILL]) * max(0, min(old_lo, hi + 1) - lo) + \
            old[max(lo, old_lo) - old_lo:hi + 1 - old_lo]
        if was == now:
            return []
        changed = []
        for k in range(0, len(now), DIFF_BLOCK):
            a, b = was[k:k + DIFF_BLOCK], now[k:k + DIFF_BLOCK]
            if a != b:
                changed.extend(compress(range(lo + k, lo + k + len(b)), map(ne, a, b)))
        return changed

    def fork(self) -> "Machine":
        """A copy that shares the image, configuration, library table,
        deadline and stop set, and owns its mutable state."""
        clone = Machine.__new__(Machine)
        clone.__dict__.update(self.__dict__)
        clone.regs = dict(self.regs)
        clone.flags = dict(self.flags)
        clone.stack = bytearray(self.stack)
        clone.aux = dict(self.aux)
        clone.stdout = bytearray(self.stdout)
        clone.shadow = [f.copy() for f in self.shadow]
        clone.canary_regs = set(self.canary_regs)
        return clone

    # --- execution --------------------------------------------------------

    def start(self, entry: int) -> None:
        self.regs["rsp"] = ENTRY_RSP
        self._push_qword(SENTINEL_RET)
        self.shadow.append(ShadowFrame(ret_loc=self.regs["rsp"],
                                       ret_bytes=SENTINEL_RET.to_bytes(8, "little")))
        self.pc = entry

    def _push_qword(self, value: int) -> None:
        self.regs["rsp"] -= 8
        self.wr_mem(self.regs["rsp"], value.to_bytes(8, "little"))

    def run(self) -> None:
        """Run to completion; always ends by raising Halt."""
        self.stops = frozenset()
        for _ in self.dispatches():
            self.step()

    def run_to(self, stops: Collection[int]) -> None:
        """Run until the next instruction to execute is in `stops`; raises
        Halt when the run ends first. The caller may keep `stops` and change
        it between calls: it is read, not copied."""
        self.stops = stops
        for _ in self.dispatches():
            if self.pc in stops:
                return
            self.step()

    def dispatches(self):
        """An endless iterator a step loop takes one item from per dispatch.
        With a deadline it reads the clock before every DEADLINE_EVERY items
        and raises Halt(TIMEOUT) once the deadline has passed; without one
        it costs nothing. It counts dispatches, not steps: a counted loop's
        skip retires many steps in one."""
        return repeat(None) if self.deadline is None else self._clocked()

    def _clocked(self):
        while True:
            if time.perf_counter() > self.deadline:
                raise Halt(TIMEOUT)
            yield from range(DEADLINE_EVERY)

    def step(self) -> None:
        if self.steps >= self.cfg.step_budget:
            raise Halt(STEP_BUDGET)
        handler, ins, nxt = self.image.code.get(self.pc) or self._compile()
        self.steps += 1
        self.pc = handler(self, ins, nxt)

    def _compile(self) -> tuple:
        """The code entry of the pc's instruction: its form's handler (or
        its counted loop's back edge) with the instruction and the pc after
        it."""
        image, pc = self.image, self.pc
        ins = image.instructions.get(pc)
        if ins is None:                 # also a pc of None: the run left the image
            raise Halt(CLEAN)
        nxt = image.next_address(pc)
        handler = None
        if ins.mnemonic in JCC:
            handler = compile_counted_loop(image, ins, STACK_BASE, STACK_TOP)
        if handler is None:
            form = (ins.mnemonic, ins.operands)
            handler = image.forms.get(form)
            if handler is None:
                handler = image.forms[form] = compile_form(ins, _HANDLERS.get(ins.mnemonic))
        entry = image.code[pc] = (handler, ins, nxt)
        return entry

    # instruction semantics: each handler returns the next pc

    def _do_push(self, ins: Instruction, nxt: int | None) -> int | None:
        op = ins.operands[0]
        val, _ = self._read_operand(op)
        self._push_qword(val)
        if (op.kind == REG and op.reg == "rbp" and self.shadow
                and self.shadow[-1].rbp_loc is None
                and self.regs["rsp"] == self.shadow[-1].ret_loc - 8):
            f = self.shadow[-1]
            f.rbp_loc = self.regs["rsp"]
            f.rbp_bytes = self.rd_mem(f.rbp_loc, 8)
        return nxt

    def _do_pop(self, ins: Instruction, nxt: int | None) -> int | None:
        val = int.from_bytes(self.rd_mem(self.regs["rsp"], 8), "little")
        self.regs["rsp"] += 8
        self._write_operand(ins.operands[0], val, 8)
        return nxt

    def _do_mov(self, ins: Instruction, nxt: int | None) -> int | None:
        dst, src = ins.operands
        if src.kind == MEM and src.base == "fs" and src.disp == CANARY_FS_OFFSET:
            if dst.kind == REG:
                self.wr_reg(dst.reg, CANARY_VALUE)
                self.canary_regs.add(dst.reg)
            return nxt
        width = self._mov_width(dst, src)
        src_is_canary = src.kind == REG and src.reg in self.canary_regs
        val, _ = self._read_operand(src, width=width)
        if dst.kind == REG and src_is_canary:
            self.wr_reg(dst.reg, val, width)
            self.canary_regs.add(dst.reg)
            return nxt
        self._write_operand(dst, val, width)
        if dst.kind == MEM and src_is_canary and self.shadow:
            addr = self._mem_addr(dst)
            f = self.frame_containing(addr) or self.shadow[-1]
            f.canary_loc = addr
            f.canary_bytes = self.rd_mem(addr, 8)
        return nxt

    def _do_cmov(self, ins: Instruction, nxt: int | None) -> int | None:
        if CONDITIONS[ins.mnemonic[4:]](self.flags):
            self._do_mov(ins, nxt)
        return nxt

    def _do_xchg(self, ins: Instruction, nxt: int | None) -> int | None:
        a, b = ins.operands
        va, wa = self._read_operand(a)
        vb, _ = self._read_operand(b)
        self._write_operand(a, vb, wa)
        self._write_operand(b, va, wa)
        return nxt

    def _do_lea(self, ins: Instruction, nxt: int | None) -> int | None:
        dst, src = ins.operands
        addr = self._mem_addr(src)
        if dst.kind != REG:
            raise Halt(UNSUPPORTED, f"{dst.kind} operand as a lea destination")
        self.wr_reg(dst.reg, addr)
        return nxt

    def _mov_width(self, dst, src) -> int:
        if dst.kind == MEM and dst.width:
            return dst.width
        if src.kind == REG:
            return src.width or 8
        if dst.kind == REG:
            return dst.width or 8
        return src.width or 8

    def _do_arith(self, ins: Instruction, nxt: int | None) -> int | None:
        dst, src = ins.operands
        sub = ins.mnemonic == "sub"
        va, w = self._read_operand(dst)
        vb, _ = self._read_operand(src, width=w)
        res = va - vb if sub else va + vb
        self._set_arith_flags(va, vb, res, w, sub=sub)
        self._write_operand(dst, res & ((1 << (w * 8)) - 1), w)
        return nxt

    def _do_cmp(self, ins: Instruction, nxt: int | None) -> int | None:
        a, b = ins.operands
        va, w = self._read_operand(a)
        vb, _ = self._read_operand(b, width=w)
        self._set_arith_flags(va, vb, (va - vb), w, sub=True)
        return nxt

    def _do_test(self, ins: Instruction, nxt: int | None) -> int | None:
        a, b = ins.operands
        va, w = self._read_operand(a)
        vb, _ = self._read_operand(b, width=w)
        res = va & vb
        self.flags.update(zf=res == 0, sf=bool(res >> (w * 8 - 1) & 1),
                          cf=False, of=False)
        return nxt

    def _do_jmp(self, ins: Instruction, nxt: int | None) -> int | None:
        return ins.target()

    def _do_jcc(self, ins: Instruction, nxt: int | None) -> int | None:
        return ins.target() if CONDITIONS[ins.mnemonic[1:]](self.flags) else nxt

    def _set_arith_flags(self, a: int, b: int, res: int, w: int, *, sub: bool) -> None:
        bits = w * 8
        mask = (1 << bits) - 1
        r = res & mask
        sa = (a >> (bits - 1)) & 1
        sb = (b >> (bits - 1)) & 1
        sr = (r >> (bits - 1)) & 1
        self.flags["zf"] = r == 0
        self.flags["sf"] = bool(sr)
        if sub:
            self.flags["cf"] = a < b
            self.flags["of"] = (sa != sb) and (sr != sa)
        else:
            self.flags["cf"] = res > mask
            self.flags["of"] = (sa == sb) and (sr != sa)

    def _mem_addr(self, op) -> int:
        if op.kind != MEM or op.base not in R64:
            raise Halt(UNSUPPORTED, f"{op.base or op.kind} operand as an address")
        return self.rd_reg(op.base) + op.disp

    def _read_operand(self, op, width: int | None = None) -> tuple[int, int]:
        if op.kind == REG:
            w = width or op.width or 8
            return self.rd_reg(op.reg, op.width or 8), op.width or w
        if op.kind == IMM:
            w = width or op.width or 8
            return op.value & ((1 << (w * 8)) - 1), w
        if op.kind == MEM:
            if op.base == "fs" and op.disp == CANARY_FS_OFFSET:
                return CANARY_VALUE, 8
            w = width or op.width or 8
            return int.from_bytes(self.rd_mem(self._mem_addr(op), w), "little"), w
        raise Halt(UNSUPPORTED, f"{op.kind} operand as a source")

    def _write_operand(self, op, value: int, width: int) -> None:
        if op.kind == REG:
            self.wr_reg(op.reg, value, op.width or width)
        elif op.kind == MEM:
            mask = (1 << (width * 8)) - 1    # a wider source is stored truncated
            self.wr_mem(self._mem_addr(op), (value & mask).to_bytes(width, "little"))
        else:
            raise Halt(UNSUPPORTED, f"{op.kind} operand as a destination")

    # --- calls and returns ------------------------------------------------

    def _do_call(self, ins: Instruction, nxt: int | None) -> int | None:
        """Enter a user call's target; run the spec `call_spec` gives a
        library call or safecall. A safecall writes at most bound - 1
        bytes and the terminator (a bound of 0: the terminator only)."""
        callee = self.image.callees[ins.address]
        if callee.kind == USER:
            self._push_qword(SENTINEL_RET if nxt is None else nxt)
            self.shadow.append(ShadowFrame(ret_loc=self.regs["rsp"],
                                           ret_bytes=self.rd_mem(self.regs["rsp"], 8)))
            return callee.target
        spec = call_spec(callee, self.libc)
        if spec is None:        # a function the database does not list is skipped
            return nxt
        if callee.kind == SAFECALL:
            bound = ins.operands[0].value
            if bound is None:
                bound = self._runtime_bound(self.regs[spec.dest])
            spec.handler(self, max(bound - 1, 0))
        else:
            spec.handler(self)
        return nxt

    def _runtime_bound(self, dest: int) -> int:
        floors = [f.protected_floor() for f in self.shadow if f.protected_floor() > dest]
        return min(floors) - dest if floors else 16

    def _do_ret(self, ins: Instruction, nxt: int | None) -> int | None:
        val = int.from_bytes(self.rd_mem(self.regs["rsp"], 8), "little")
        self.regs["rsp"] += 8
        if self.shadow:
            frame = self.shadow.pop()
            self._shadow_check(frame)
        if val == SENTINEL_RET:
            raise Halt(CLEAN)
        return val

    def _shadow_check(self, frame: ShadowFrame) -> None:
        if frame.canary_loc is not None and self.rd_mem(frame.canary_loc, 8) != frame.canary_bytes:
            raise Halt(CRASH, CAUSE_CANARY)
        if self.rd_mem(frame.ret_loc, 8) != frame.ret_bytes:
            raise Halt(CRASH, CAUSE_RET)
        if frame.rbp_loc is not None and self.rd_mem(frame.rbp_loc, 8) != frame.rbp_bytes:
            raise Halt(CRASH, CAUSE_RBP)

    def frame_containing(self, addr: int) -> ShadowFrame | None:
        """The innermost shadow frame whose extent reaches up to addr."""
        return min((f for f in self.shadow if addr <= f.top_addr),
                   key=lambda f: f.top_addr, default=None)

    # --- C library semantics -----------------------------------------------

    def _read_line(self) -> bytes | None:
        self.read_stdin = True
        if self.stdin_pos >= len(self.stdin):
            return None
        end = self.stdin.find(b"\n", self.stdin_pos)
        if end == -1:
            line = self.stdin[self.stdin_pos:]
            self.stdin_pos = len(self.stdin)
        else:
            line = self.stdin[self.stdin_pos:end]
            self.stdin_pos = end + 1
        return line

    # strcpy, strcat, sprintf, gets and scanf take the `cap` of a safecall
    # that bounds them: at most cap bytes before the terminator (strcat: of
    # the whole string; scanf: of the %s conversion through rsi)

    def _libc_strcpy(self, cap: int | None = None) -> None:
        dest, src = self.regs["rdi"], self.regs["rsi"]
        data = self.rd_cstr(src)[:cap]
        self.wr_mem(dest, data + b"\0")
        self.regs["rax"] = dest

    def _libc_strncpy(self) -> None:
        dest, src, n = self.regs["rdi"], self.regs["rsi"], self.regs["rdx"]
        data = self.rd_cstr(src)[:n]
        self.wr_mem(dest, data + b"\0" * (n - len(data)))
        self.regs["rax"] = dest

    def _libc_strcat(self, cap: int | None = None) -> None:
        dest, src = self.regs["rdi"], self.regs["rsi"]
        dlen = len(self.rd_cstr(dest))
        data = self.rd_cstr(src)[:None if cap is None else max(cap - dlen, 0)]
        self.wr_mem(dest + dlen, data + b"\0")
        self.regs["rax"] = dest

    def _libc_gets(self, cap: int | None = None) -> None:
        dest = self.regs["rdi"]
        line = self._read_line()
        if line is None:
            self.regs["rax"] = 0
            return
        self.wr_mem(dest, line[:cap] + b"\0")
        self.regs["rax"] = dest

    def _libc_fgets(self) -> None:
        self.read_stdin = True
        dest, n = self.regs["rdi"], self.regs["rsi"]
        if n <= 0 or self.stdin_pos >= len(self.stdin):
            self.regs["rax"] = 0
            return
        take = self.stdin[self.stdin_pos:self.stdin_pos + n - 1]
        cut = take.find(b"\n")
        if cut != -1:
            take = take[:cut + 1]
        self.stdin_pos += len(take)
        self.wr_mem(dest, take + b"\0")
        self.regs["rax"] = dest

    def _libc_memset(self) -> None:
        dest, c, n = self.regs["rdi"], self.regs["rsi"] & 0xFF, self.regs["rdx"]
        self.wr_mem(dest, bytes([c]) * n)
        self.regs["rax"] = dest

    def _libc_sprintf(self, cap: int | None = None) -> None:
        dest = self.regs["rdi"]
        out = self._render_format(self.rd_cstr(self.regs["rsi"]),
                                  ["rdx", "rcx", "r8", "r9"])[:cap]
        self.wr_mem(dest, out + b"\0")
        self.regs["rax"] = len(out)

    def _libc_snprintf(self) -> None:
        dest, n = self.regs["rdi"], self.regs["rsi"]
        out = self._render_format(self.rd_cstr(self.regs["rdx"]), ["rcx", "r8", "r9"])
        if n > 0:
            self.wr_mem(dest, out[:n - 1] + b"\0")
        self.regs["rax"] = len(out)

    def _libc_printf(self) -> None:
        out = self._render_format(self.rd_cstr(self.regs["rdi"]),
                                  ["rsi", "rdx", "rcx", "r8", "r9"])
        self.stdout.extend(out)
        self.regs["rax"] = len(out)

    def _libc_puts(self) -> None:
        self.stdout.extend(self.rd_cstr(self.regs["rdi"]) + b"\n")
        self.regs["rax"] = 1

    def _libc_scanf(self, cap: int | None = None) -> None:
        fmt = self.rd_cstr(self.regs["rdi"]).decode("latin-1")
        dests = ["rsi", "rdx", "rcx", "r8", "r9"]
        count = 0
        # each conversion: %, an optional field width, the conversion letter
        for width, conv in re.findall(r"%(\d*)(\D)", fmt):
            if count >= len(dests):
                break
            ptr = self.regs[dests[count]]
            if conv == "s":
                limit = int(width) if width else None
                if count == 0 and cap is not None:      # the write through rsi
                    limit = cap if limit is None else min(limit, cap)
                token = self._read_token(limit)
                if token is None:
                    break
                self.wr_mem(ptr, token + b"\0")
            elif conv == "d":
                token = self._read_token(None)
                if token is None:
                    break
                try:
                    value = int(token)
                except ValueError:
                    break
                self.wr_mem(ptr, (value & 0xFFFFFFFF).to_bytes(4, "little"))
            count += 1
        self.regs["rax"] = count

    def _read_token(self, width: int | None) -> bytes | None:
        self.read_stdin = True
        while self.stdin_pos < len(self.stdin) and self.stdin[self.stdin_pos] in b" \t\n":
            self.stdin_pos += 1
        if self.stdin_pos >= len(self.stdin):
            return None
        out = bytearray()
        while self.stdin_pos < len(self.stdin) and self.stdin[self.stdin_pos] not in b" \t\n":
            if width is not None and len(out) >= width:
                break
            out.append(self.stdin[self.stdin_pos])
            self.stdin_pos += 1
        return bytes(out)

    def _render_format(self, fmt: bytes, arg_regs: list[str]) -> bytes:
        out = bytearray()
        args = list(arg_regs)
        i = 0
        text = fmt.decode("latin-1")
        while i < len(text):
            ch = text[i]
            if ch != "%":
                out.append(ord(ch))
                i += 1
                continue
            i += 1
            if i >= len(text):
                break
            conv = text[i]
            i += 1
            if conv == "%":
                out.append(ord("%"))
                continue
            if not args:
                raise Halt(UNSUPPORTED, "more conversions than argument registers")
            reg = args.pop(0)
            val = self.regs[reg]
            if conv == "s":
                out.extend(self.rd_cstr(val))
            elif conv == "d":
                signed = val - (1 << 64) if val >> 63 else val
                out.extend(str(signed).encode())
            elif conv == "x":
                out.extend(format(val, "x").encode())
            elif conv == "c":
                out.append(val & 0xFF)
            else:
                raise Halt(UNSUPPORTED, f"%{conv} is not supported")
        return bytes(out)


# --- the modelled functions ------------------------------------------------

class LibcSpec(NamedTuple):
    """A function a call may name, run as the modelled function `extent`:
    its handler, run on a machine standing at the call (a safecall also
    passes the cap its bound gives), and the registers
    holding the address it writes through, the string it copies, the
    byte count it writes and the byte it fills with (None when it has none)."""

    name: str
    extent: str
    handler: Callable[..., object]
    dest: str | None
    src: str | None = None
    count: str | None = None
    fill: str | None = None


# the library functions the interpreter models, each under its own name
LIBC = {spec.name: spec for spec in (
    LibcSpec("strcpy", "strcpy", Machine._libc_strcpy, "rdi", "rsi"),
    LibcSpec("strcat", "strcat", Machine._libc_strcat, "rdi", "rsi"),
    LibcSpec("sprintf", "sprintf", Machine._libc_sprintf, "rdi"),
    LibcSpec("gets", "gets", Machine._libc_gets, "rdi"),
    LibcSpec("scanf", "scanf", Machine._libc_scanf, "rsi"),
    LibcSpec("strncpy", "strncpy", Machine._libc_strncpy, "rdi", "rsi", "rdx"),
    LibcSpec("fgets", "fgets", Machine._libc_fgets, "rdi"),
    LibcSpec("snprintf", "snprintf", Machine._libc_snprintf, "rdi"),
    LibcSpec("memset", "memset", Machine._libc_memset, "rdi", count="rdx", fill="rsi"),
    LibcSpec("printf", "printf", Machine._libc_printf, None),
    LibcSpec("puts", "puts", Machine._libc_puts, None))}


# each safecall template's spec: its function's LIBC entry under its own name
_BOUNDED = {t: LIBC[fn]._replace(name=t) for t, fn in SAFECALLS.items()}


def call_spec(callee: Callee, libc: dict[str, LibcSpec]) -> LibcSpec | None:
    """What a call runs: a library call its entry in database `libc` (None if
    not listed), a safecall its template's _BOUNDED entry, a user call None."""
    if callee.kind == LIBRARY:
        return libc.get(callee.name)
    return _BOUNDED[callee.name] if callee.kind == SAFECALL else None


def load_libc_db(path: str | None = None) -> dict[str, LibcSpec]:
    """The bundled library database, or the one at a user `path`: each
    entry {"extent": <a key of LIBC>} runs that function under its name."""
    return load_data("libc.json", _parse_libc_db, path)


def _parse_libc_db(data: str | bytes) -> dict[str, LibcSpec]:
    raw = parse_json(data)
    if not isinstance(raw, dict) or not all(isinstance(e, dict) for e in raw.values()):
        raise MalformedData('expected an object mapping each function to '
                            '{"extent": <modelled function>}')
    db = {}
    for name, e in raw.items():
        extent = e.get("extent")
        if not isinstance(extent, str) or extent not in LIBC:
            raise MalformedData(f"{name}: extent {extent!r} is not one of {', '.join(LIBC)}")
        db[name] = LIBC[extent]._replace(name=name)
    return db


_HANDLERS = {
    "push": Machine._do_push, "pop": Machine._do_pop,
    "mov": Machine._do_mov, "xchg": Machine._do_xchg, "lea": Machine._do_lea,
    "add": Machine._do_arith, "sub": Machine._do_arith,
    "cmp": Machine._do_cmp, "test": Machine._do_test,
    "jmp": Machine._do_jmp, "call": Machine._do_call, "ret": Machine._do_ret,
    "safecall": Machine._do_call,
    **{m: Machine._do_jcc for m in JCC},
    **{m: Machine._do_cmov for m in CMOV},
}

