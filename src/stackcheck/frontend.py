"""Disassembly ingestion: parse objdump-style listings into a program image
that owns the function table, and rebuild the CFG.

Input grammar (Intel syntax, one instruction per line):

    <name>:                      function header
    <hexaddr>: <mnemonic> [ops]  instruction, operands comma-separated
    # ...                        comment, ignored

Every instruction belongs to the function whose header precedes it.
Instructions before the first header (all of a header-less listing) form
the function ``sub_<address of the first one>``, which is not a header
line and so is never emitted. `ProgramImage.index()` also decides, once,
what each call and safecall calls (`callees`): a user call (its target is
in the image), a library call or a safecall, with the name its transition
label carries and, for a user call, the address it jumps to. No other
stage makes that decision: the CFG (`build_bcfg`) holds only each block's
intra-procedural successor addresses, and the call labels of the state
space carry the record's kind (see memstace.TransitionLabel).

Operands: registers (``rax`` .. ``r15`` in all widths), immediates
(``0x2a`` or decimal), memory (``[rbp-0x10]``, ``[rax]``, optional
``byte|word|dword|qword`` width prefix), segment reads (``fs:0x28``)
and call/jump targets (``call 0x401030 <strcpy@plt>``). The patcher's
``safecall <template> <0xbound|rt>`` names one of SAFECALLS.

Operand text is parsed once per listing: each distinct (mnemonic,
operand text) pair is parsed and arity-checked at its first line, and
every later line with the same pair shares that operand tuple. The memo
lives for one `parse_disassembly` call only, and a text that raises is
never stored, so each malformed line reports its own line number.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import NamedTuple


class MalformedLine(Exception):
    """Fatal parse error; carries the 1-based line number."""

    def __init__(self, lineno: int, text: str, why: str):
        self.lineno = lineno
        self.text = text
        super().__init__(f"line {lineno}: {why}: {text!r}")


class DuplicateFunction(Exception):
    pass


KNOWN_MNEMONICS = {
    "endbr64", "push", "pop", "mov", "xchg", "lea", "sub", "add",
    "cmp", "test", "call", "ret", "jmp", "nop", "safecall",
}
JCC = {"je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae", "js", "jns"}
CMOV = {"cmove", "cmovne", "cmovl", "cmovle", "cmovg", "cmovge", "cmovz", "cmovnz"}
KNOWN_MNEMONICS |= JCC | CMOV

# the bounded replacements a `safecall` line may name and a patch template
# may choose, each the modelled function (a key of interp.LIBC) it runs
# with its write capped by the bound
SAFECALLS = {"bounded_copy": "strcpy", "bounded_append": "strcat",
             "bounded_format": "sprintf", "bounded_readline": "gets",
             "bounded_scan": "scanf"}

# the stack canary is read from this offset in the fs segment
CANARY_FS_OFFSET = 0x28

R64 = ["rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp"] + [f"r{i}" for i in range(8, 16)]
# register name -> (canonical 64-bit name, width in bytes)
REGISTERS: dict[str, tuple[str, int]] = {}
for _r64, _r32, _r16, _r8 in [
        ("rax", "eax", "ax", "al"), ("rbx", "ebx", "bx", "bl"), ("rcx", "ecx", "cx", "cl"),
        ("rdx", "edx", "dx", "dl"), ("rsi", "esi", "si", "sil"), ("rdi", "edi", "di", "dil"),
        ("rbp", "ebp", "bp", "bpl"), ("rsp", "esp", "sp", "spl")] + [
        (f"r{i}", f"r{i}d", f"r{i}w", f"r{i}b") for i in range(8, 16)]:
    REGISTERS.update({_r64: (_r64, 8), _r32: (_r64, 4), _r16: (_r64, 2), _r8: (_r64, 1)})

_WIDTH_KEYWORDS = {"byte": 1, "word": 2, "dword": 4, "qword": 8}

REG = "register"
IMM = "immediate"
MEM = "memory"
TARGET = "call-target"


class Operand(NamedTuple):
    kind: str
    reg: str | None = None          # canonical 64-bit name for register operands
    value: int | None = None        # immediates and branch/call targets
    base: str | None = None         # memory base register (or "fs" for segment reads)
    disp: int = 0
    symbol: str | None = None       # call-target symbol, e.g. strcpy@plt
    width: int | None = None        # operand width in bytes, where known

    def is_frame_relative(self) -> bool:
        return self.kind == MEM and self.base in ("rbp", "rsp")


class Instruction(NamedTuple):
    address: int
    mnemonic: str
    operands: tuple[Operand, ...]
    raw_text: str

    @property
    def text(self) -> str:
        """The instruction without its address prefix."""
        _, _, rest = self.raw_text.partition(":")
        return rest.strip() if rest else self.raw_text

    @property
    def is_jump(self) -> bool:
        return self.mnemonic == "jmp" or self.mnemonic in JCC

    # a branch or call has one operand, its target
    def target(self) -> int | None:
        return self.operands[0].value if self.operands and self.operands[0].kind == TARGET else None

    def target_symbol(self) -> str | None:
        return self.operands[0].symbol if self.operands and self.operands[0].kind == TARGET else None


USER, LIBRARY, SAFECALL = "user", "library", "safecall"


class Callee(NamedTuple):
    """What a call or safecall calls, decided once per image."""

    kind: str                   # USER, LIBRARY or SAFECALL
    name: str                   # the name its transition label carries
    target: int | None = None   # where a user call jumps


class ProgramImage:
    """Parsed instruction stream plus the function headers it came with,
    and the one function table every stage reads. Whoever builds or
    extends one calls `index()` once it is complete."""

    __slots__ = ("instructions", "order", "function_headers", "warnings", "_next", "code",
                 "forms", "frame_facts", "_by_entry", "functions", "_owner", "_bodies",
                 "callees")

    def __init__(self, instructions: dict[int, Instruction] | None = None,
                 order: list[int] | None = None,
                 function_headers: dict[str, int] | None = None,
                 warnings: list[str] | None = None):
        self.instructions = {} if instructions is None else instructions
        self.order = [] if order is None else order
        # name -> entry address
        self.function_headers = {} if function_headers is None else function_headers
        self.warnings = [] if warnings is None else warnings

    def index(self) -> None:
        self._next = dict(zip(self.order, self.order[1:] + [None]))
        # pc -> (handler, instruction, next pc), filled by the interpreter at
        # each instruction's first execution; (mnemonic, operands) -> the
        # handler every instruction of that form shares
        self.code: dict = {}
        self.forms: dict = {}
        # function -> (its canary stores, whether the state space keeps its
        # frames whole), filled by the state-space builder at first use
        self.frame_facts: dict = {}
        self._by_entry = sorted((a, n) for n, a in self.function_headers.items())
        # every function, the synthetic owner of a header-less prefix
        # included: name -> entry, owner of each address, and bodies
        self.functions: dict[str, int] = {}
        self._owner: dict[int, str] = {}
        self._bodies: dict[str, list[Instruction]] = {}
        headers = dict(self._by_entry)
        name = f"sub_{self.order[0]:x}" if self.order else None
        for addr in self.order:
            name = headers.get(addr, name)
            if name not in self.functions:
                self.functions[name] = addr
                self._bodies[name] = []
            self._owner[addr] = name
            self._bodies[name].append(self.instructions[addr])
        # call site -> what it calls, in listing order
        self.callees = {a: self._callee(self.instructions[a]) for a in self.order
                        if self.instructions[a].mnemonic in ("call", "safecall")}

    def _callee(self, ins: Instruction) -> Callee:
        """A call into the image is a user call, named after the function
        whose entry it targets, else after its symbol or sub_<target>; any
        other call is a library call, named the same way without @plt."""
        op = ins.operands[0]
        if ins.mnemonic == "safecall":
            return Callee(SAFECALL, op.symbol)
        name = op.symbol or f"sub_{op.value:x}"
        owner = self._owner.get(op.value)
        if owner is None:
            return Callee(LIBRARY, name.removesuffix("@plt"))
        return Callee(USER, owner if self.functions[owner] == op.value else name, op.value)

    def next_address(self, addr: int) -> int | None:
        return self._next[addr]

    def next_in_function(self, addr: int) -> int | None:
        """The instruction after addr in the listing, unless that starts
        another function (or there is none)."""
        nxt = self._next[addr]
        return nxt if nxt is not None and self._owner[nxt] == self._owner[addr] else None

    def function_of(self, addr: int) -> str:
        """Name of the function whose listing contains addr."""
        return self._owner[addr]

    def function_body(self, name: str) -> list[Instruction]:
        return self._bodies[name]

    def emit(self) -> str:
        """Serialize back to the input grammar (round-trips raw_text)."""
        lines = []
        headers = dict(self._by_entry)
        for addr in self.order:
            if addr in headers:
                lines.append(f"{headers[addr]}:")
            lines.append(self.instructions[addr].raw_text)
        return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"^([A-Za-z_.$][\w.$@]*):$")
_LINE_RE = re.compile(r"^([0-9a-f]+):\s+(\S+)(?:\s+(.*))?$")
_MEM_RE = re.compile(r"^\[([a-z0-9]+)(?:(\+|-)0x([0-9a-f]+))?\]$")
_SEG_RE = re.compile(r"^fs:0x([0-9a-f]+)$")
_CALL_RE = re.compile(r"^0x([0-9a-f]+)(?:\s+<([\w.$@]+)>)?$")
_BOUND_RE = re.compile(r"^(?:0x)?[0-9a-f]+$")


def _parse_operand(text: str, lineno: int, raw: str) -> Operand:
    text = text.strip()
    width = None
    parts = text.split(None, 1)
    if len(parts) == 2 and parts[0] in _WIDTH_KEYWORDS:
        width = _WIDTH_KEYWORDS[parts[0]]
        text = parts[1].strip()
    if text in REGISTERS:
        canonical, w = REGISTERS[text]
        return Operand(kind=REG, reg=canonical, width=w, symbol=text)
    m = _MEM_RE.match(text)
    if m:
        base = m.group(1)
        if base not in REGISTERS:
            raise MalformedLine(lineno, raw, f"unknown base register {base!r}")
        disp = 0
        if m.group(2):
            disp = int(m.group(3), 16)
            if m.group(2) == "-":
                disp = -disp
        return Operand(kind=MEM, base=REGISTERS[base][0], disp=disp, width=width)
    m = _SEG_RE.match(text)
    if m:
        return Operand(kind=MEM, base="fs", disp=int(m.group(1), 16), width=width or 8)
    if text.startswith("0x"):
        try:
            return Operand(kind=IMM, value=int(text, 16), width=width)
        except ValueError:
            raise MalformedLine(lineno, raw, f"bad immediate {text!r}")
    if text.lstrip("-").isdigit():
        return Operand(kind=IMM, value=int(text), width=width)
    raise MalformedLine(lineno, raw, f"unrecognized operand {text!r}")


def _parse_target(text: str, lineno: int, raw: str) -> Operand:
    m = _CALL_RE.match(text.strip())
    if not m:
        raise MalformedLine(lineno, raw, f"bad branch target {text!r}")
    return Operand(kind=TARGET, value=int(m.group(1), 16), symbol=m.group(2))


def parse_disassembly(text: str) -> ProgramImage:
    """Parse a listing into a ProgramImage.

    Unknown mnemonics are kept as opaque no-effect instructions with a
    warning; structurally bad lines raise MalformedLine.
    """
    image = ProgramImage()
    parsed: dict[tuple[str, str], tuple[Operand, ...]] = {}    # (mnemonic, text) -> operands
    current_function = None
    last_addr_in_function = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _HEADER_RE.match(stripped) if stripped[-1] == ":" else None
        if m:
            name = m.group(1)
            if name in image.function_headers:
                raise DuplicateFunction(f"line {lineno}: duplicate function {name!r}")
            current_function = name
            image.function_headers[name] = -1  # patched on first instruction
            last_addr_in_function = -1
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise MalformedLine(lineno, stripped, "not a header or instruction line")
        addr_text, mnemonic, rest = m.groups("")
        addr = int(addr_text, 16)
        mnemonic = mnemonic.lower()
        if addr in image.instructions:
            raise MalformedLine(lineno, stripped, f"duplicate address {addr:#x}")
        if last_addr_in_function >= 0 and addr <= last_addr_in_function:
            raise MalformedLine(lineno, stripped, "addresses must strictly increase")
        last_addr_in_function = addr

        if mnemonic not in KNOWN_MNEMONICS:
            image.warnings.append(
                f"line {lineno}: unknown mnemonic {mnemonic!r} at {addr:#x}, treated as no-effect")
            ops = ()
        else:
            ops = parsed.get((mnemonic, rest))
            if ops is None:
                ops = parsed[mnemonic, rest] = _parse_operands(mnemonic, rest, lineno, stripped)
        image.instructions[addr] = Instruction(addr, mnemonic, ops, stripped)
        image.order.append(addr)
        if current_function is not None and image.function_headers[current_function] == -1:
            image.function_headers[current_function] = addr
    image.function_headers = {n: a for n, a in image.function_headers.items() if a != -1}
    if image.order and image.order[0] not in image.function_headers.values() \
            and f"sub_{image.order[0]:x}" in image.function_headers:
        raise DuplicateFunction(f"function 'sub_{image.order[0]:x}' names both a header "
                                "and the instructions before the first header")
    image.index()
    return image


def _parse_operands(mnemonic: str, rest: str, lineno: int, raw: str) -> tuple[Operand, ...]:
    """The operand tuple of a known mnemonic, arity-checked; errors name
    `lineno` and `raw`, the line being parsed."""
    if mnemonic in ("call", "jmp") or mnemonic in JCC:
        return (_parse_target(rest, lineno, raw),)
    if mnemonic == "safecall":
        return (_parse_safecall(rest, lineno, raw),)
    ops = tuple(_parse_operand(p, lineno, raw) for p in _split_operands(rest)) if rest else ()
    _check_arity(mnemonic, ops, lineno, raw)
    return ops


def _parse_safecall(rest: str, lineno: int, raw: str) -> Operand:
    # safecall <template> <0xbound|rt>; emitted by the patcher
    parts = rest.split()
    if len(parts) != 2:
        raise MalformedLine(lineno, raw, "safecall takes template and bound")
    template, bound = parts
    if template not in SAFECALLS:
        raise MalformedLine(lineno, raw, f"unknown safecall template {template!r}")
    if bound == "rt":
        return Operand(kind=IMM, value=None, symbol=template)
    if not _BOUND_RE.match(bound):
        raise MalformedLine(lineno, raw, f"bad safecall bound {bound!r}")
    return Operand(kind=IMM, value=int(bound, 16), symbol=template)


def _split_operands(rest: str) -> list[str]:
    # commas never occur inside our operand forms
    return [p for p in (s.strip() for s in rest.split(",")) if p]


_ARITY = {
    "endbr64": (0,), "nop": (0,), "ret": (0,),
    "push": (1,), "pop": (1,),
    "mov": (2,), "xchg": (2,), "lea": (2,), "sub": (2,), "add": (2,),
    "cmp": (2,), "test": (2,),
}


def _check_arity(mnemonic: str, ops: tuple, lineno: int, raw: str) -> None:
    allowed = _ARITY.get(mnemonic)
    if mnemonic in CMOV:
        allowed = (2,)
    if allowed is not None and len(ops) not in allowed:
        raise MalformedLine(lineno, raw, f"{mnemonic} expects {allowed[0]} operand(s), got {len(ops)}")


# --- CFG -----------------------------------------------------------------

class BasicBlock(NamedTuple):
    start: int
    instructions: list[Instruction]
    # intra-procedural successors: a branch target in the image, then the
    # next instruction of the function, which a call returns to
    successors: list[int]

    @property
    def end(self) -> int:
        return self.instructions[-1].address


class BCfg:
    def __init__(self, blocks: dict[int, BasicBlock]):
        self.blocks = blocks
        self.warnings: list[str] = []

    # the maps below are built on first use, after build_bcfg has wired every edge

    @cached_property
    def _block_at(self) -> dict[int, BasicBlock]:
        return {i.address: blk for blk in self.blocks.values() for i in blk.instructions}

    def block_containing(self, addr: int) -> BasicBlock | None:
        return self._block_at.get(addr)

    @cached_property
    def predecessors(self) -> dict[int, list[int]]:
        """Block start -> starts of the blocks it succeeds."""
        preds: dict[int, list[int]] = {}
        for blk in self.blocks.values():
            for tgt in blk.successors:
                preds.setdefault(tgt, []).append(blk.start)
        return preds


def build_bcfg(image: ProgramImage) -> BCfg:
    """Split the instruction stream into basic blocks and wire each block's
    successors. A call ends its block and continues at the next instruction
    of its function; what it calls is `image.callees`'s to say. A branch
    target outside the image is no successor and gets a warning.
    """
    if not image.order:
        return BCfg(blocks={})
    addrs = image.instructions

    leaders = set(image.functions.values())
    leaders.update(c.target for c in image.callees.values() if c.kind == USER)
    for addr in image.order:
        ins = image.instructions[addr]
        nxt = image.next_address(addr)
        if ins.is_jump:
            tgt = ins.target()
            if tgt in addrs:
                leaders.add(tgt)
            if nxt is not None:
                leaders.add(nxt)
        elif ins.mnemonic in ("call", "ret", "safecall") and nxt is not None:
            leaders.add(nxt)

    blocks: dict[int, BasicBlock] = {}
    current: list[Instruction] = []
    for addr in image.order:
        if addr in leaders and current:
            blocks[current[0].address] = BasicBlock(current[0].address, current, [])
            current = []
        current.append(image.instructions[addr])
    if current:
        blocks[current[0].address] = BasicBlock(current[0].address, current, [])

    cfg = BCfg(blocks=blocks)
    for blk in blocks.values():
        last = blk.instructions[-1]
        if last.is_jump:
            tgt = last.target()
            if tgt in addrs:
                blk.successors.append(tgt)
            else:
                cfg.warnings.append(f"dangling branch at {last.address:#x} to {tgt:#x}, "
                                    "routed to external sink")
        # fallthrough never crosses a function boundary
        nxt_in_fn = image.next_in_function(last.address)
        if nxt_in_fn is not None and last.mnemonic not in ("jmp", "ret"):
            blk.successors.append(nxt_in_fn)
    return cfg


def entry_point(image: ProgramImage) -> int:
    """Where a whole-program run starts: main, else the lowest function."""
    return image.functions.get("main", min(image.functions.values()))
