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
stage makes that decision: the CFG holds only each block's
intra-procedural successor addresses, and the call labels of the state
space carry the record's kind (see memstace.TransitionLabel).

`build_bcfg` makes one pass over the jumps, in listing order. It collects
the dangling-branch warnings and sets `cyclic`: some jump targets its own
address or one below it. A fall-through stays inside its function, whose
addresses strictly increase, and any other jump raises the address, so a
CFG that is not `cyclic` has no cycle and loop detection needs no search.
The blocks, and the maps derived from them, are built on first read: only
a loop search and the patcher's `dest_in_frame` pay for them.

What an instruction writes is one rule, `WRITES` with `write_width`: both
executors write the memory operands it names at its width (`memory_writes`),
and the canary rule and the patcher take the registers it names as
redefined (`register_writes`).

`ProgramImage.frame(fn)` (`FrameFacts`) is one pass over a function body
in listing order, which every stage reads. A canary store is `mov [rbp|rsp
+-d], r` while r holds the canary: after `mov r, fs:0x28` or `mov r, r'`
while r' holds it, or after `xchg r, r'` or `xchg r', r` while r' held it,
until any other instruction writes r (an `xchg` with a memory operand
included). A store through any other base is none.

Operands: registers (``rax`` .. ``r15`` in all widths), immediates
(``0x`` and ASCII hex digits, or ASCII decimal), memory (``[rbp-0x10]``, ``[rax]``, optional
``byte|word|dword|qword`` width prefix), segment reads (``fs:0x28``)
and call/jump targets (``call 0x401030 <strcpy@plt>``). The patcher's
``safecall <template> <0xbound|rt>`` names one of SAFECALLS.

The instructions and the branch and call targets a parse makes are built
through `new_record` (tuple.__new__), past NamedTuple's Python-level
`__new__`; so are the state-space records of memstace.

Operand text is parsed once per listing, through two memos that live for
one `parse_disassembly` call only. Each distinct (mnemonic, operand text)
pair is parsed and arity-checked at its first line, and every later line
with the same pair shares that operand tuple. When a pair is new, each of
its comma-separated operand texts is looked up in the second memo, text ->
`Operand`, so a text is parsed at its first line under any mnemonic and
every later use shares that `Operand`. A text that raises is never
stored, so each malformed line reports its own line number.
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

# the mnemonics whose one operand is a branch or call target
_JUMPS = JCC | {"jmp"}
_TARGETED = _JUMPS | {"call"}

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

# builds a NamedTuple from the tuple of all its fields in C, past its Python-level __new__
new_record = tuple.__new__


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
    text: str                       # raw_text without its address prefix

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


class FrameFacts(NamedTuple):
    """What a function's body says about its frames (see ProgramImage.frame)."""

    canary_stores: frozenset[int]   # the addresses of its canary stores
    whole: bool                     # it stores the canary or leas a frame address
    objects: frozenset[int]         # rbp offsets of the stack objects it addresses
    prologue: bool                  # a push among its first four instructions


# mnemonic -> the positions of the operands it writes (push, call, ret: own rules)
WRITES = {"mov": (0,), "lea": (0,), "add": (0,), "sub": (0,), "pop": (0,),
          "xchg": (0, 1)} | dict.fromkeys(CMOV, (0,))


def write_width(dst: Operand, src: Operand | None) -> int:
    """The bytes a write to `dst` stores, `src` being the other operand (None
    for pop): a memory dst's width keyword, else a register source's, else a
    register dst's, else the source's width, else 8."""
    if dst.kind == MEM and dst.width:
        return dst.width
    if src is not None and src.kind == REG:
        return src.width
    if dst.kind == REG:
        return dst.width
    return src.width or 8 if src is not None else 8


def register_writes(ins: Instruction) -> list[str]:
    """The registers `ins` writes (WRITES), by canonical name."""
    ops = ins.operands
    return [ops[i].reg for i in WRITES.get(ins.mnemonic, ()) if ops[i].kind == REG]


def memory_writes(ins: Instruction) -> list[tuple[Operand, int]]:
    """Each memory operand `ins` writes (WRITES), with its write_width."""
    ops, out = ins.operands, []
    for i in WRITES.get(ins.mnemonic, ()):
        if ops[i].kind == MEM:
            out.append((ops[i], write_width(ops[i], ops[1 - i] if len(ops) == 2 else None)))
    return out


def takes_frame_address(lea: Instruction) -> bool:
    """Whether a `lea` takes an address below the frame base: such a `lea`
    registers a buffer."""
    src = lea.operands[1]
    return src.kind == MEM and src.base == "rbp" and src.disp < 0


class ProgramImage:
    """Parsed instruction stream plus the function headers it came with,
    and the one function table every stage reads: each function's entry,
    body and `FrameFacts`, what each call calls, and each address's owning
    function (`owner`) and the address after it (`next_pc`). Whoever builds
    or extends one calls `index()` once it is complete."""

    __slots__ = ("instructions", "order", "function_headers", "warnings", "next_pc", "code",
                 "forms", "_frames", "_by_entry", "functions", "owner", "_bodies",
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
        # pc -> the pc after it in the listing (None after the last)
        self.next_pc = dict(zip(self.order, self.order[1:] + [None]))
        # pc -> (handler, instruction, next pc), filled by the interpreter at
        # each instruction's first execution; (mnemonic, operands) -> the
        # handler every instruction of that form shares
        self.code: dict = {}
        self.forms: dict = {}
        # function -> its FrameFacts, filled at first use
        self._frames: dict[str, FrameFacts] = {}
        self._by_entry = sorted((a, n) for n, a in self.function_headers.items())
        # every function, the synthetic owner of a header-less prefix
        # included: name -> entry, owner of each address, and bodies
        self.functions: dict[str, int] = {}
        self.owner: dict[int, str] = {}
        self._bodies: dict[str, list[Instruction]] = {}
        headers = dict(self._by_entry)
        name = f"sub_{self.order[0]:x}" if self.order else None
        for addr in self.order:
            name = headers.get(addr, name)
            if name not in self.functions:
                self.functions[name] = addr
                self._bodies[name] = []
            self.owner[addr] = name
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
        owner = self.owner.get(op.value)
        if owner is None:
            return Callee(LIBRARY, name.removesuffix("@plt"))
        return Callee(USER, owner if self.functions[owner] == op.value else name, op.value)

    def next_in_function(self, addr: int) -> int | None:
        """The instruction after addr in the listing, unless that starts
        another function (or there is none)."""
        nxt = self.next_pc[addr]
        return nxt if nxt is not None and self.owner[nxt] == self.owner[addr] else None

    def function_body(self, name: str) -> list[Instruction]:
        return self._bodies[name]

    def frame(self, fn: str) -> FrameFacts:
        """The FrameFacts of function `fn`, from one pass over its body in
        listing order; computed once per image."""
        facts = self._frames.get(fn)
        if facts is not None:
            return facts
        body = self._bodies[fn]
        stores, objects, holds, addressed = set(), set(), set(), False
        for ins in body:
            m, ops = ins.mnemonic, ins.operands
            if not ops:
                continue
            # stack objects: lea'd frame addresses and stores below the frame base
            op = ops[1] if m == "lea" else ops[0]
            if op.kind == MEM and op.base == "rbp" and op.disp < 0:
                objects.add(op.disp)
                addressed = addressed or m == "lea"
            if m == "mov":
                dst, src = ops
                if dst.kind == REG and (src.kind == REG and src.reg in holds or src.kind == MEM
                                        and src.base == "fs" and src.disp == CANARY_FS_OFFSET):
                    holds.add(dst.reg)
                    continue
                if holds and dst.is_frame_relative() and src.kind == REG and src.reg in holds:
                    stores.add(ins.address)
            if not holds:
                continue
            if m == "xchg" and ops[0].kind == REG and ops[1].kind == REG:
                a, b = ops[0].reg, ops[1].reg
                if (a in holds) != (b in holds):    # the canary moves to the other
                    holds.symmetric_difference_update((a, b))
            else:
                holds.difference_update(register_writes(ins))
        facts = self._frames[fn] = FrameFacts(
            frozenset(stores), bool(stores) or addressed, frozenset(objects),
            any(i.mnemonic == "push" for i in body[:4]))
        return facts

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
_LINE_RE = re.compile(r"^([0-9a-f]+):\s+((\S+)(?:\s+(.*))?)$")
_MEM_RE = re.compile(r"^\[([a-z0-9]+)(?:(\+|-)0x([0-9a-f]+))?\]$")
_SEG_RE = re.compile(r"^fs:0x([0-9a-f]+)$")
_CALL_RE = re.compile(r"^0x([0-9a-f]+)(?:\s+<([\w.$@]+)>)?$")
_BOUND_RE = re.compile(r"^(?:0x)?[0-9a-f]+$")
_HEX_RE = re.compile(r"0x[0-9a-fA-F]+")
_DECIMAL_RE = re.compile(r"-?[0-9]+")


def _parse_operand(text: str, lineno: int, raw: str) -> Operand:
    width = None
    parts = text.split(None, 1)
    if len(parts) == 2 and parts[0] in _WIDTH_KEYWORDS:
        width = _WIDTH_KEYWORDS[parts[0]]
        text = parts[1].strip()
    if text in REGISTERS:
        canonical, w = REGISTERS[text]
        return Operand(REG, canonical, None, None, 0, text, w)
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
        return Operand(MEM, None, None, REGISTERS[base][0], disp, None, width)
    m = _SEG_RE.match(text)
    if m:
        return Operand(MEM, None, None, "fs", int(m.group(1), 16), None, width or 8)
    if _HEX_RE.fullmatch(text):
        return Operand(IMM, None, int(text, 16), None, 0, None, width)
    if _DECIMAL_RE.fullmatch(text):
        return Operand(IMM, None, int(text), None, 0, None, width)
    # `0x_1f`, `--5`, or digits outside ASCII
    if text.startswith("0x") or text.lstrip("-").isdigit():
        raise MalformedLine(lineno, raw, f"bad immediate {text!r}")
    raise MalformedLine(lineno, raw, f"unrecognized operand {text!r}")


def _parse_target(text: str, lineno: int, raw: str) -> Operand:
    m = _CALL_RE.match(text.strip())
    if not m:
        raise MalformedLine(lineno, raw, f"bad branch target {text!r}")
    return new_record(Operand, (TARGET, None, int(m.group(1), 16), None, 0, m.group(2), None))


def parse_disassembly(text: str) -> ProgramImage:
    """Parse a listing into a ProgramImage.

    Unknown mnemonics are kept as opaque no-effect instructions with a
    warning; structurally bad lines raise MalformedLine.
    """
    image = ProgramImage()
    instructions, order, headers = image.instructions, image.order, image.function_headers
    # the two memos of this call: (mnemonic, operand text) -> operand
    # tuple, and one operand's text -> its Operand
    parsed: dict[tuple[str, str], tuple[Operand, ...]] = {}
    operands: dict[str, Operand] = {}
    entry_of = None             # the header whose entry the next instruction is
    last_addr_in_function = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[-1] == ":" and (m := _HEADER_RE.match(stripped)):
            name = m.group(1)
            if name in headers:
                raise DuplicateFunction(f"line {lineno}: duplicate function {name!r}")
            entry_of = name
            headers[name] = -1  # set at its first instruction
            last_addr_in_function = -1
            continue
        m = _LINE_RE.match(stripped)
        if not m:
            raise MalformedLine(lineno, stripped, "not a header or instruction line")
        addr_text, ins_text, mnemonic, rest = m.groups("")
        addr = int(addr_text, 16)
        mnemonic = mnemonic.lower()
        if addr in instructions:
            raise MalformedLine(lineno, stripped, f"duplicate address {addr:#x}")
        if addr <= last_addr_in_function:
            raise MalformedLine(lineno, stripped, "addresses must strictly increase")
        last_addr_in_function = addr

        if mnemonic not in KNOWN_MNEMONICS:
            image.warnings.append(
                f"line {lineno}: unknown mnemonic {mnemonic!r} at {addr:#x}, treated as no-effect")
            ops = ()
        else:
            ops = parsed.get((mnemonic, rest))
            if ops is None:
                ops = parsed[mnemonic, rest] = _parse_operands(mnemonic, rest, operands,
                                                               lineno, stripped)
        instructions[addr] = new_record(Instruction, (addr, mnemonic, ops, stripped, ins_text))
        order.append(addr)
        if entry_of is not None:
            headers[entry_of] = addr
            entry_of = None
    image.function_headers = {n: a for n, a in headers.items() if a != -1}
    if image.order and image.order[0] not in image.function_headers.values() \
            and f"sub_{image.order[0]:x}" in image.function_headers:
        raise DuplicateFunction(f"function 'sub_{image.order[0]:x}' names both a header "
                                "and the instructions before the first header")
    image.index()
    return image


def _parse_operands(mnemonic: str, rest: str, memo: dict[str, Operand],
                    lineno: int, raw: str) -> tuple[Operand, ...]:
    """The operand tuple of a known mnemonic, arity-checked, each operand
    taken from `memo` (text -> Operand) or parsed into it; errors name
    `lineno` and `raw`, the line being parsed."""
    if mnemonic in _TARGETED:
        return (_parse_target(rest, lineno, raw),)
    if mnemonic == "safecall":
        return (_parse_safecall(rest, lineno, raw),)
    ops = []
    for text in rest.split(","):     # commas never occur inside our operand forms
        text = text.strip()
        if text:
            op = memo.get(text)
            if op is None:
                op = memo[text] = _parse_operand(text, lineno, raw)
            ops.append(op)
    if len(ops) != _ARITY[mnemonic]:
        raise MalformedLine(lineno, raw, f"{mnemonic} expects {_ARITY[mnemonic]} operand(s), "
                                         f"got {len(ops)}")
    return tuple(ops)


def _parse_safecall(rest: str, lineno: int, raw: str) -> Operand:
    # safecall <template> <0xbound|rt>; emitted by the patcher
    parts = rest.split()
    if len(parts) != 2:
        raise MalformedLine(lineno, raw, "safecall takes template and bound")
    template, bound = parts
    if template not in SAFECALLS:
        raise MalformedLine(lineno, raw, f"unknown safecall template {template!r}")
    if bound == "rt":
        return Operand(IMM, None, None, None, 0, template)
    if not _BOUND_RE.match(bound):
        raise MalformedLine(lineno, raw, f"bad safecall bound {bound!r}")
    return Operand(IMM, None, int(bound, 16), None, 0, template)


# the operand count of each known mnemonic that takes no target
_ARITY = {"endbr64": 0, "nop": 0, "ret": 0, "push": 1, "pop": 1, "mov": 2, "xchg": 2,
          "lea": 2, "sub": 2, "add": 2, "cmp": 2, "test": 2} | dict.fromkeys(CMOV, 2)


# --- CFG -----------------------------------------------------------------

_BLOCK_ENDS = _JUMPS | {"call", "ret", "safecall"}


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
    """The block CFG of an image. `warnings` and `cyclic` come from one pass
    over its jumps (build_bcfg); the blocks and the maps below are built on
    first read, so an analysis that needs no block pays for none."""

    def __init__(self, image: ProgramImage, warnings: list[str], cyclic: bool):
        self.image = image
        self.warnings = warnings
        # some jump targets its own address or one below it; every other
        # edge (a fall-through or a forward jump) raises the address, so
        # when this is False the CFG has no cycle
        self.cyclic = cyclic

    @cached_property
    def blocks(self) -> dict[int, BasicBlock]:
        """Block start -> block, in listing order. A block starts at a
        function entry, a user call's target, a jump target in the image and
        after each jump, call and ret. A call ends its block and continues
        at the next instruction of its function; what it calls is
        `image.callees`'s to say. A branch target outside the image is no
        successor."""
        image = self.image
        instructions, next_pc, owner = image.instructions, image.next_pc, image.owner
        leaders = set(image.functions.values())
        leaders.update(c.target for c in image.callees.values() if c.kind == USER)
        for addr, nxt in next_pc.items():
            ins = instructions[addr]
            m = ins.mnemonic
            if m in _BLOCK_ENDS:
                leaders.add(nxt)
                if m in _JUMPS and ins.operands[0].value in instructions:
                    leaders.add(ins.operands[0].value)

        blocks: dict[int, BasicBlock] = {}
        current: list[Instruction] = []
        for addr in image.order:
            if addr in leaders:
                current = []
                blocks[addr] = BasicBlock(addr, current, [])
            current.append(instructions[addr])

        for blk in blocks.values():
            last = blk.instructions[-1]
            m = last.mnemonic
            if m in _JUMPS:
                tgt = last.operands[0].value
                if tgt in instructions:
                    blk.successors.append(tgt)
                if m == "jmp":
                    continue
            elif m == "ret":
                continue
            # fallthrough never crosses a function boundary
            nxt = next_pc[last.address]
            if nxt is not None and owner[nxt] == owner[last.address]:
                blk.successors.append(nxt)
        return blocks

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
    """The image's CFG, from one pass over its jumps in listing order: a
    jump whose target is outside the image gets a warning, and a jump to its
    own address or below makes the CFG `cyclic`. Its blocks are built when
    first read (BCfg.blocks)."""
    instructions = image.instructions
    warnings: list[str] = []
    cyclic = False
    for addr in image.order:
        ins = instructions[addr]
        if ins.mnemonic in _JUMPS:
            tgt = ins.operands[0].value
            if tgt not in instructions:
                warnings.append(f"dangling branch at {addr:#x} to {tgt:#x}, "
                                "routed to external sink")
            cyclic = cyclic or tgt <= addr
    return BCfg(image, warnings, cyclic)


def entry_point(image: ProgramImage) -> int:
    """Where a whole-program run starts: main, else the lowest function."""
    return image.functions.get("main", min(image.functions.values()))
