"""Instruction compilation for the interpreter: closure generation in the
sense of Feeley and Lapalme, "Using Closures for Code Generation"
(Computer Languages 12(1), 1987), with one handler per operand form in
the manner of Ertl and Gregg, "The Structure and Performance of
Efficient Interpreters" (JILP 5, 2003).

A handler takes the machine, the instruction and the pc after it, and
returns the next pc. Every instruction of one form (mnemonic and
operands) shares one handler, so `compile_form` runs once per form. The
common forms (jumps, add/sub/cmp of a 64-bit register with an
immediate, 64-bit moves between registers, immediates and [r64+disp],
lea, push and pop of a 64-bit register) get a handler specialised over
operands decoded here, once; every other form runs the interpreter's
generic handler, which stays the reference semantics every specialised
handler must match. The jcc that closes a counted single-block loop gets
a closure of its own that also runs, in closed form, the further
iterations whose back edge is taken (`compile_counted_loop`); it must
leave the machine as stepping the generic handlers through those
iterations would.
"""

from __future__ import annotations

from .frontend import IMM, JCC, MEM, R64, REG, Instruction

_M64 = (1 << 64) - 1

# condition code -> predicate over the flags, for jcc and cmovcc
CONDITIONS = {
    "e": lambda f: f["zf"], "z": lambda f: f["zf"],
    "ne": lambda f: not f["zf"], "nz": lambda f: not f["zf"],
    "l": lambda f: f["sf"] != f["of"], "ge": lambda f: f["sf"] == f["of"],
    "le": lambda f: f["zf"] or f["sf"] != f["of"],
    "g": lambda f: not f["zf"] and f["sf"] == f["of"],
    "b": lambda f: f["cf"], "ae": lambda f: not f["cf"],
    "be": lambda f: f["cf"] or f["zf"], "a": lambda f: not f["cf"] and not f["zf"],
    "s": lambda f: f["sf"], "ns": lambda f: not f["sf"],
}


def compile_form(ins: Instruction, handler):
    """The handler (machine, ins, nxt) -> next pc of every instruction of
    ins's form, with the semantics of `handler`, the form's generic handler
    (None for an instruction that does nothing): specialised over
    pre-decoded operands for the common forms, otherwise `handler` itself."""
    fast = _compile_fast(ins, handler)
    if fast is not None:
        return fast
    return no_op if handler is None else handler


def no_op(machine, ins, nxt):
    """nop, endbr64 and unknown mnemonics (parsed as opaque) do nothing."""
    return nxt


def _r64(op) -> bool:
    return op.kind == REG and op.width == 8


def _based(op) -> bool:
    return op.kind == MEM and op.base in R64


def _compile_fast(ins: Instruction, handler):
    """The specialised handler for a jump or a common 64-bit form, or None.
    Forms that touch canaries (a canary register stored to memory defers to
    the generic handler at run time), partial widths and non-R64 bases are
    left to the generic handler."""
    m, ops = ins.mnemonic, ins.operands
    if m == "jmp":
        tgt = ins.target()

        def jump(machine, ins, nxt):
            return tgt
        return jump
    if m in JCC:
        tgt, cond = ins.target(), CONDITIONS[m[1:]]

        def branch(machine, ins, nxt):
            return tgt if cond(machine.flags) else nxt
        return branch
    if m in ("add", "sub", "cmp") and _r64(ops[0]) and ops[1].kind == IMM:
        return _arith_r64_imm(m, ops[0].reg, ops[1].value & _M64)
    if m == "mov":
        dst, src = ops
        if _based(dst) and src.kind == IMM and dst.width:
            base, disp = dst.base, dst.disp
            data = (src.value & ((1 << (dst.width * 8)) - 1)).to_bytes(dst.width, "little")

            def mov_mem_imm(machine, ins, nxt):
                machine.wr_mem((machine.regs[base] & _M64) + disp, data)
                return nxt
            return mov_mem_imm
        if _r64(dst) and src.kind == IMM:
            reg, value = dst.reg, src.value & _M64

            def mov_reg_imm(machine, ins, nxt):
                machine.regs[reg] = value
                machine.canary_regs.discard(reg)
                return nxt
            return mov_reg_imm
        if _r64(dst) and _r64(src):
            reg, sreg = dst.reg, src.reg

            def mov_reg_reg(machine, ins, nxt):
                machine.regs[reg] = machine.regs[sreg] & _M64
                if sreg in machine.canary_regs:
                    machine.canary_regs.add(reg)
                else:
                    machine.canary_regs.discard(reg)
                return nxt
            return mov_reg_reg
        if _r64(dst) and _based(src):
            reg, base, disp = dst.reg, src.base, src.disp

            def mov_reg_mem(machine, ins, nxt):
                addr = (machine.regs[base] & _M64) + disp
                machine.regs[reg] = int.from_bytes(machine.rd_mem(addr, 8), "little")
                machine.canary_regs.discard(reg)
                return nxt
            return mov_reg_mem
        if _based(dst) and dst.width in (None, 8) and _r64(src):
            base, disp, sreg = dst.base, dst.disp, src.reg

            def mov_mem_reg(machine, ins, nxt):
                if sreg in machine.canary_regs:     # records the frame's canary slot
                    return handler(machine, ins, nxt)
                machine.wr_mem((machine.regs[base] & _M64) + disp,
                               (machine.regs[sreg] & _M64).to_bytes(8, "little"))
                return nxt
            return mov_mem_reg
        return None
    if m == "lea" and _r64(ops[0]) and _based(ops[1]):
        reg, base, disp = ops[0].reg, ops[1].base, ops[1].disp

        def lea(machine, ins, nxt):
            machine.regs[reg] = ((machine.regs[base] & _M64) + disp) & _M64
            machine.canary_regs.discard(reg)
            return nxt
        return lea
    # push rbp may record the frame's saved base register: generic
    if m == "push" and _r64(ops[0]) and ops[0].reg != "rbp":
        reg = ops[0].reg

        def push(machine, ins, nxt):
            regs = machine.regs
            value = regs[reg] & _M64
            sp = regs["rsp"] = regs["rsp"] - 8
            machine.wr_mem(sp, value.to_bytes(8, "little"))
            return nxt
        return push
    if m == "pop" and _r64(ops[0]):
        reg = ops[0].reg

        def pop(machine, ins, nxt):
            regs = machine.regs
            sp = regs["rsp"]
            value = int.from_bytes(machine.rd_mem(sp, 8), "little")
            regs["rsp"] = sp + 8
            regs[reg] = value
            machine.canary_regs.discard(reg)
            return nxt
        return pop
    return None


def compile_counted_loop(image, ins: Instruction, lo: int, hi: int):
    """The handler of the jcc `ins` when it closes a counted single-block
    loop, or None: a closure of its own, since it closes over the body.

    The body runs from the jcc's (lower) target to the jcc in listing order
    and holds only stores of an immediate through [r64+disp] with a width,
    add or sub of a 64-bit register other than rsp with an immediate, and
    one cmp r64, imm directly before the jcc. When the back edge is taken,
    the closure also runs, in closed form, the m further iterations whose
    back edge is taken too (after Saxena et al., "Loop-Extended Symbolic
    Execution on Binary Programs", ISSTA 2009): their stores as one write,
    m times each register's stride, the flags of the last cmp and m times
    the body length in steps. The exiting iteration runs through the
    ordinary handlers. A skip never crosses the step budget, runs no store
    outside the stack [lo, hi), passes no pc in `machine.stops` nor the
    exit of the loop a fork emulates (`machine.loop_exit`), and takes no
    more back edges to that loop's entry (`machine.loop_entry`) than its
    iteration budget has left (`machine.loop_left`, which it lowers), so
    the machine is always the one stepping reaches."""
    pc, target = ins.address, ins.target()
    if target not in image.instructions or not target < pc:
        return None
    pcs, stores, strides, cmp = [], [], {}, None
    at = target
    while at != pc:
        if at is None or cmp is not None:      # the cmp must come last
            return None
        mn, ops = image.instructions[at].mnemonic, image.instructions[at].operands
        if mn == "mov" and _based(ops[0]) and ops[1].kind == IMM and ops[0].width:
            dst, width = ops[0], ops[0].width
            data = (ops[1].value & ((1 << (width * 8)) - 1)).to_bytes(width, "little")
            # base, disp, the bytes, and the base's increment before the store
            stores.append((dst.base, dst.disp, data, strides.get(dst.base, 0)))
        elif mn in ("add", "sub") and _r64(ops[0]) and ops[0].reg != "rsp" \
                and ops[1].kind == IMM:
            b = ops[1].value if mn == "add" else -ops[1].value
            strides[ops[0].reg] = (strides.get(ops[0].reg, 0) + b) & _M64
        elif mn == "cmp" and _r64(ops[0]) and ops[1].kind == IMM:
            cmp = (ops[0].reg, ops[1].value & _M64)
        else:
            return None
        pcs.append(at)
        at = image.next_address(at)
    if cmp is None:
        return None
    body = frozenset(pcs + [pc])
    length = len(body)
    creg, imm = cmp
    cstride = strides.get(creg, 0)
    cond, ne = CONDITIONS[ins.mnemonic[1:]], ins.mnemonic == "jne"

    def taken(x):
        return cond(_cmp_flags(x, imm))

    def back_edge(machine, ins, nxt):
        if not cond(machine.flags):
            return nxt
        if not body.isdisjoint(machine.stops) or machine.loop_exit in body:
            return target
        cap = (machine.cfg.step_budget - machine.steps) // length
        if machine.loop_entry in body:
            if machine.loop_entry != target:
                return target
            cap = min(cap, machine.loop_left - 1)
        regs = machine.regs
        for base, disp, data, pre in stores:
            cap = _stores_inside((regs[base] + pre) & _M64, strides.get(base, 0),
                                 disp, len(data), lo, hi, cap)
        if cap <= 0:
            return target
        x0 = (regs[creg] + cstride) & _M64
        skip = _trips(taken, ne, x0, cstride, imm, cap)
        if skip == 0:
            return target
        if stores:
            _store_iterations(machine, stores, strides, skip)
        for reg, stride in strides.items():
            regs[reg] = (regs[reg] + skip * stride) & _M64
            machine.canary_regs.discard(reg)
        machine.flags.update(_cmp_flags((x0 + (skip - 1) * cstride) & _M64, imm))
        machine.steps += skip * length
        if machine.loop_entry == target:
            machine.loop_left -= skip
        return target
    return back_edge


def _signed(v: int) -> int:
    return v - (1 << 64) if v >> 63 else v


def _cmp_flags(a: int, b: int) -> dict[str, bool]:
    """The flags cmp of a 64-bit a with b leaves."""
    r = (a - b) & _M64
    sa, sr = a >> 63, r >> 63
    return {"zf": r == 0, "sf": bool(sr), "cf": a < b, "of": (sa != b >> 63) and (sr != sa)}


def _trips(taken, ne: bool, x0: int, stride: int, imm: int, cap: int) -> int:
    """How many iterations i = 0, 1, ... below cap take the back edge before
    the first that does not, when iteration i compares x0 + i * stride
    (mod 2^64) with imm. For jne that first i solves i * stride = imm - x0
    (mod 2^64); other conditions are scanned."""
    if stride == 0:
        return cap if taken(x0) else 0
    if ne:
        d = (imm - x0) & _M64
        low = stride & -stride          # the largest power of two dividing stride
        if d % low:
            return cap                  # the register never meets imm
        mod = (1 << 64) // low
        return min(cap, d // low * pow(stride // low, -1, mod) % mod)
    i = 0
    while i < cap and taken((x0 + i * stride) & _M64):
        i += 1
    return i


def _stores_inside(u0: int, stride: int, disp: int, width: int, lo: int, hi: int,
                   cap: int) -> int:
    """How many iterations i below cap store `width` bytes at reg + disp
    inside [lo, hi) before the first that does not, reg being u0 + i *
    stride (mod 2^64) in iteration i."""
    rlo, rhi = max(lo - disp, 0), min(hi - width - disp, _M64)
    if not rlo <= u0 <= rhi:
        return 0
    s = _signed(stride)
    if s > 0:
        return min(cap, (rhi - u0) // s + 1)
    if s < 0:
        return min(cap, (u0 - rlo) // -s + 1)
    return cap


def _store_iterations(machine, stores, strides: dict[str, int], m: int) -> None:
    """Run the stores of m iterations, in order, as one write: the bytes
    between them keep their values."""
    runs = [(((machine.regs[base] + pre) & _M64) + disp, _signed(strides.get(base, 0)), data)
            for base, disp, data, pre in stores]
    if len(runs) == 1 and abs(runs[0][1]) == len(runs[0][2]):
        a, s, data = runs[0]        # a fill: adjacent copies of one store
        machine.wr_mem(min(a, a + (m - 1) * s), data * m)
        return
    start = min(min(a, a + (m - 1) * s) for a, s, _ in runs)
    end = max(max(a, a + (m - 1) * s) + len(data) for a, s, data in runs)
    buf = bytearray(machine.rd_mem(start, end - start))
    for i in range(m):
        for a, s, data in runs:
            off = a + i * s - start
            buf[off:off + len(data)] = data
    machine.wr_mem(start, bytes(buf))


def _arith_r64_imm(m: str, reg: str, b: int):
    """add, sub or cmp of a 64-bit register with a (masked) immediate."""
    sb = b >> 63
    write = m != "cmp"
    if m == "add":
        def arith(machine, ins, nxt):
            a = machine.regs[reg] & _M64
            res = a + b
            r = res & _M64
            sa, sr = a >> 63, r >> 63
            flags = machine.flags
            flags["zf"] = r == 0
            flags["sf"] = bool(sr)
            flags["cf"] = res > _M64
            flags["of"] = (sa == sb) and (sr != sa)
            machine.regs[reg] = r
            machine.canary_regs.discard(reg)
            return nxt
        return arith

    def arith_sub(machine, ins, nxt):
        a = machine.regs[reg] & _M64
        r = (a - b) & _M64
        sa, sr = a >> 63, r >> 63
        flags = machine.flags
        flags["zf"] = r == 0
        flags["sf"] = bool(sr)
        flags["cf"] = a < b
        flags["of"] = (sa != sb) and (sr != sa)
        if write:
            machine.regs[reg] = r
            machine.canary_regs.discard(reg)
        return nxt
    return arith_sub
