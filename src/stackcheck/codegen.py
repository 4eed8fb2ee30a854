"""Instruction compilation for the interpreter: closure generation in the
sense of Feeley and Lapalme, "Using Closures for Code Generation"
(Computer Languages 12(1), 1987).

An instruction becomes a closure that takes the machine and returns the
next pc. The common forms (jumps, add/sub/cmp of a 64-bit register with an
immediate, 64-bit moves between registers, immediates and [r64+disp], lea,
push and pop of a 64-bit register) are specialised over operands decoded
here, once; every other form calls the interpreter's generic handler,
which stays the reference semantics every closure must match.
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


def compile_instruction(ins: Instruction, nxt: int | None, handler):
    """A closure machine -> next pc with the semantics of `handler`, the
    instruction's generic handler (None for an instruction that does
    nothing): specialised over pre-decoded operands for the common forms,
    otherwise bound to the handler."""
    fast = _compile_fast(ins, nxt, handler)
    if fast is not None:
        return fast
    if handler is None:
        # nop, endbr64 and unknown mnemonics (parsed as opaque) do nothing
        def no_op(machine):
            return nxt
        return no_op

    def generic(machine):
        return handler(machine, ins, nxt)
    return generic


def _r64(op) -> bool:
    return op.kind == REG and op.width == 8


def _based(op) -> bool:
    return op.kind == MEM and op.base in R64


def _compile_fast(ins: Instruction, nxt: int | None, handler):
    """The specialised closure for a jump or a common 64-bit form, or None.
    Forms that touch canaries (a canary register stored to memory defers to
    the generic handler at run time), partial widths and non-R64 bases are
    left to the generic handler."""
    m, ops = ins.mnemonic, ins.operands
    if m == "jmp":
        tgt = ins.target()

        def jump(machine):
            return tgt
        return jump
    if m in JCC:
        tgt, cond = ins.target(), CONDITIONS[m[1:]]

        def branch(machine):
            return tgt if cond(machine.flags) else nxt
        return branch
    if m in ("add", "sub", "cmp") and _r64(ops[0]) and ops[1].kind == IMM:
        return _arith_r64_imm(m, ops[0].reg, ops[1].value & _M64, nxt)
    if m == "mov":
        dst, src = ops
        if _based(dst) and src.kind == IMM and dst.width:
            base, disp = dst.base, dst.disp
            data = (src.value & ((1 << (dst.width * 8)) - 1)).to_bytes(dst.width, "little")

            def mov_mem_imm(machine):
                machine.wr_mem((machine.regs[base] & _M64) + disp, data)
                return nxt
            return mov_mem_imm
        if _r64(dst) and src.kind == IMM:
            reg, value = dst.reg, src.value & _M64

            def mov_reg_imm(machine):
                machine.regs[reg] = value
                machine.canary_regs.discard(reg)
                return nxt
            return mov_reg_imm
        if _r64(dst) and _r64(src):
            reg, sreg = dst.reg, src.reg

            def mov_reg_reg(machine):
                machine.regs[reg] = machine.regs[sreg] & _M64
                if sreg in machine.canary_regs:
                    machine.canary_regs.add(reg)
                else:
                    machine.canary_regs.discard(reg)
                return nxt
            return mov_reg_reg
        if _r64(dst) and _based(src):
            reg, base, disp = dst.reg, src.base, src.disp

            def mov_reg_mem(machine):
                addr = (machine.regs[base] & _M64) + disp
                machine.regs[reg] = int.from_bytes(machine.rd_mem(addr, 8), "little")
                machine.canary_regs.discard(reg)
                return nxt
            return mov_reg_mem
        if _based(dst) and dst.width in (None, 8) and _r64(src):
            base, disp, sreg = dst.base, dst.disp, src.reg

            def mov_mem_reg(machine):
                if sreg in machine.canary_regs:     # records the frame's canary slot
                    return handler(machine, ins, nxt)
                machine.wr_mem((machine.regs[base] & _M64) + disp,
                               (machine.regs[sreg] & _M64).to_bytes(8, "little"))
                return nxt
            return mov_mem_reg
        return None
    if m == "lea" and _r64(ops[0]) and _based(ops[1]):
        reg, base, disp = ops[0].reg, ops[1].base, ops[1].disp

        def lea(machine):
            machine.regs[reg] = ((machine.regs[base] & _M64) + disp) & _M64
            machine.canary_regs.discard(reg)
            return nxt
        return lea
    # push rbp may record the frame's saved base register: generic
    if m == "push" and _r64(ops[0]) and ops[0].reg != "rbp":
        reg = ops[0].reg

        def push(machine):
            regs = machine.regs
            value = regs[reg] & _M64
            sp = regs["rsp"] = regs["rsp"] - 8
            machine.wr_mem(sp, value.to_bytes(8, "little"))
            return nxt
        return push
    if m == "pop" and _r64(ops[0]):
        reg = ops[0].reg

        def pop(machine):
            regs = machine.regs
            sp = regs["rsp"]
            value = int.from_bytes(machine.rd_mem(sp, 8), "little")
            regs["rsp"] = sp + 8
            regs[reg] = value
            machine.canary_regs.discard(reg)
            return nxt
        return pop
    return None


def _arith_r64_imm(m: str, reg: str, b: int, nxt: int | None):
    """add, sub or cmp of a 64-bit register with a (masked) immediate."""
    sb = b >> 63
    write = m != "cmp"
    if m == "add":
        def arith(machine):
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

    def arith_sub(machine):
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
