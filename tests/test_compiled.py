"""Differential test of the compiled interpreter: at every machine state the
pipeline meets, the handler compiled for the instruction's form and its
generic handler in `_HANDLERS` must leave identical machines. A counted
loop's back edge retires the iterations it runs in closed form too, so the
generic side steps as many instructions as the compiled step retired."""

from __future__ import annotations

from conftest import CORPUS_DIR, FIXTURE_DIR
from test_fuzz import MUTANT_CONFIG, write_mutants

from stackcheck.cli import analyze
from stackcheck.frontend import parse_disassembly
from stackcheck.interp import _HANDLERS, CLEAN, STEP_BUDGET, Halt, Machine
from stackcheck.memstace import Config
from stackcheck.validator import run

# every specialised handler compile_form and compile_counted_loop can return
FAST_FORMS = {"jump", "branch", "arith", "arith_sub", "mov_mem_imm", "mov_reg_imm",
              "mov_reg_reg", "mov_reg_mem", "mov_mem_reg", "lea", "push", "pop",
              "back_edge"}


def _generic_step(m: Machine) -> None:
    """One step through the generic handler, as the interpreter stepped
    before instructions were compiled."""
    if m.steps >= m.cfg.step_budget:
        raise Halt(STEP_BUDGET)
    if m.pc is None or m.pc not in m.image.instructions:
        raise Halt(CLEAN)
    ins = m.image.instructions[m.pc]
    m.steps += 1
    nxt = m.image.next_pc[m.pc]
    handler = _HANDLERS.get(ins.mnemonic)
    if m.pc in m.image.frame(m.image.owner[m.pc]).canary_stores:
        handler = Machine._do_canary_store
    m.pc = handler(m, ins, nxt) if handler else nxt


def _outcome(step, m: Machine, times: int = 1):
    try:
        for _ in range(times):
            step(m)
    except Halt as h:
        return h
    return None


# each fast form overwriting a register that holds the canary; none of the
# listings does all of them. The store at 0x401020 goes through the copy in
# rbx, so it is a canary store (ProgramImage.frame) and records its slot.
CANARY_MOVES = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x20
40100c: mov rax, fs:0x28
401010: mov rbx, rax
401014: mov rcx, rax
401018: mov rsi, rax
40101c: mov rdi, rax
401020: mov [rbp-0x8], rbx
401024: push rdx
401028: pop rax
40102c: add rbx, 0x1
401030: lea rcx, [rbp-0x10]
401034: mov rsi, 0x0
401038: mov rdi, [rbp-0x10]
40103c: mov rdx, rax
401040: mov rax, [rbp-0x8]
401044: add rsp, 0x20
401048: pop rbp
40104c: ret
"""

# everything a step can change
STATE = ("regs", "flags", "stack", "stack_lo", "aux", "stdout", "shadow",
         "pc", "steps", "stdin_pos", "read_stdin", "_wm_lo", "_wm_hi")


def test_compiled_step_matches_generic_handler(tmp_path, monkeypatch):
    compiled_step = Machine.step
    seen: set[str] = set()
    compared = [0]
    skipped = [0]
    mismatches: list[str] = []

    def checked(self):
        ref = self.fork()
        pc = self.pc
        got = _outcome(compiled_step, self)
        retired = max(self.steps - ref.steps, 1)
        skipped[0] += retired > 1
        want = _outcome(_generic_step, ref, retired)
        halts = [h and (h.status, h.cause) for h in (got, want)]
        differ = [f for f in STATE if getattr(self, f) != getattr(ref, f)]
        if halts[0] != halts[1] or differ:
            mismatches.append(f"{self.image.instructions[pc].raw_text}: halts "
                              f"{halts[0]} vs {halts[1]}, state differs in {differ}")
        compared[0] += 1
        if pc in self.image.code:
            seen.add(self.image.code[pc][0].__name__)
        if got is not None:
            raise got

    monkeypatch.setattr(Machine, "step", checked)
    listings = [str(p) for p in sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))]
    reports = analyze(listings, Config(), patch_all=True, validate=True)
    reports += analyze(write_mutants(tmp_path), MUTANT_CONFIG, patch_all=True, validate=True)
    image = parse_disassembly(CANARY_MOVES)
    assert image.frame("main").canary_stores == {0x401020}
    m = Machine(image, Config())
    m.start(image.functions["main"])
    m.run_to({0x401024})
    assert m.shadow[-1].canary_loc == m.regs["rbp"] - 8
    assert run(image).status == CLEAN
    assert not mismatches, mismatches[:3]
    assert not [r.error for r in reports if r.error and r.error.startswith("internal")]
    assert compared[0] > 10_000, compared
    assert skipped[0] > 100, skipped
    assert FAST_FORMS <= seen, FAST_FORMS - seen
