"""One rule for what an instruction writes (frontend.WRITES and
write_width), checked per form: for every instruction form with an operand
based on rbp or rsp, the memory operators the state-space builder decodes
change the same stack bytes as the interpreter's generic handler writes,
on a machine standing in a frame. The builder's frames map each byte
index onto a machine address, so this is a refinement check per form in
the sense of Abadi and Lamport, "The Existence of Refinement Mappings"
(1991)."""

from __future__ import annotations

import random
from itertools import product
from pathlib import Path

from conftest import CORPUS_DIR, FIXTURE_DIR
from test_fuzz import write_mutants

from stackcheck.codegen import CONDITIONS
from stackcheck.effects import EffectsOracle
from stackcheck.frontend import (CMOV, DuplicateFunction, MalformedLine, build_bcfg,
                                 parse_disassembly)
from stackcheck.interp import _HANDLERS, ENTRY_RSP, STACK_TOP, Halt, Machine
from stackcheck.memstace import (ByteOp, Config, Fe, Push, StackFrame, _SpaceBuilder,
                                 apply_memory_operator, fresh_frame)

# the forms whose builder span once differed from the interpreter's
EIGHT = ["sub qword [rbp+0x8], 0x10", "sub [rbp-0x8], rax", "xchg rax, [rbp-0x10]",
         "pop qword [rbp-0x10]", "xchg [rbp-0x10], eax", "add [rbp-0x10], eax",
         "add [rbp-0x10], al", "mov [rbp-0x10], dword [rbp-0x20]"]

LOCALS = 0x1000             # the probe frame's locals
PROBE_PC = 0x40100c
RBP = ENTRY_RSP - 16        # the probe frame's base: below the return address and saved rbp
CFG = Config()


def frame_forms(texts) -> dict[tuple, str]:
    """(mnemonic, operands) -> the text of its first instruction, for every
    form in the listings `texts` with an operand based on rbp or rsp, push
    left out (its operand is read; the push itself is the Push operator).
    A listing that does not parse is skipped."""
    forms = {}
    for text in texts:
        try:
            image = parse_disassembly(text)
        except (MalformedLine, DuplicateFunction):
            continue
        for ins in image.instructions.values():
            if ins.mnemonic != "push" and any(op.is_frame_relative() for op in ins.operands):
                forms.setdefault((ins.mnemonic, ins.operands), ins.text)
    return forms


def _probe(form: str):
    return parse_disassembly("main:\n401000: push rbp\n401004: mov rbp, rsp\n"
                             f"401008: sub rsp, {LOCALS:#x}\n{PROBE_PC:x}: {form}\n")


def _builder_span(image):
    """The hull (lowest, highest address) of the bytes the builder's
    operators for the probed form change, None when they change none, or
    "outside" when a write starts below the allocated frame, which the
    builder clamps with a note."""
    top, _ = apply_memory_operator((fresh_frame("main"),), Push(ByteOp.RWRITE))
    top, _ = apply_memory_operator(top, Fe(LOCALS))
    # the caller's frame holds the bytes from the return address up to STACK_TOP
    before = (StackFrame("caller", b"F" * (STACK_TOP - ENTRY_RSP)),) + top
    oracle = EffectsOracle(image, build_bcfg(image), CFG)
    frames = before
    for op, _ in _SpaceBuilder(image, oracle, CFG, None, {}).decode(PROBE_PC).steps:
        frames, notes = apply_memory_operator(frames, op)
        if any("below the allocated frame" in n for n in notes):
            return "outside"
    (caller, old), (_, new) = before, frames
    n = min(len(old.bytes), len(new.bytes))      # a pop cuts the top frame
    changed = [RBP + 15 - i for i in range(n) if old.bytes[i] != new.bytes[i]]
    changed += [RBP + 16 + len(caller.bytes) - 1 - j for j in range(len(caller.bytes))
                if caller.bytes[j] != frames[0].bytes[j]]
    return (min(changed), max(changed)) if changed else None


def _handler_span(image, flags: dict[str, bool]):
    """The hull of the stack bytes the form's generic handler writes, read
    from the machine's write marks, or None when it writes none; raises
    Halt when the handler ends the run."""
    machine = Machine(image, CFG)
    machine.start(0x401000)
    machine.run_to({PROBE_PC})
    machine.flags.update(flags)
    machine.snapshot()
    ins = image.instructions[PROBE_PC]
    _HANDLERS[ins.mnemonic](machine, ins, None)
    return (machine._wm_lo, machine._wm_hi) if machine._wm_lo <= machine._wm_hi else None


def _flag_sets(mnemonic: str):
    """The flags to run a form under, each with whether the builder's
    operators must match: one set for most forms; for a cmov one where its
    condition holds and one where it does not, which must write nothing."""
    if mnemonic not in CMOV:
        return [({}, True)]
    cond = CONDITIONS[mnemonic[4:]]
    sets = [dict(zip(("zf", "sf", "cf", "of"), bits))
            for bits in product((False, True), repeat=4)]
    return [(next(f for f in sets if cond(f) == holds), holds) for holds in (True, False)]


def disagreements(forms) -> tuple[list[str], int]:
    """Each form of `forms` (instruction texts) whose builder span differs
    from its handler's, and how many forms were compared. Two kinds are
    not: a form whose write starts below the allocated frame, and one whose
    handler ends the run (an operand the interpreter does not model, such
    as an immediate xchg writes, or a write off the stack)."""
    found, compared = [], 0
    for form in forms:
        image = _probe(form)
        builder = _builder_span(image)
        if builder == "outside":
            continue
        try:
            runs = [(flags, builder if holds else None, _handler_span(image, flags))
                    for flags, holds in _flag_sets(image.instructions[PROBE_PC].mnemonic)]
        except Halt:
            continue
        compared += 1
        found += [f"{form} under {flags}: builder {_hex(want)}, handler {_hex(got)}"
                  for flags, want, got in runs if got != want]
    return found, compared


def _hex(span) -> str:
    return "nothing" if span is None else f"{span[0] - RBP:+#x}..{span[1] - RBP:+#x} from rbp"


def test_the_eight_forms_write_what_the_interpreter_writes():
    found, compared = disagreements(EIGHT)
    assert not found, found
    assert compared == len(EIGHT)


def test_every_bundled_and_mutant_form_writes_what_the_interpreter_writes(tmp_path):
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    paths += [Path(p) for p in write_mutants(tmp_path)]
    texts = [p.read_text() for p in paths]
    forms = frame_forms(texts)
    found, compared = disagreements(forms.values())
    assert not found, found
    assert compared > 0.9 * len(forms)


# what a random form is drawn from: every mnemonic with operands and no
# target but push, and operands of each kind to go with a frame-relative
# memory operand of any width, sign and base
FORM_MNEMONICS = ["mov", "lea", "add", "sub", "cmp", "test", "xchg", "pop"] + sorted(CMOV)
FORM_OPERANDS = ["rax", "eax", "ax", "al", "rsp", "rbp", "r8d", "sil", "0x0", "0x10", "0xff",
                 "fs:0x28", "[rax]", "dword [rdi+0x8]"]


def operand_text_forms(seed: int, count: int) -> list[str]:
    """`count` forms drawn with `seed`: a mnemonic of FORM_MNEMONICS with as
    many operands as it takes, one of them a memory operand based on rbp or
    rsp, the other from FORM_OPERANDS."""
    rng = random.Random(seed)
    forms = []
    for _ in range(count):
        mnemonic = rng.choice(FORM_MNEMONICS)
        width = rng.choice(["", "byte ", "word ", "dword ", "qword "])
        mem = f"{width}[{rng.choice(['rbp', 'rsp'])}{rng.choice('+-')}{rng.randrange(0x48):#x}]"
        ops = [mem] if mnemonic == "pop" else rng.sample([mem, rng.choice(FORM_OPERANDS)], 2)
        forms.append(f"{mnemonic} {', '.join(ops)}")
    return forms


def check_operand_text_forms(seed: int, count: int) -> int:
    """Compare the operand_text_forms of `seed` and `count`; raise
    AssertionError naming the seed and each disagreement; return how many
    forms were compared."""
    found, compared = disagreements(operand_text_forms(seed, count))
    assert not found, f"seed {seed}: " + "\n".join(found)
    return compared


def test_operand_text_forms_write_what_the_interpreter_writes():
    assert check_operand_text_forms(29, 300) > 150
