"""Seeded mutation fuzz: mutants of the bundled listings never end in an
internal error, only in a verdict or a parse error."""

from __future__ import annotations

import random
import re
import time

from conftest import CORPUS_DIR, FIXTURE_DIR

from stackcheck.cli import analyze
from stackcheck.memstace import Config

SEED = 13
MUTANTS = 150

_LINE = re.compile(r"^([0-9a-f]+): (\S+) ?(.*)$")
# mnemonics by operand shape, so that most edits still parse
MNEMONICS = [["mov", "lea", "add", "sub", "cmp", "test", "xchg", "cmovl"],
             ["push", "pop"], ["jmp", "jne", "call"], ["ret", "nop"]]
OPERANDS = ["rax", "rbp", "rsp", "rdi", "eax", "al", "0x0", "0x10", "[rbp-0x8]",
            "byte [rbp-0x10]", "qword [rax]", "fs:0x28", "fs:0x10",
            "0x401030 <puts@plt>"]
BASES = ["rax", "rbp", "rsp", "rdi", "rsi", "r8"]


def _mutate(rng: random.Random, text: str) -> str:
    """Apply 1-3 edits, each to one instruction line: a new immediate, a
    mnemonic of the same shape, a new operand list of the same length, or
    a new base register."""
    lines = text.splitlines()
    code = [i for i, line in enumerate(lines) if _LINE.match(line)]
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(code)
        addr, mnemonic, ops = _LINE.match(lines[i]).groups()
        edit = rng.randrange(4)
        if edit == 0:
            ops = re.sub(r"0x[0-9a-f]+", hex(rng.randrange(0x100)), ops, count=1)
        elif edit == 1:
            mnemonic = rng.choice(next((g for g in MNEMONICS if mnemonic in g), [mnemonic]))
        elif edit == 2:
            ops = ", ".join(rng.choice(OPERANDS) for _ in ops.split(", ") if ops)
        else:
            ops = re.sub(r"\[\w+", "[" + rng.choice(BASES), ops, count=1)
        lines[i] = f"{addr}: {mnemonic} {ops}".rstrip()
    return "\n".join(lines) + "\n"


def write_mutants(tmp_path) -> list[str]:
    """The MUTANTS seeded mutants, written under tmp_path; their paths."""
    rng = random.Random(SEED)
    sources = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    paths = []
    for k in range(MUTANTS):
        src = rng.choice(sources)
        path = tmp_path / f"{src.stem}_{k}.s"
        path.write_text(_mutate(rng, src.read_text()))
        paths.append(str(path))
    return paths


# the configuration every mutant is analysed under
MUTANT_CONFIG = Config(max_states=2000, step_budget=20000)


def test_mutants_never_end_in_an_internal_error(tmp_path):
    paths = write_mutants(tmp_path)
    t0 = time.perf_counter()
    reports = analyze(paths, MUTANT_CONFIG, patch_all=True, validate=True)
    elapsed = time.perf_counter() - t0
    internal = [f"{r.binary}: {r.error}" for r in reports
                if r.error and r.error.startswith("internal error")]
    assert not internal, internal
    assert elapsed < 5.0
