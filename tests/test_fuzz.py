"""Seeded mutation fuzz: mutants of the bundled listings never end in an
internal error, only in a verdict or a parse error; mutants of the bundled
property file end only in a check or in an input error (cli.PROPERTY_ERRORS)."""

from __future__ import annotations

import random
import re
import time

from conftest import CORPUS_DIR, FIXTURE_DIR, pipeline

from stackcheck import checker, ltl
from stackcheck.cli import PROPERTY_ERRORS, analyze, build_root_spaces
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


# --- property-file mutants -------------------------------------------------

PROPERTY_SEED = 19
PROPERTY_MUTANTS = 800
PROPERTY_FILE = CORPUS_DIR.parent / "data" / "properties.props"
# whitespace runs, words, the two-character operators and single characters
_PROPERTY_TOKEN = re.compile(r"\s+|\w+|\.\.|!=|->|.", re.S)
# listings whose root spaces hold library calls, loops and registered buffers
PROPERTY_LISTINGS = ("strcpy_rip_vuln", "gets_rip_vuln", "loop_underflow_vuln")


def _mutate_tokens(rng: random.Random, parts: list[str], pool: list[str]) -> str:
    """Apply 1-3 edits, each to one non-blank token: delete it, insert a
    token of `pool` before it, or replace it with one."""
    parts = list(parts)
    words = [i for i, t in enumerate(parts) if not t.isspace()]
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(words)
        edit = rng.randrange(3)
        if edit == 0:
            parts[i] = ""
        elif edit == 1:
            parts[i] = f"{rng.choice(pool)} {parts[i]}"
        else:
            parts[i] = rng.choice(pool)
    return "".join(parts)


def check_property_mutants(seed: int, count: int) -> None:
    """Parse, compile and check `count` token mutants of the bundled property
    file, drawn with `seed`, on the root spaces of PROPERTY_LISTINGS; raise
    AssertionError listing every mutant that raised anything but one of
    cli.PROPERTY_ERRORS."""
    spaces = []
    for name in PROPERTY_LISTINGS:
        image, _, oracle = pipeline(CORPUS_DIR / f"{name}.s")
        spaces += build_root_spaces(image, oracle, Config()).values()
    parts = _PROPERTY_TOKEN.findall(PROPERTY_FILE.read_text(encoding="utf-8"))
    pool = sorted({t for t in parts if not t.isspace()})
    rng = random.Random(seed)
    escaped = []
    for k in range(count):
        text = _mutate_tokens(rng, parts, pool)
        try:
            monitors = [ltl.compile_monitor(p) for p in ltl.parse_property_file(text)]
            for space in spaces:
                checker.check(space, monitors)
        except PROPERTY_ERRORS:
            pass
        except Exception as exc:
            escaped.append(f"seed {seed}, mutant {k}: {type(exc).__name__}: {exc}\n{text}")
    assert not escaped, "\n".join(escaped)


def test_property_file_mutants_end_only_in_input_errors():
    check_property_mutants(PROPERTY_SEED, PROPERTY_MUTANTS)
