"""Interpreter runs, crash causes and the before/after patch protocol."""

from __future__ import annotations

import random

import pytest

from stackcheck import validator
from stackcheck.cli import analyze, analyze_image
from stackcheck.effects import EffectsOracle
from stackcheck.frontend import build_bcfg, parse_disassembly
from stackcheck.interp import CANARY_VALUE, CAUSE_CANARY, Machine
from stackcheck.memstace import ByteOp, Config, build_memstace, classify_instruction
from stackcheck.validator import CLEAN, CRASH, STEP_BUDGET, run, validate_patch

from conftest import CORPUS_DIR, FIXTURE_DIR, corpus_path, fixture_path, load_image
from test_oracle import _chain


def _patched(name: str):
    from stackcheck.cli import analyze_image
    image = load_image(corpus_path(name))
    report = analyze_image(image, name, Config(), patch=True, patch_all=True)
    assert report.patched_image is not None
    return image, report.patched_image


def test_empty_program_clean_exit_in_two_steps():
    image = parse_disassembly("main:\n401000: ret\n")
    outcome = run(image)
    assert outcome.status == CLEAN
    assert outcome.steps <= 2


def test_strcpy_overflow_crashes_with_return_address_cause():
    image = load_image(corpus_path("strcpy_rip_vuln"))
    outcome = run(image)
    assert outcome.status == CRASH
    assert outcome.cause == "return-address-corrupted"


def test_patched_strcpy_runs_clean():
    _, patched = _patched("strcpy_rip_vuln")
    outcome = run(patched)
    assert outcome.status == CLEAN
    # main prints its own 255-character source buffer after copy returns
    assert outcome.stdout == b"x" * 255 + b"\n"


def test_canary_crash_cause():
    image = load_image(corpus_path("strcpy_canary_vuln"))
    assert run(image).cause == "canary-mismatch"


def test_base_register_crash_cause():
    image = load_image(corpus_path("strcat_rbp_vuln"))
    assert run(image).cause == "base-register-corrupted"


def test_gets_crash_depends_on_input():
    image = load_image(corpus_path("gets_rip_vuln"))
    short = run(image, stdin=b"hello\n")
    assert short.status == CLEAN
    assert short.stdout == b"hello\n"
    long = run(image, stdin=b"A" * 24 + b"\n")
    assert long.status == CRASH
    assert long.cause == "return-address-corrupted"


def test_determinism_same_inputs_same_outcome():
    image = load_image(corpus_path("gets_rip_vuln"))
    a = run(image, stdin=b"A" * 24 + b"\n")
    b = run(image, stdin=b"A" * 24 + b"\n")
    assert (a.status, a.cause, a.steps, a.stdout) == (b.status, b.cause, b.steps, b.stdout)


def test_step_budget_status_is_not_a_crash():
    text = """\
main:
401000: jmp 0x401000
"""
    image = parse_disassembly(text)
    outcome = run(image, cfg=Config(step_budget=100))
    assert outcome.status == STEP_BUDGET
    assert outcome.cause is None


def test_loop_offbyone_crashes_via_saved_base_register():
    image = load_image(corpus_path("loop_offbyone_vuln"))
    outcome = run(image)
    assert outcome.status == CRASH and outcome.cause == "base-register-corrupted"


def test_benign_overflow_fixtures_run_clean():
    for name in ("loop_overflow_one_vuln", "loop_underflow_vuln"):
        outcome = run(load_image(corpus_path(name)))
        assert outcome.status == CLEAN, name


# --- validate_patch -------------------------------------------------------------

def test_validate_with_derived_input():
    original, patched = _patched("gets_rip_vuln")
    report = validate_patch(original, patched, b"A" * 24 + b"\n")
    assert report.input_source == "derived"
    assert report.original.crashed()
    assert report.patched.status == CLEAN
    assert report.success


def test_validate_clean_pair_identical_stdout():
    original, patched = _patched("strcpy_rip_ok")
    report = validate_patch(original, patched, None)
    assert report.input_source == "random"
    assert report.original.status == CLEAN and report.patched.status == CLEAN
    assert report.success


def test_validate_divergent_stdout_fails_with_note():
    original, patched = _patched_fixture("sprintf_trunc")
    report = validate_patch(original, patched, None)
    assert report.original.status == CLEAN and report.patched.status == CLEAN
    assert not report.success
    assert any("stdout differs" in n for n in report.notes)


def test_detector_validator_agreement(corpus_paths, ground_truth):
    """Where the model predicts a control-data violation reachable with the
    derived input, the original run crashes with the matching cause."""
    for path in corpus_paths:
        truth = ground_truth[path.stem]
        cause = truth["crash_cause"]
        outcome = run(load_image(path),
                      stdin=b"A" * truth.get("derived_input_len", 0) + b"\n")
        if cause is None:
            assert outcome.status == CLEAN, path.stem
        else:
            assert outcome.status == CRASH and outcome.cause == cause, path.stem


def _patched_fixture(name: str, enable_scanf=False):
    from stackcheck.cli import analyze_image
    cfg = Config(enable_scanf_patch=enable_scanf)
    image = load_image(fixture_path(name))
    report = analyze_image(image, name, cfg, patch=True, patch_all=True)
    assert report.patched_image is not None
    return image, report.patched_image


def test_scanf_opt_in_patch_validates():
    original, patched = _patched_fixture("scanf_vuln", enable_scanf=True)
    report = validate_patch(original, patched, b"A" * 16 + b"\n")
    assert report.original.crashed()
    assert report.original.cause == "return-address-corrupted"
    assert report.patched.status == CLEAN
    assert report.success


def test_whole_program_runs_do_not_grow_with_chain_length(tmp_path, monkeypatch):
    """Every sink of a chain listing is validated against the same patched
    image, on one of a few distinct inputs: each (image, stdin) pair runs
    once per analysis, however many sinks share it."""
    runs = [0]
    real_run = validator.run

    def counted(*args, **kwargs):
        runs[0] += 1
        return real_run(*args, **kwargs)

    monkeypatch.setattr(validator, "run", counted)
    counts = []
    for n in (8, 16, 32):
        path = tmp_path / f"chain_{n}.s"
        path.write_text(_chain(n))
        runs[0] = 0
        report = analyze([str(path)], Config(), patch_all=True, validate=True)[0]
        assert report.error is None
        assert len(report.validations) == len(report.patches) >= n
        counts.append(runs[0])
    assert counts[0] == counts[1] == counts[2], counts


# --- the stdin-blind memo ---------------------------------------------------------

# a 16-byte buffer at rbp-0x10 and the format "%s" at rbp-0x20
_READ = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x20
40100c: mov byte [rbp-0x20], 0x25
401010: mov byte [rbp-0x1f], 0x73
401014: mov byte [rbp-0x1e], 0x0
401018: lea rdi, [rbp-{rdi}]
40101c: {rsi}
401020: {reader}
401024: add rsp, 0x20
401028: pop rbp
40102c: ret
"""


@pytest.mark.parametrize("rdi, rsi, reader, reads", [
    ("0x10", "nop", "call 0x401080 <gets@plt>", True),
    ("0x10", "mov rsi, 0x8", "call 0x401088 <fgets@plt>", True),
    ("0x10", "mov rsi, 0x0", "call 0x401088 <fgets@plt>", True),    # n <= 0 reads nothing
    ("0x20", "lea rsi, [rbp-0x10]", "call 0x401090 <scanf@plt>", True),
    ("0x10", "nop", "safecall bounded_readline 0x8", True),
    ("0x20", "lea rsi, [rbp-0x10]", "safecall bounded_scan 0x8", True),
    ("0x20", "nop", "call 0x401098 <puts@plt>", False),
])
def test_every_stdin_reader_marks_the_run(rdi, rsi, reader, reads):
    image = parse_disassembly(_READ.format(rdi=rdi, rsi=rsi, reader=reader))
    for stdin in (b"", b"abc\n"):
        outcome = run(image, stdin=stdin)
        assert outcome.status == CLEAN
        assert outcome.read_stdin is reads, stdin


def test_a_run_that_reads_no_stdin_answers_every_stdin():
    """Every bundled image (original and patched) whose run never reads
    stdin gives the same outcome, steps and stdout included, on 20 seeded
    inputs: the outcome the memo hands out for any stdin."""
    rng = random.Random(8)
    blind = 0
    for path in sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s")):
        original = load_image(path)
        report = analyze_image(original, path.stem, Config(), patch_all=True)
        for image in filter(None, (original, report.patched_image)):
            first = run(image)
            if first.read_stdin:
                continue
            blind += 1
            for _ in range(20):
                data = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
                assert run(image, stdin=data) == first, path.stem
    assert blind >= 10


@pytest.mark.parametrize("name, runs", [("strcpy_rip_vuln", 2), ("gets_rip_vuln", 2)])
def test_validation_runs_a_stdin_blind_image_once(name, runs, monkeypatch):
    """strcpy_rip_vuln reads no stdin: its three random trials share one
    run per image, two in all (six before the memo). gets_rip_vuln reads
    stdin and is validated on its one derived input, two runs as before."""
    calls = [0]
    real_run = validator.run

    def counted(*args, **kwargs):
        calls[0] += 1
        return real_run(*args, **kwargs)

    monkeypatch.setattr(validator, "run", counted)
    report = analyze([str(corpus_path(name))], Config(), patch=True, validate=True)[0]
    assert [v["success"] for v in report.validations] == [True]
    assert calls[0] == runs


def _patched_gets_rip_vuln(bound: str):
    """gets_rip_vuln's patched listing with its safecall bound set to `bound`."""
    report = analyze_image(load_image(corpus_path("gets_rip_vuln")), "gets_rip_vuln",
                           Config(), patch=True)
    text = report.patched_image.emit()
    assert "safecall bounded_readline 0x10\n" in text
    return parse_disassembly(text.replace("safecall bounded_readline 0x10\n",
                                          f"safecall bounded_readline {bound}\n"))


@pytest.mark.parametrize("bound, status, outcome", [
    ("0x10", "clean", (CLEAN, None)),
    ("0x100", "vulnerable", (CRASH, "return-address-corrupted"))])
def test_patched_listing_is_analysed_with_its_safecall_bound(bound, status, outcome):
    """A safecall has the effect its template has when run: the emitted
    bound keeps the line in the 16-byte buffer, a raised one lets it reach
    the return address, as a run on 64 `A`s shows."""
    image = _patched_gets_rip_vuln(bound)
    report = analyze_image(image, "gets_rip_vuln.patched", Config())
    assert report.status == status, report.error
    assert ("RIP Integrity" in [p.name for p in report.properties
                                if p.status == "violated"]) is (status == "vulnerable")
    ran = run(image, stdin=b"A" * 64 + b"\n")
    assert (ran.status, ran.cause) == outcome


def test_libc_db_alias_validates_as_it_is_detected(tmp_path):
    """A call to `my_gets`, listed as running `gets`, is detected as gets'
    overflow and validated by running gets: the original run crashes on the
    derived input and the patched one does not."""
    listing = tmp_path / "my_gets.s"
    listing.write_text(corpus_path("gets_rip_vuln").read_text().replace("<gets@plt>",
                                                                        "<my_gets@plt>"))
    db = tmp_path / "libc.json"
    db.write_text('{"my_gets": {"extent": "gets"}}')
    templates = tmp_path / "templates.json"
    templates.write_text('[{"name": "my_gets_static", "target": "my_gets", '
                         '"mode": "static", "replacement": "bounded_readline"}]')
    cfg = Config(libc_db_path=str(db), templates_path=str(templates))
    report = analyze([str(listing)], cfg, patch=True, validate=True)[0]
    assert report.status == "vulnerable", report.error
    assert [(p["callee"], p["template"]) for p in report.patches] == \
        [("my_gets", "my_gets_static")]
    assert [(v["original"]["status"], v["patched"]["status"], v["success"])
            for v in report.validations] == [(CRASH, CLEAN, True)]


# one canary-store rule for both executors (ProgramImage.frame): a direct
# store, a store through a copy, a store of a register overwritten after
# the canary load, a store of the register an xchg moved the canary to, and
# of one an xchg with memory overwrote; (load, the instruction after it,
# store, whether the store is a canary store)
CANARY_STORES = {
    "direct": ("mov rax, fs:0x28", "nop", "mov [rbp-0x8], rax", True),
    "copy": ("mov rax, fs:0x28", "mov rbx, rax", "mov [rbp-0x8], rbx", True),
    "overwritten": ("mov rdx, fs:0x28", "add rdx, 0x1", "mov [rbp-0x8], rdx", False),
    "xchg": ("mov rax, fs:0x28", "xchg rbx, rax", "mov [rbp-0x8], rbx", True),
    "xchg-memory": ("mov rax, fs:0x28", "xchg [rbp-0x10], rax", "mov [rbp-0x8], rax", False),
}


@pytest.mark.parametrize("case", CANARY_STORES)
def test_builder_and_interpreter_agree_on_the_canary_store(case):
    load, between, store, canary = CANARY_STORES[case]
    image = parse_disassembly(f"""\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x20
40100c: {load}
401010: {between}
401014: {store}
401018: lea rdi, [rbp-0x20]
40101c: call 0x401060 <gets@plt>
401020: add rsp, 0x20
401024: pop rbp
401028: ret
""")
    oracle = EffectsOracle(image, build_bcfg(image), Config())
    space = build_memstace(image, oracle, Config(), image.functions["main"])
    has_canary = any(s.top.has_canary for s in space.states.values())
    machine = Machine(image, Config())
    machine.start(image.functions["main"])
    machine.run_to({0x401018})
    assert has_canary == (machine.shadow[-1].canary_loc is not None) == canary
    if case == "copy":
        report = analyze_image(image, case, Config(), patch=True, validate=True)
        assert report.validations[0]["original"] == {"status": CRASH,
                                                      "cause": CAUSE_CANARY}


@pytest.mark.parametrize("width", ["qword ", "", "dword ", "byte "])
def test_builder_and_interpreter_agree_on_a_segment_read_stored_to_memory(width):
    """`mov [mem], fs:0x28` stores the canary value in the bytes the
    builder's write covers, and in no others; it is no canary store."""
    image = parse_disassembly(f"""\
main:
401000: push rbp
401004: mov rbp, rsp
401008: mov {width}[rbp-0x8], fs:0x28
40100c: nop
""")
    op = classify_instruction(image.instructions[0x401008], image.frame("main").canary_stores)
    assert (op.kind, op.byte_op, op.base, op.disp) == ("write", ByteOp.NRWRITE, "rbp", -0x8)
    machine = Machine(image, Config())
    machine.start(0x401000)
    machine.run_to({0x401008})
    rbp = machine.regs["rbp"]
    before = machine.rd_mem(rbp - 0x20, 0x40)
    machine.run_to({0x40100c})
    after = machine.rd_mem(rbp - 0x20, 0x40)
    written = [k - 0x20 for k in range(0x40) if before[k] != after[k]]
    assert written == list(range(op.disp, op.disp + op.width))
    assert after[0x20 + op.disp:0x20 + op.disp + op.width] == \
        CANARY_VALUE.to_bytes(8, "little")[:op.width]
