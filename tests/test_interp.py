"""Machine-level checks for the interpreter subset."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from stackcheck import interp
from stackcheck.frontend import parse_disassembly
from stackcheck.interp import (CANARY_VALUE, CAUSE_RET, CLEAN, CRASH, STEP_BUDGET, TIMEOUT,
                               UNSUPPORTED, Halt, Machine)
from stackcheck.memstace import Config
from stackcheck.validator import run


def _machine(body: str, stdin: bytes = b"", cfg: Config | None = None) -> Machine:
    image = parse_disassembly("main:\n" + body)
    m = Machine(image, cfg or Config(), stdin=stdin)
    m.start(min(image.instructions))
    return m


def _run_lines(body: str, stdin: bytes = b""):
    image = parse_disassembly("main:\n" + body)
    return run(image, stdin=stdin)


@pytest.mark.parametrize("body, cfg, status, cause", [
    ("401000: push rbp\n401004: pop rbp\n401008: ret\n", None, CLEAN, None),
    ("401000: mov qword [rsp], 0x0\n401004: ret\n", None, CRASH, CAUSE_RET),
    ("401000: jmp 0x401000\n", Config(step_budget=50), STEP_BUDGET, None),
    ("401000: mov byte [rsp-0x8], 0x25\n401004: mov byte [rsp-0x7], 0x66\n"
     "401008: mov byte [rsp-0x6], 0x0\n40100c: lea rdi, [rsp-0x8]\n"
     "401010: call 0x401080 <printf@plt>\n401014: ret\n", None, UNSUPPORTED,
     "%f is not supported"),
])
def test_every_run_ends_in_one_halt(body, cfg, status, cause):
    m = _machine(body, cfg=cfg)
    with pytest.raises(Halt) as end:
        m.run()
    assert (end.value.status, end.value.cause) == (status, cause)


class _Reads:
    """A stand-in for the `time` module: its n-th read returns n."""

    def __init__(self):
        self.reads = 0

    def perf_counter(self) -> float:
        self.reads += 1
        return float(self.reads)


def test_a_deadline_is_read_every_deadline_every_dispatches(monkeypatch):
    """run and run_to read the clock before every DEADLINE_EVERY dispatches
    and halt once the deadline has passed. A counted loop's skip retires
    about 3 * 0x100000 steps in one dispatch and counts as one. Forks keep
    the deadline; a machine without one never reads the clock."""
    clock = _Reads()
    monkeypatch.setattr(interp, "time", clock)
    image = parse_disassembly("main:\n401000: mov rcx, 0x0\n401004: add rcx, 0x1\n"
                              "401008: cmp rcx, 0x100000\n40100c: jne 0x401004\n"
                              "401010: jmp 0x401010\n")
    cfg = Config(step_budget=10**7)
    for run_it in (Machine.run, lambda m: m.run_to({0x401014})):
        clock.reads = 0
        m = Machine(image, cfg, deadline=2.5)
        m.start(0x401000)
        assert m.fork().deadline == 2.5
        with pytest.raises(Halt) as end:
            run_it(m)
        assert end.value.status == TIMEOUT
        assert clock.reads == 3          # before dispatches 0, 256 and 512
        assert m.steps > 3 * 0x100000
    clock.reads = 0
    m = Machine(image, Config(step_budget=5000))
    m.start(0x401000)
    with pytest.raises(Halt) as end:
        m.run()
    assert end.value.status == STEP_BUDGET and clock.reads == 0


def test_register_width_semantics():
    m = _machine("401000: nop\n")
    m.wr_reg("rax", 0x1122334455667788)
    m.wr_reg("rax", 0xAABBCCDD, 4)       # 32-bit write zero-extends
    assert m.rd_reg("rax") == 0xAABBCCDD
    m.wr_reg("rax", 0x1122334455667788)
    m.wr_reg("rax", 0xEE, 1)             # 8-bit write merges
    assert m.rd_reg("rax") == 0x11223344556677EE
    assert m.rd_reg("rax", 2) == 0x77EE


def test_store_from_wider_register_keeps_low_bytes():
    m = _machine("""\
401000: push rbp
401004: mov rbp, rsp
401008: mov rax, 0x1122
40100c: mov byte [rbp-0x8], rax
401010: nop
""")
    m.run_to({0x401010})
    assert m.rd_mem(m.rd_reg("rbp") - 8, 2) == b"\x22\xcc"


def test_xchg_swaps_register_and_memory():
    out = _run_lines("""\
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x10
40100c: mov qword [rbp-0x8], 0x2a
401014: mov rax, 0x7
401018: xchg rax, [rbp-0x8]
40101c: add rsp, 0x10
401020: pop rbp
401024: ret
""")
    assert out.status == "clean-exit"
    m = _machine("""\
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x10
40100c: mov qword [rbp-0x8], 0x2a
401014: mov rax, 0x7
401018: xchg rax, [rbp-0x8]
40101c: nop
""")
    m.run_to({0x40101c})
    assert m.rd_reg("rax") == 0x2A
    assert int.from_bytes(m.rd_mem(m.rd_reg("rbp") - 8, 8), "little") == 7


def test_pop_stores_through_a_memory_destination():
    # x86 computes the destination address after rsp moves up
    m = _machine("""\
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x10
40100c: mov rax, 0x1122334455667788
401010: push rax
401014: pop qword [rsp+0x8]
401018: nop
""")
    m.run_to({0x401018})
    rbp = m.rd_reg("rbp")
    assert m.rd_reg("rsp") == rbp - 0x10
    assert m.rd_mem(rbp - 0x8, 8) == (0x1122334455667788).to_bytes(8, "little")
    assert None not in m.regs


@pytest.mark.parametrize("line", ["pop 0x10", "lea [rbp-0x8], [rbp-0x10]"])
def test_pop_and_lea_to_a_non_register_halt_unsupported(line):
    m = _machine(f"""\
401000: push rbp
401004: mov rbp, rsp
401008: push rax
40100c: {line}
401010: nop
""")
    with pytest.raises(Halt) as end:
        m.run_to({0x401010})
    assert end.value.status == UNSUPPORTED
    assert None not in m.regs


def test_stack_is_a_window_grown_by_pages():
    from stackcheck.interp import ENTRY_RSP, PAGE, STACK_BASE, STACK_SIZE, STACK_TOP
    m = _machine("401000: nop\n")
    # start() pushed the sentinel return address just below ENTRY_RSP
    assert m.stack_lo == ENTRY_RSP - PAGE
    assert len(m.stack) == STACK_TOP - m.stack_lo
    m.wr_mem(STACK_TOP - 3 * PAGE + 5, b"\x01")
    assert m.stack_lo == STACK_TOP - 3 * PAGE
    assert len(m.stack) == 3 * PAGE
    whole = m.rd_mem(STACK_BASE, STACK_SIZE)
    assert len(whole) == STACK_SIZE
    assert whole[:STACK_SIZE - 3 * PAGE] == b"\xcc" * (STACK_SIZE - 3 * PAGE)
    assert m.rd_mem(STACK_TOP - 3 * PAGE + 4, 3) == b"\xcc\x01\xcc"
    clone = m.fork()
    assert clone.stack == m.stack and clone.stack is not m.stack


def test_cmov_executes_conditionally():
    m = _machine("""\
401000: mov rax, 0x1
401004: mov rbx, 0x2
401008: cmp rax, 0x1
40100c: cmove rcx, rbx
401010: cmp rax, 0x0
401014: cmove rdx, rbx
401018: nop
""")
    m.run_to({0x401018})
    assert m.rd_reg("rcx") == 2
    assert m.rd_reg("rdx") == 0


def test_signed_and_unsigned_branches():
    # jl follows signed comparison, jb unsigned
    out = _run_lines("""\
401000: mov rax, 0x0
401004: sub rax, 0x1
401008: cmp rax, 0x1
40100c: jl 0x401018
401010: mov rdi, 0x1
401014: ret
401018: ret
""")
    assert out.status == "clean-exit"


def test_fs_segment_read_is_canary():
    m = _machine("""\
401000: mov rax, fs:0x28
401004: nop
""")
    m.run_to({0x401004})
    assert m.rd_reg("rax") == CANARY_VALUE
    assert "rax" in m.canary_regs


def test_scanf_multiple_conversions():
    out = _run_lines("""\
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x20
40100c: mov byte [rbp-0x8], 0x25
401010: mov byte [rbp-0x7], 0x64
401014: mov byte [rbp-0x6], 0x0
401018: lea rsi, [rbp-0x10]
40101c: lea rdi, [rbp-0x8]
401020: call 0x401090 <scanf@plt>
401024: add rsp, 0x20
401028: pop rbp
40102c: ret
""", stdin=b"  1234\n")
    assert out.status == "clean-exit"


def test_printf_formats():
    out = _run_lines("""\
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x10
40100c: mov byte [rbp-0x8], 0x25
401010: mov byte [rbp-0x7], 0x64
401014: mov byte [rbp-0x6], 0x2f
401018: mov byte [rbp-0x5], 0x25
40101c: mov byte [rbp-0x4], 0x78
401020: mov byte [rbp-0x3], 0x0
401024: mov rsi, 0x2a
401028: mov rdx, 0xff
40102c: lea rdi, [rbp-0x8]
401030: call 0x401080 <printf@plt>
401034: add rsp, 0x10
401038: pop rbp
40103c: ret
""")
    assert out.status == "clean-exit"
    assert out.stdout == b"42/ff"


def test_strncpy_pads_to_exact_length():
    m = _machine("""\
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x20
40100c: mov byte [rbp-0x20], 0x41
401010: mov byte [rbp-0x1f], 0x0
401014: lea rsi, [rbp-0x20]
401018: lea rdi, [rbp-0x10]
40101c: mov edx, 0x8
401020: call 0x401035 <strncpy@plt>
401024: nop
""")
    m.run_to({0x401024})
    dest = m.rd_reg("rbp") - 0x10
    assert m.rd_mem(dest, 8) == b"A" + b"\0" * 7


def _rd_cstr_bytewise(m: Machine, addr: int, cap: int | None = None) -> bytes:
    """The reference: one rd_mem call per byte."""
    cap = cap if cap is not None else m.cfg.max_input_len * 2
    out = bytearray()
    for k in range(cap):
        b = m.rd_mem(addr + k, 1)[0]
        if b == 0:
            break
        out.append(b)
    return bytes(out)


def test_rd_cstr_matches_the_bytewise_reference():
    """Strings that start below the written window (FILL bytes), run to
    STACK_TOP and past it, live in argv, or stop at the cap."""
    from stackcheck.interp import ARGV_BASE, PAGE, STACK_TOP
    rng = random.Random(5)
    m = Machine(parse_disassembly("main:\n401000: nop\n"), Config(max_input_len=64),
                argv=("prog", "x" * 40, ""))
    m.start(0x401000)
    m.wr_mem(STACK_TOP - 2 * PAGE, bytes(rng.choice(b"\0ABC") for _ in range(2 * PAGE)))
    m.wr_mem(STACK_TOP - 48, b"Z" * 48)             # no NUL up to STACK_TOP
    starts = ([m.stack_lo - 16, m.stack_lo - 200, STACK_TOP - 48, STACK_TOP - 1, STACK_TOP,
               ARGV_BASE, ARGV_BASE + 5, ARGV_BASE + 30]
              + [rng.randrange(m.stack_lo - PAGE, STACK_TOP + 8) for _ in range(300)])
    for addr in starts:
        for cap in (None, 0, 1, 7, rng.randrange(1, 300)):
            assert m.rd_cstr(addr, cap) == _rd_cstr_bytewise(m, addr, cap), (hex(addr), cap)



def _wr_mem_bytewise(m: Machine, addr: int, data: bytes) -> bool:
    """The reference: one wr_mem per byte; whether a byte crashed the write."""
    try:
        for i, b in enumerate(data):
            m.wr_mem(addr + i, bytes([b]))
    except Halt:
        return True
    return False


def test_wr_mem_matches_bytewise_writes():
    """Writes below the stack, inside it, running past STACK_TOP and into
    argv: the same bytes land, the same write crashes, and the write marks
    span the same bytes."""
    from stackcheck.interp import ARGV_BASE, STACK_BASE, STACK_TOP
    rng = random.Random(7)
    m = Machine(parse_disassembly("main:\n401000: ret\n"), Config(), argv=("prog", "A" * 40))
    m.start(0x401000)
    starts = {"below": lambda: STACK_BASE - rng.randrange(1, 400),
              "stack": lambda: rng.randrange(STACK_BASE, STACK_TOP - 400),
              "straddle": lambda: STACK_TOP - rng.randrange(0, 300),
              "argv": lambda: ARGV_BASE + rng.randrange(0, 80)}
    for where, start in starts.items():
        for _ in range(60):
            addr, n = start(), rng.randrange(0, 301)
            data = bytes(rng.randrange(256) for _ in range(n))
            one, ref = m.fork(), m.fork()
            try:
                one.wr_mem(addr, data)
                crashed = False
            except Halt:
                crashed = True
            assert crashed == _wr_mem_bytewise(ref, addr, data), where
            assert (one.stack_lo, one.stack, one.aux) == (ref.stack_lo, ref.stack, ref.aux), where
            assert (one._wm_lo, one._wm_hi) == (ref._wm_lo, ref._wm_hi), where

def _diff_bytewise(before: Machine, after: Machine) -> list[int]:
    """The reference: every byte of both windows, each padded below with
    FILL (how unwritten bytes read) to the lower of the two."""
    from stackcheck.interp import FILL
    lo = min(before.stack_lo, after.stack_lo)
    old, new = (bytes([FILL]) * (m.stack_lo - lo) + m.stack for m in (before, after))
    return [lo + k for k, (o, n) in enumerate(zip(old, new)) if o != n]


def test_diff_stack_matches_a_bytewise_diff_of_the_whole_window():
    """Writes before and after the snapshot, writes that grow the window
    below stack_lo, writes that put back the byte already there or that
    change a byte and then restore it, sparse writes a page or more apart
    (most blocks of the marked span unchanged), and snapshots taken on a
    fork."""
    from stackcheck.interp import FILL, PAGE, STACK_TOP
    rng = random.Random(11)
    image = parse_disassembly("main:\n401000: nop\n")

    def data(n: int) -> bytes:
        return bytes(rng.choice((0, 0x41, FILL, rng.randrange(256))) for _ in range(n))

    def write(m: Machine, depth: int) -> None:
        addr = STACK_TOP - rng.randrange(1, depth)
        n = rng.randrange(1, min(64, STACK_TOP - addr) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            m.wr_mem(addr, data(n))
        elif kind == 1:                             # the bytes already there
            m.wr_mem(addr, m.rd_mem(addr, n))
        else:                                       # changed, then restored
            old = m.rd_mem(addr, n)
            m.wr_mem(addr, data(n))
            m.wr_mem(addr, old)

    kinds = set()
    for _ in range(100):
        m = Machine(image, Config())
        m.start(0x401000)
        for _ in range(rng.randrange(0, 20)):
            write(m, 2 * PAGE)
        if rng.random() < 0.5:
            m = m.fork()
            kinds.add("fork")
        before = m.fork()
        snap = m.snapshot()
        for _ in range(rng.randrange(0, 20)):
            write(m, 5 * PAGE)
        if rng.random() < 0.3:
            for page in range(1, rng.randrange(3, 40), rng.randrange(1, 3)):
                m.wr_mem(STACK_TOP - page * PAGE - rng.randrange(1, 300), data(rng.randrange(1, 9)))
            kinds.add("sparse")
        kinds.add("grown" if m.stack_lo < before.stack_lo else "same window")
        assert m.diff_stack(snap) == _diff_bytewise(before, m)
    assert kinds == {"fork", "grown", "same window", "sparse"}


# --- safecall characterization ------------------------------------------------

# A `safecall` listing: argv[0] is the source string, argv[1] the format,
# the destination is the 0x30 bytes below the saved rbp (so the runtime
# bound is 0x30), optionally holding "xy" before the call, and puts prints
# it after the call.
_SAFECALL = """\
main:
401000: push rbp
401001: mov rbp, rsp
401004: sub rsp, 0x40
401008: mov r12, [rsi]
40100c: mov r13, [rsi+0x8]
401010: mov word [rbp-0x30], {prefix}
401014: mov byte [rbp-0x2e], 0x0
{setup}
401040: safecall {template} {bound}
401044: lea rdi, [rbp-0x30]
401048: call 0x401100 <puts@plt>
40104c: mov rsp, rbp
401050: pop rbp
401051: ret
"""
# the registers each template reads, set from r12 (source) and r13 (format)
_SAFECALL_SETUP = {
    "bounded_copy": "401020: lea rdi, [rbp-0x30]\n401024: mov rsi, r12",
    "bounded_append": "401020: lea rdi, [rbp-0x30]\n401024: mov rsi, r12",
    "bounded_format": "401020: lea rdi, [rbp-0x30]\n401024: mov rsi, r13\n401028: mov rdx, r12",
    "bounded_readline": "401020: lea rdi, [rbp-0x30]",
    "bounded_scan": "401020: mov rdi, r13\n401024: lea rsi, [rbp-0x30]",
}
_SOURCES = ("q", "0123456789", "B" * 300)     # shorter than every bound, between, longer
# (destination prefix, source, format) per template: stdin is the source of
# the two readers, whose format is a %s string
_SAFECALL_CASES = {
    "bounded_copy": [("", s, "") for s in _SOURCES],
    "bounded_append": [(p, s, "") for p in ("", "xy") for s in _SOURCES],
    "bounded_format": [("", s, f) for f in ("%s", "<%s>") for s in _SOURCES],
    "bounded_readline": [("", "", "")],
    "bounded_scan": [("", "", "%s")],
}
_SAFECALL_STDINS = {"empty": b"", "line": b"abc\n", "a20": b"A" * 20, "a200": b"A" * 200}
# sha256 (first 16 hex digits) of the records of each template, bound and
# stdin: [status, cause, steps, stdout, destination bytes] per case
_SAFECALL_DIGESTS = {
    "bounded_copy": {
        "0x2": ("e7ffcd4c62fd9a7a", "e7ffcd4c62fd9a7a", "e7ffcd4c62fd9a7a", "e7ffcd4c62fd9a7a"),
        "0x3": ("8e814107245d39c5", "8e814107245d39c5", "8e814107245d39c5", "8e814107245d39c5"),
        "0x8": ("2ed006b1c30799ec", "2ed006b1c30799ec", "2ed006b1c30799ec", "2ed006b1c30799ec"),
        "0x10": ("d8a11f2c380affeb", "d8a11f2c380affeb", "d8a11f2c380affeb", "d8a11f2c380affeb"),
        "0x100": ("61a20e0bf57563cf", "61a20e0bf57563cf", "61a20e0bf57563cf", "61a20e0bf57563cf"),
        "rt": ("a115f71707dd8f90", "a115f71707dd8f90", "a115f71707dd8f90", "a115f71707dd8f90"),
    },
    "bounded_append": {
        "0x2": ("973ce93d90577990", "973ce93d90577990", "973ce93d90577990", "973ce93d90577990"),
        "0x3": ("95c7c0a05880849b", "95c7c0a05880849b", "95c7c0a05880849b", "95c7c0a05880849b"),
        "0x8": ("5c5eb5c5818527dd", "5c5eb5c5818527dd", "5c5eb5c5818527dd", "5c5eb5c5818527dd"),
        "0x10": ("9b3923ad016a2321", "9b3923ad016a2321", "9b3923ad016a2321", "9b3923ad016a2321"),
        "0x100": ("0d20ae7b138b9be3", "0d20ae7b138b9be3", "0d20ae7b138b9be3", "0d20ae7b138b9be3"),
        "rt": ("b44f056cb52b9235", "b44f056cb52b9235", "b44f056cb52b9235", "b44f056cb52b9235"),
    },
    "bounded_format": {
        "0x2": ("8a1a286227a4ff6d", "8a1a286227a4ff6d", "8a1a286227a4ff6d", "8a1a286227a4ff6d"),
        "0x3": ("9faefee5d67c4a97", "9faefee5d67c4a97", "9faefee5d67c4a97", "9faefee5d67c4a97"),
        "0x8": ("7a7bc7d9e84994f6", "7a7bc7d9e84994f6", "7a7bc7d9e84994f6", "7a7bc7d9e84994f6"),
        "0x10": ("d82770dfbbff2d4a", "d82770dfbbff2d4a", "d82770dfbbff2d4a", "d82770dfbbff2d4a"),
        "0x100": ("211b29cc571180d6", "211b29cc571180d6", "211b29cc571180d6", "211b29cc571180d6"),
        "rt": ("5100bb685ffe23b0", "5100bb685ffe23b0", "5100bb685ffe23b0", "5100bb685ffe23b0"),
    },
    "bounded_readline": {
        "0x2": ("79b462344153d22c", "3837841f507bd1a5", "0f20b181086611d5", "0f20b181086611d5"),
        "0x3": ("79b462344153d22c", "c4f75695b09189a4", "936a452a0bc62e3c", "936a452a0bc62e3c"),
        "0x8": ("79b462344153d22c", "6627ba421a34121f", "ff0d17ad0f9d2147", "ff0d17ad0f9d2147"),
        "0x10": ("79b462344153d22c", "6627ba421a34121f", "b54db612d08a8b0c", "b54db612d08a8b0c"),
        "0x100": ("79b462344153d22c", "6627ba421a34121f", "15283b9c7f5adc23", "c0b492020ff64b38"),
        "rt": ("79b462344153d22c", "6627ba421a34121f", "15283b9c7f5adc23", "a5136a6f450d521b"),
    },
    "bounded_scan": {
        "0x2": ("eb239db6eab8fd64", "3dd5aa6078450e64", "f03dda53d8d9197e", "f03dda53d8d9197e"),
        "0x3": ("eb239db6eab8fd64", "6423bc0911c1574e", "53c19fb190d309ad", "53c19fb190d309ad"),
        "0x8": ("eb239db6eab8fd64", "f2f65205a8f07f61", "4e425a7b6b6f89bc", "4e425a7b6b6f89bc"),
        "0x10": ("eb239db6eab8fd64", "f2f65205a8f07f61", "0d88add287b4c96d", "0d88add287b4c96d"),
        "0x100": ("eb239db6eab8fd64", "f2f65205a8f07f61", "afd45d8a1e87972e", "3bf2ecfa8b7877af"),
        "rt": ("eb239db6eab8fd64", "f2f65205a8f07f61", "afd45d8a1e87972e", "e63903dc8e20b060"),
    },
}


def _safecall_records(template: str, bound: str, stdin: bytes) -> list:
    records = []
    for prefix, source, fmt in _SAFECALL_CASES[template]:
        image = parse_disassembly(_SAFECALL.format(
            prefix=f"{int.from_bytes(prefix.encode(), 'little'):#x}",
            setup=_SAFECALL_SETUP[template], template=template, bound=bound))
        argv = (source, fmt)
        outcome = run(image, stdin=stdin, argv=argv)
        m = Machine(image, Config(), stdin=stdin, argv=argv)
        m.start(0x401000)
        m.run_to({0x401040})
        dest = m.regs["rbp"] - 0x30
        with pytest.raises(Halt):
            m.run()
        records.append([outcome.status, outcome.cause, outcome.steps,
                        outcome.stdout.hex(), m.rd_mem(dest, 0x110).hex()])
    return records


@pytest.mark.parametrize("stdin", _SAFECALL_STDINS)
@pytest.mark.parametrize("bound", ["0x2", "0x3", "0x8", "0x10", "0x100", "rt"])
@pytest.mark.parametrize("template", _SAFECALL_CASES)
def test_safecall_characterization(template, bound, stdin):
    """Each template's run, stdout and destination bytes for each bound and
    stdin, with sources shorter and longer than the bound and an append
    onto a non-empty destination."""
    records = _safecall_records(template, bound, _SAFECALL_STDINS[stdin])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]
    assert digest == _SAFECALL_DIGESTS[template][bound][list(_SAFECALL_STDINS).index(stdin)]


@pytest.mark.parametrize("bound, fmt, stdin, dest", [
    ("0x0", "%s", b"abc\n", b"\0y\0\xcc"),       # the terminator only
    ("0x1", "%s", b"abc\n", b"\0y\0\xcc"),
    ("0x2", "%s", b"abc\n", b"a\0\0\xcc"),
    ("0x10", "%3s", b"hello\n", b"hel\0"),        # the format's width under the bound
    ("0x10", "%d", b"12 34\n", (12).to_bytes(4, "little")),
], ids=["bound-0", "bound-1", "bound-2", "width", "int"])
def test_bounded_scan_is_scanf_under_its_bound(bound, fmt, stdin, dest):
    """bounded_scan runs scanf on its format, its %s write through rsi held
    to bound - 1 bytes and the terminator, onto a destination holding "xy"."""
    image = parse_disassembly(_SAFECALL.format(prefix="0x7978",
                                               setup=_SAFECALL_SETUP["bounded_scan"],
                                               template="bounded_scan", bound=bound))
    m = Machine(image, Config(), stdin=stdin, argv=("", fmt))
    m.start(0x401000)
    m.run_to({0x401044})
    assert m.rd_mem(m.regs["rbp"] - 0x30, 4) == dest
