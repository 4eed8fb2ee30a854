"""Call/loop emulation, destination recovery and the input-length search."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from stackcheck.cli import analyze
from stackcheck.effects import UnknownLibc, detect_loops, lookup_libc
from stackcheck.frontend import parse_disassembly, build_bcfg
from stackcheck.memstace import (Config, MemoryState, apply_effect,
                                 fresh_frame)
from stackcheck.patcher import dest_in_frame

from conftest import corpus_path, fixture_path, pipeline


def test_lookup_strcpy():
    spec = lookup_libc("strcpy")
    assert spec.roles == ("dest", "src")
    assert spec.role_register("dest") == "rdi"
    assert spec.role_register("src") == "rsi"
    assert spec.extent == "strlen_src_plus_1"


def test_lookup_gets_unbounded_input():
    spec = lookup_libc("gets")
    assert spec.roles == ("dest",)
    assert spec.extent == "line_plus_1"


def test_lookup_unknown():
    with pytest.raises(UnknownLibc):
        lookup_libc("qsort")


def test_lookup_strips_plt_suffix():
    assert lookup_libc("strcpy@plt").name == "strcpy"


def test_empty_libc_db_is_used_as_given(tmp_path):
    """A user libc database that lists no function is not replaced by the
    bundled one: `gets` has no spec, so its call is opaque and only the
    call-name property sees it."""
    with pytest.raises(UnknownLibc):
        lookup_libc("gets", {})
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    cfg = Config(libc_db_path=str(empty))
    image, _, oracle = pipeline(corpus_path("gets_rip_vuln"), cfg)
    assert oracle.libc_names() == set()
    site = next(a for a, ins in image.instructions.items()
                if ins.target_symbol() == "gets@plt")
    assert oracle.spec(site) is None
    report = analyze([str(corpus_path("gets_rip_vuln"))], cfg)[0]
    assert "unknown library function 'gets'; call treated as opaque" in report.notes
    assert [p.name for p in report.properties if p.status == "violated"] == \
        ["No gets() Usage"]


def test_libc_db_entries_need_only_roles_and_extent(tmp_path):
    """A user libc entry gives a function's argument roles and write-extent
    rule; keys no stage reads change nothing, whether present or not."""
    listing = str(corpus_path("gets_rip_vuln"))
    want = [p.status for p in analyze([listing])[0].properties]
    db = tmp_path / "libc.json"
    for entry in ({"roles": ["dest"], "extent": "line_plus_1"},
                  {"arity": 1, "roles": ["dest"], "input_source": True,
                   "extent": "line_plus_1"}):
        db.write_text(json.dumps({"gets": entry}))
        report = analyze([listing], Config(libc_db_path=str(db)))[0]
        assert [p.status for p in report.properties] == want, report.error


# --- destination recovery (patcher.dest_in_frame) --------------------------------

def test_recover_copy_arguments():
    image, bcfg, _ = pipeline(corpus_path("strcpy_rip_vuln"))
    spec = lookup_libc("strcpy")
    assert dest_in_frame(bcfg, 0x401118, spec)
    # rsi, the source, holds a frame slot's value, not a frame address
    assert not dest_in_frame(bcfg, 0x401118, replace(spec, roles=("src", "dest")))


def test_recover_constant_argument():
    text = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: mov edi, 0x0
40100c: call 0x401060 <gets@plt>
401010: pop rbp
401014: ret
"""
    image = parse_disassembly(text)
    bcfg = build_bcfg(image)
    assert not dest_in_frame(bcfg, 0x40100c, lookup_libc("gets"))


def test_recover_register_chain():
    text = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: lea rax, [rbp-0x10]
40100c: mov rdi, rax
401010: call 0x401060 <gets@plt>
401014: pop rbp
401018: ret
"""
    image = parse_disassembly(text)
    bcfg = build_bcfg(image)
    assert dest_in_frame(bcfg, 0x401010, lookup_libc("gets"))


def test_register_defined_in_one_arm_is_unknown():
    image, bcfg, _ = pipeline(fixture_path("arm_defined_reg"))
    assert not dest_in_frame(bcfg, 0x401120, lookup_libc("gets"))


def test_recovery_walks_unique_predecessor():
    text = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: lea rdi, [rbp-0x10]
40100c: call 0x401060 <gets@plt>
401010: call 0x401060 <gets@plt>
401014: pop rbp
401018: ret
"""
    image = parse_disassembly(text)
    bcfg = build_bcfg(image)
    # the second call's block has a single predecessor holding the lea
    assert dest_in_frame(bcfg, 0x401010, lookup_libc("gets"))


# --- call emulation ----------------------------------------------------------------

def _call_effect(path, site, root="main"):
    cfg = Config()
    image, bcfg, oracle = pipeline(path, cfg)
    oracle.set_root(image.functions[root])
    return oracle.call_effect(site), oracle


def test_strcpy_overflow_touches_control_and_beyond():
    effect, _ = _call_effect(corpus_path("strcpy_rip_vuln"), 0x401118, root="copy")
    touched = set(effect.touched)
    assert {(0, i) for i in range(32)} <= touched
    assert effect.clamped
    assert effect.dest_size == 16


def test_strcpy_in_bounds_touches_length_plus_nul():
    # three-character source plus terminator: four touched bytes, all in-buffer
    effect, _ = _call_effect(corpus_path("strcpy_rip_ok"), 0x401128)
    touched = sorted(i for d, i in effect.touched if d == 0)
    assert touched == [28, 29, 30, 31]
    assert not effect.clamped


def test_gets_minimal_corrupting_length_is_24():
    effect, _ = _call_effect(corpus_path("gets_rip_vuln"), 0x401114)
    assert effect.concrete_input == b"A" * 24 + b"\n"
    # the terminator lands on the first return-address byte
    assert (0, 7) in effect.touched


def test_gets_monotone_corruption():
    cfg = Config()
    image, bcfg, oracle = pipeline(corpus_path("gets_rip_vuln"), cfg)
    oracle.set_root(image.functions["main"])
    effect = oracle.call_effect(0x401114)
    minimal = len(effect.concrete_input) - 1     # the input line without its newline
    # independent replay: every longer write also reaches protected bytes,
    # every shorter one does not (buffer at rbp-16, return address at rbp+8)
    for length in range(1, 64):
        reaches = length >= 24
        assert (length >= minimal) == reaches


def test_extract_input_gets():
    effect, _ = _call_effect(corpus_path("gets_rip_vuln"), 0x401114)
    assert effect.concrete_input == b"A" * 24 + b"\n"


def test_extract_input_none_for_strcpy():
    effect, _ = _call_effect(corpus_path("strcpy_rip_ok"), 0x401128)
    assert effect.concrete_input is None


def test_scanf_token_search():
    effect, _ = _call_effect(fixture_path("scanf_vuln"), 0x401124)
    assert effect.concrete_input == b"A" * 16 + b"\n"


def test_fgets_bounded_no_crash_input():
    effect, _ = _call_effect(corpus_path("gets_rip_ok"), 0x40111c)
    assert effect.concrete_input is None
    assert all(16 <= i <= 31 for d, i in effect.touched if d == 0)


def test_unknown_callee_is_opaque():
    text = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: call 0x401050 <qsort@plt>
40100c: pop rbp
401010: ret
"""
    import tempfile
    from pathlib import Path
    f = tempfile.NamedTemporaryFile("w", suffix=".s", delete=False)
    f.write(text)
    f.close()
    cfg = Config()
    image, bcfg, oracle = pipeline(Path(f.name), cfg)
    oracle.set_root(image.functions["main"])
    effect = oracle.call_effect(0x401008)
    assert effect.opaque


def test_effect_replay_matches_frame_model():
    # splicing the in-bounds strcpy effect through the frame model marks
    # exactly the occupied span the interpreter wrote
    effect, oracle = _call_effect(corpus_path("strcpy_rip_ok"), 0x401128)
    from stackcheck.memstace import Fe, Push, ByteOp as BO, apply_memory_operator
    state = MemoryState(frames=(fresh_frame("main"),))
    frames, _ = apply_memory_operator(state.frames, Push(BO.RWRITE))
    frames, _ = apply_memory_operator(frames, Fe(0x20))
    after, notes = apply_effect(frames, effect)
    occupied = {i for i, b in enumerate(after[-1].bytes) if b == ord("O")}
    assert occupied == {28, 29, 30, 31}


# --- loops -----------------------------------------------------------------------

def test_detect_single_loop():
    image, bcfg, _ = pipeline(corpus_path("strcpy_rip_vuln"))
    loops = detect_loops(bcfg, image)
    assert len(loops) == 1
    loop = loops[0]
    assert loop.function == "main"
    assert loop.entry == 0x401148
    assert loop.exit == 0x40115c
    assert not loop.irreducible


def test_loop_free_function_has_no_loops():
    image, bcfg, _ = pipeline(corpus_path("gets_rip_vuln"))
    assert detect_loops(bcfg, image) == []


def test_nested_loops_inner_inside_outer():
    image, bcfg, _ = pipeline(fixture_path("nested_loops"))
    loops = sorted(detect_loops(bcfg, image), key=lambda l: len(l.body))
    assert len(loops) == 2
    inner, outer = loops
    assert inner.body < outer.body
    assert inner.entry != outer.entry


def test_long_function_is_analysed_without_recursion(tmp_path):
    """One function of 1,000 if/else diamonds: loop detection walks its
    5,000 blocks deep, and the analysis still ends in a verdict."""
    body = ["push rbp", "mov rbp, rsp", "sub rsp, 0x10"]
    for _ in range(1000):
        first = len(body)
        body += ["cmp rdi, 0x0", f"jne {{{first + 4}}}", "mov byte [rbp-0x1], 0x61",
                 f"jmp {{{first + 5}}}", "mov byte [rbp-0x1], 0x61"]
    body += ["add rsp, 0x10", "pop rbp", "ret"]
    addrs = [hex(0x401000 + 4 * k) for k in range(len(body))]
    path = tmp_path / "diamonds.s"
    path.write_text("main:\n" + "".join(f"{a[2:]}: {text.format(*addrs)}\n"
                                        for a, text in zip(addrs, body)))
    image, bcfg, _ = pipeline(path)
    assert detect_loops(bcfg, image) == []
    report = analyze([str(path)])[0]
    assert report.status == "clean", report.error


def test_loop_effect_off_by_one():
    cfg = Config()
    image, bcfg, oracle = pipeline(corpus_path("loop_offbyone_vuln"), cfg)
    oracle.set_root(image.functions["main"])
    loop = oracle.loop_at(0x401118)
    effect = oracle.loop_effect(loop)
    touched = {i for d, i in effect.touched if d == 0}
    # one byte past the 16-byte buffer: the low saved-base-register byte
    assert touched == set(range(15, 32))


def test_zero_iteration_loop_empty_effect():
    text = """\
main:
401000: endbr64
401004: push rbp
401008: mov rbp, rsp
40100c: sub rsp, 0x10
401010: mov rcx, 0x0
401014: cmp rcx, 0x0
401018: je 0x40102c
40101c: mov byte [rbp-0x8], 0x71
401020: add rcx, 0x1
401024: cmp rcx, 0x4
401028: jne 0x401014
40102c: add rsp, 0x10
401030: pop rbp
401034: ret
"""
    import tempfile
    from pathlib import Path
    f = tempfile.NamedTemporaryFile("w", suffix=".s", delete=False)
    f.write(text)
    f.close()
    cfg = Config()
    image, bcfg, oracle = pipeline(Path(f.name), cfg)
    loops = detect_loops(bcfg, image)
    assert loops
    oracle.set_root(image.functions["main"])
    effect = oracle.loop_effect(loops[0])
    assert effect.touched == ()


def test_loop_iteration_budget_flagged():
    cfg = Config(max_loop_iters=8)
    image, bcfg, oracle = pipeline(corpus_path("strcpy_rip_vuln"), cfg)
    loops = detect_loops(bcfg, image)
    oracle.set_root(image.functions["main"])
    effect = oracle.loop_effect(loops[0])
    assert any("iteration budget" in n for n in effect.notes)
    assert len(effect.touched) <= 9


def test_diff_minimality_against_full_stack_comparison():
    """touched must be exactly the positions whose values differ, checked
    against an independent byte-by-byte comparison of the whole stack."""
    from stackcheck.interp import Machine, STACK_BASE, STACK_SIZE
    cfg = Config()
    image, bcfg, oracle = pipeline(corpus_path("strcpy_rip_ok"), cfg)
    entry = image.functions["main"]
    machine = Machine(image, cfg)
    machine.start(entry)
    machine.run_to(0x401128)
    before = machine.rd_mem(STACK_BASE, STACK_SIZE)
    src = machine.rd_cstr(machine.rd_reg("rsi"))
    machine.wr_mem(machine.rd_reg("rdi"), src + b"\0")
    after = machine.rd_mem(STACK_BASE, STACK_SIZE)
    independent = {STACK_BASE + off for off in range(len(before))
                   if before[off] != after[off]}

    oracle.set_root(entry)
    effect = oracle.call_effect(0x401128)
    frame = machine.shadow[-1]
    touched_addrs = {frame.top_addr - idx for d, idx in effect.touched if d == 0}
    assert touched_addrs == independent


def test_loop_fill_255_bytes_with_sufficient_budget():
    cfg = Config(max_loop_iters=300)
    image, bcfg, oracle = pipeline(corpus_path("strcpy_rip_vuln"), cfg)
    oracle.set_root(image.functions["main"])
    loop = oracle.loop_at(0x401148)
    effect = oracle.loop_effect(loop)
    touched = sorted(i for d, i in effect.touched if d == 0)
    # 255 writes inside the 256-byte buffer (indices 17..271); index 16,
    # the last buffer byte, stays untouched
    assert len(touched) == 255
    assert touched[0] == 17 and touched[-1] == 271
    assert not effect.notes


def test_self_call_recursion_finishes_within_timeout(tmp_path):
    """A call back into its own loop recurses until the step budget, leaving
    thousands of shadow frames; placing the touched bytes must stay linear
    in them, so a 2 s timeout does not change the report."""
    from stackcheck.cli import analyze
    text = fixture_path("nested_loops").read_text()
    assert "40112c: jne 0x40111c" in text
    path = tmp_path / "self_call.s"
    path.write_text(text.replace("40112c: jne 0x40111c", "40112c: call 0x40111c"))

    def report(cfg):
        out = analyze([str(path)], cfg)[0].to_json()
        out.pop("timings")
        return out

    assert report(Config(timeout=2)) == report(Config())


def _apply_payload_per_byte(clone, addr: int, data: bytes) -> bool:
    """The reference: one write per byte, stopping at the first byte
    outside the stack and the aux area."""
    for i, b in enumerate(data):
        a = addr + i
        if not (clone.in_stack(a) or a in clone.aux):
            return True
        clone.wr_mem(a, bytes([b]))
    return False


def test_apply_payload_matches_per_byte_writes():
    import random
    from stackcheck.effects import _apply_payload
    from stackcheck.interp import ARGV_BASE, STACK_BASE, STACK_TOP, Machine
    rng = random.Random(7)
    machine = Machine(parse_disassembly("main:\n401000: ret\n"), Config(),
                      argv=("prog", "A" * 40))
    machine.start(0x401000)
    starts = {"below": lambda: STACK_BASE - rng.randrange(1, 400),
              "stack": lambda: rng.randrange(STACK_BASE, STACK_TOP - 400),
              "straddle": lambda: STACK_TOP - rng.randrange(0, 300),
              "argv": lambda: ARGV_BASE + rng.randrange(0, 80)}
    for where, start in starts.items():
        for _ in range(60):
            addr, n = start(), rng.randrange(0, 301)
            data = bytes(rng.randrange(256) for _ in range(n))
            one, ref = machine.fork(), machine.fork()
            assert _apply_payload(one, addr, data) == _apply_payload_per_byte(ref, addr, data)
            assert (one.stack_lo, one.stack, one.aux) == (ref.stack_lo, ref.stack, ref.aux), where
            assert (one._wm_lo, one._wm_hi) == (ref._wm_lo, ref._wm_hi), where
