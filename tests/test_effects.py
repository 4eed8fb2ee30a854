"""Call/loop emulation, argument recovery and the input-length search."""

from __future__ import annotations

import pytest

from stackcheck.effects import (CONSTANT, FRAME_ADDR, FRAME_SLOT, UNKNOWN,
                                UnknownLibc, detect_loops,
                                extract_concrete_input,
                                lookup_libc, recover_arguments)
from stackcheck.frontend import parse_disassembly, build_bcfg
from stackcheck.memstace import (Config, MemoryState, apply_effect,
                                 fresh_frame)

from conftest import corpus_path, fixture_path, pipeline


def test_lookup_strcpy():
    spec = lookup_libc("strcpy")
    assert spec.arity == 2
    assert spec.roles == ("dest", "src")
    assert spec.role_register("dest") == "rdi"
    assert spec.role_register("src") == "rsi"
    assert not spec.input_source


def test_lookup_gets_unbounded_input():
    spec = lookup_libc("gets")
    assert spec.arity == 1
    assert spec.input_source


def test_lookup_unknown():
    with pytest.raises(UnknownLibc):
        lookup_libc("qsort")


def test_lookup_strips_plt_suffix():
    assert lookup_libc("strcpy@plt").name == "strcpy"


# --- argument recovery -----------------------------------------------------------

def test_recover_copy_arguments():
    image, bcfg, funcs, _ = pipeline(corpus_path("strcpy_rip_vuln"))
    args = recover_arguments(bcfg, 0x401118, lookup_libc("strcpy"))
    dest, src = args.by_role("dest"), args.by_role("src")
    assert dest.kind == FRAME_ADDR and dest.value == -16
    assert src.kind == FRAME_SLOT and src.value == -24


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
    args = recover_arguments(bcfg, 0x40100c, lookup_libc("gets"))
    dest = args.by_role("dest")
    assert dest.kind == CONSTANT and dest.value == 0


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
    args = recover_arguments(bcfg, 0x401010, lookup_libc("gets"))
    dest = args.by_role("dest")
    assert dest.kind == FRAME_ADDR and dest.value == -16
    assert len(dest.chain) == 2


def test_register_defined_in_one_arm_is_unknown():
    image, bcfg, funcs, _ = pipeline(fixture_path("arm_defined_reg"))
    args = recover_arguments(bcfg, 0x401120, lookup_libc("gets"))
    assert args.by_role("dest").kind == UNKNOWN


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
    args = recover_arguments(bcfg, 0x401010, lookup_libc("gets"))
    assert args.by_role("dest").kind == FRAME_ADDR


# --- call emulation ----------------------------------------------------------------

def _call_effect(path, site, root="main"):
    cfg = Config()
    image, bcfg, funcs, oracle = pipeline(path, cfg)
    oracle.set_root(funcs.entries[root])
    return oracle.call_effect(site), oracle


def test_strcpy_overflow_touches_control_and_beyond():
    effect, _ = _call_effect(corpus_path("strcpy_rip_vuln"), 0x401118, root="copy")
    touched = {(d, i) for d, i, _ in effect.touched}
    assert {(0, i) for i in range(32)} <= touched
    assert effect.clamped
    assert effect.dest_size == 16


def test_strcpy_in_bounds_touches_length_plus_nul():
    # three-character source plus terminator: four touched bytes, all in-buffer
    effect, _ = _call_effect(corpus_path("strcpy_rip_ok"), 0x401128)
    touched = sorted(i for d, i, _ in effect.touched if d == 0)
    assert touched == [28, 29, 30, 31]
    assert not effect.clamped


def test_gets_minimal_corrupting_length_is_24():
    effect, _ = _call_effect(corpus_path("gets_rip_vuln"), 0x401114)
    assert effect.corrupting_len == 24
    assert effect.expected_cause == "return-address-corrupted"
    # the terminator lands on the first return-address byte
    assert (0, 7) in {(d, i) for d, i, _ in effect.touched}


def test_gets_monotone_corruption():
    cfg = Config()
    image, bcfg, funcs, oracle = pipeline(corpus_path("gets_rip_vuln"), cfg)
    oracle.set_root(funcs.entries["main"])
    effect = oracle.call_effect(0x401114)
    minimal = effect.corrupting_len
    # independent replay: every longer write also reaches protected bytes,
    # every shorter one does not (buffer at rbp-16, return address at rbp+8)
    for length in range(1, 64):
        reaches = length >= 24
        assert (length >= minimal) == reaches


def test_extract_input_gets():
    effect, _ = _call_effect(corpus_path("gets_rip_vuln"), 0x401114)
    crash = extract_concrete_input(effect)
    assert crash.data == b"A" * 24 + b"\n"
    assert crash.stream == "stdin"


def test_extract_input_none_for_strcpy():
    effect, _ = _call_effect(corpus_path("strcpy_rip_ok"), 0x401128)
    assert extract_concrete_input(effect) is None


def test_scanf_token_search():
    effect, _ = _call_effect(fixture_path("scanf_vuln"), 0x401124)
    assert effect.corrupting_len == 16
    crash = extract_concrete_input(effect)
    assert crash.data == b"A" * 16 + b"\n"


def test_fgets_bounded_no_crash_input():
    effect, _ = _call_effect(corpus_path("gets_rip_ok"), 0x40111c)
    assert effect.corrupting_len is None
    assert extract_concrete_input(effect) is None
    assert all(16 <= i <= 31 for d, i, _ in effect.touched if d == 0)


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
    image, bcfg, funcs, oracle = pipeline(Path(f.name), cfg)
    oracle.set_root(funcs.entries["main"])
    effect = oracle.call_effect(0x401008)
    assert effect.opaque


def test_effect_replay_matches_frame_model():
    # splicing the in-bounds strcpy effect through the frame model marks
    # exactly the occupied span the interpreter wrote
    effect, oracle = _call_effect(corpus_path("strcpy_rip_ok"), 0x401128)
    from stackcheck.memstace import Fe, Push, ByteOp as BO, apply_memory_operator
    state = MemoryState(frames=(fresh_frame("main"),))
    state, _ = apply_memory_operator(state, Push(BO.RWRITE))
    state, _ = apply_memory_operator(state, Fe(0x20))
    after, notes = apply_effect(state, effect)
    occupied = {i for i, b in enumerate(after.top.bytes) if b == ord("O")}
    assert occupied == {28, 29, 30, 31}


# --- loops -----------------------------------------------------------------------

def test_detect_single_loop():
    image, bcfg, funcs, _ = pipeline(corpus_path("strcpy_rip_vuln"))
    loops = detect_loops(bcfg, funcs)
    assert len(loops) == 1
    loop = loops[0]
    assert loop.function == "main"
    assert loop.entry == 0x401148
    assert loop.exit == 0x40115c
    assert not loop.irreducible


def test_loop_free_function_has_no_loops():
    image, bcfg, funcs, _ = pipeline(corpus_path("gets_rip_vuln"))
    assert detect_loops(bcfg, funcs) == []


def test_nested_loops_inner_inside_outer():
    image, bcfg, funcs, _ = pipeline(fixture_path("nested_loops"))
    loops = sorted(detect_loops(bcfg, funcs), key=lambda l: len(l.body))
    assert len(loops) == 2
    inner, outer = loops
    assert inner.body < outer.body
    assert inner.entry != outer.entry


def test_loop_effect_off_by_one():
    cfg = Config()
    image, bcfg, funcs, oracle = pipeline(corpus_path("loop_offbyone_vuln"), cfg)
    oracle.set_root(funcs.entries["main"])
    loop = oracle.loop_at(0x401118)
    effect = oracle.loop_effect(loop)
    touched = {i for d, i, _ in effect.touched if d == 0}
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
    image, bcfg, funcs, oracle = pipeline(Path(f.name), cfg)
    loops = detect_loops(bcfg, funcs)
    assert loops
    oracle.set_root(funcs.entries["main"])
    effect = oracle.loop_effect(loops[0])
    assert effect.touched == ()


def test_loop_iteration_budget_flagged():
    cfg = Config(max_loop_iters=8)
    image, bcfg, funcs, oracle = pipeline(corpus_path("strcpy_rip_vuln"), cfg)
    loops = detect_loops(bcfg, funcs)
    oracle.set_root(funcs.entries["main"])
    effect = oracle.loop_effect(loops[0])
    assert any("iteration budget" in n for n in effect.notes)
    assert len(effect.touched) <= 9


def test_diff_minimality_against_full_stack_comparison():
    """touched must be exactly the positions whose values differ, checked
    against an independent byte-by-byte comparison of the whole stack."""
    from stackcheck.interp import Machine, STACK_BASE, STACK_SIZE
    cfg = Config()
    image, bcfg, funcs, oracle = pipeline(corpus_path("strcpy_rip_ok"), cfg)
    entry = funcs.entries["main"]
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
    touched_addrs = {frame.top_addr - idx for d, idx, _ in effect.touched if d == 0}
    assert touched_addrs == independent


def test_loop_fill_255_bytes_with_sufficient_budget():
    cfg = Config(max_loop_iters=300)
    image, bcfg, funcs, oracle = pipeline(corpus_path("strcpy_rip_vuln"), cfg)
    oracle.set_root(funcs.entries["main"])
    loop = oracle.loop_at(0x401148)
    effect = oracle.loop_effect(loop)
    touched = sorted(i for d, i, _ in effect.touched if d == 0)
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
