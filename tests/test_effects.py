"""Call/loop emulation, destination recovery and the input-length search."""

from __future__ import annotations

import json

import pytest

from stackcheck import interp, validator
from stackcheck.cli import analyze
from stackcheck.effects import EffectsOracle, detect_loops, load_libc_db
from stackcheck.frontend import SAFECALLS, build_bcfg, parse_disassembly
from stackcheck.interp import LIBC
from stackcheck.memstace import (Config, MemoryState, apply_effect,
                                 fresh_frame)
from stackcheck.patcher import dest_in_frame

from conftest import CORPUS_DIR, corpus_path, fixture_path, pipeline

BUNDLED_LIBC = CORPUS_DIR.parent / "data" / "libc.json"


def test_lookup_strcpy():
    spec = load_libc_db()["strcpy"]
    assert spec.extent == "strcpy"
    assert spec.dest == "rdi"


def test_lookup_gets_unbounded_input():
    spec = load_libc_db()["gets"]
    assert spec.extent == "gets"
    assert spec.dest == "rdi"


def test_bundled_libc_db_runs_each_function_as_itself():
    """Every modelled function is in the bundled database, under its own
    name; scanf writes through its second argument."""
    db = load_libc_db()
    assert {name: spec.extent for name, spec in db.items()} == {name: name for name in LIBC}
    assert db["scanf"].dest == "rsi"
    assert db["printf"].dest is None and db["puts"].dest is None


def test_a_safecall_runs_the_function_its_template_bounds():
    """Every template names a modelled function; at a safecall the oracle
    gives that function's spec under the template's name."""
    assert set(SAFECALLS.values()) <= set(LIBC)
    image = parse_disassembly("main:\n401000: safecall bounded_scan 0x8\n401004: ret\n")
    oracle = EffectsOracle(image, build_bcfg(image), Config())
    assert oracle.spec(0x401000) == LIBC["scanf"]._replace(name="bounded_scan")


def test_lookup_unknown():
    assert "qsort" not in load_libc_db()


def test_lookup_strips_plt_suffix():
    call = parse_disassembly("main:\n401000: call 0x401060 <strcpy@plt>\n").instructions[0x401000]
    assert load_libc_db()[call.callee].name == "strcpy"


def test_empty_libc_db_is_used_as_given(tmp_path):
    """A user libc database that lists no function is not replaced by the
    bundled one: `gets` has no spec, so its call is opaque and only the
    call-name property sees it."""
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


def test_libc_db_entries_need_only_extent(tmp_path):
    """A user libc entry names the modelled function a call runs as; keys
    no stage reads, roles included, change nothing, whether present or not."""
    listing = str(corpus_path("gets_rip_vuln"))
    want = [p.status for p in analyze([listing])[0].properties]
    for k, entry in enumerate(({"extent": "gets"},
                               {"arity": 1, "roles": ["dest"], "input_source": True,
                                "extent": "gets"})):
        db = tmp_path / f"libc{k}.json"     # each file is read once per process
        db.write_text(json.dumps({"gets": entry}))
        report = analyze([listing], Config(libc_db_path=str(db)))[0]
        assert [p.status for p in report.properties] == want, report.error


def test_a_libc_db_file_is_parsed_once_per_process(tmp_path, monkeypatch):
    """One corpus pass with patch and validate parses a --libc-db file once,
    not once per machine."""
    calls = []

    def counted(data):
        calls.append(data)
        return real(data)

    real = interp._parse_libc_db
    monkeypatch.setattr(interp, "_parse_libc_db", counted)
    db = tmp_path / "libc.json"
    db.write_bytes(BUNDLED_LIBC.read_bytes())
    paths = sorted(str(p) for p in CORPUS_DIR.glob("*.s"))
    reports = analyze(paths, Config(libc_db_path=str(db)), patch=True, validate=True)
    assert all(r.status != "error" for r in reports)
    assert len(calls) == 1


# --- destination recovery (patcher.dest_in_frame) --------------------------------

def test_recover_copy_arguments():
    image, bcfg, _ = pipeline(corpus_path("strcpy_rip_vuln"))
    spec = load_libc_db()["strcpy"]
    assert dest_in_frame(bcfg, 0x401118, spec)
    # as scanf, the call writes through rsi, which holds a frame slot's
    # value (the source), not a frame address
    assert not dest_in_frame(bcfg, 0x401118, load_libc_db()["scanf"])


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
    assert not dest_in_frame(bcfg, 0x40100c, load_libc_db()["gets"])


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
    assert dest_in_frame(bcfg, 0x401010, load_libc_db()["gets"])


def test_register_defined_in_one_arm_is_unknown():
    image, bcfg, _ = pipeline(fixture_path("arm_defined_reg"))
    assert not dest_in_frame(bcfg, 0x401120, load_libc_db()["gets"])


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
    assert dest_in_frame(bcfg, 0x401010, load_libc_db()["gets"])


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
    assert effect.notes == ["effect of strcpy clamped at the outermost frame"]
    assert effect.dest_size == 16


def test_strcpy_in_bounds_touches_length_plus_nul():
    # three-character source plus terminator: four touched bytes, all in-buffer
    effect, _ = _call_effect(corpus_path("strcpy_rip_ok"), 0x401128)
    touched = sorted(i for d, i in effect.touched if d == 0)
    assert touched == [28, 29, 30, 31]
    assert effect.notes == []


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


_GETS_LEAF_RETURNS_TO_00 = """\
leaf:
401100: push rbp
401104: mov rbp, rsp
401108: sub rsp, 0x30
40110c: lea rdi, [rbp-0x30]
401110: call 0x401060 <gets@plt>
401114: add rsp, 0x30
401118: pop rbp
40111c: ret
main:
4011f0: endbr64
4011f4: push rbp
4011f8: mov rbp, rsp
4011fc: call 0x401100 <leaf>
401200: pop rbp
401204: ret
"""


def test_gets_crash_input_changes_a_zero_return_address_byte():
    """leaf returns to 0x401200, so the low byte of its saved return address
    is already 0x00: a terminator landing there changes nothing, and the
    crashing input needs one byte more to reach the return address."""
    cfg = Config()
    image = parse_disassembly(_GETS_LEAF_RETURNS_TO_00)
    oracle = EffectsOracle(image, build_bcfg(image), cfg)
    oracle.set_root(image.functions["main"])
    effect = oracle.call_effect(0x401110)
    assert effect.concrete_input == b"A" * 57 + b"\n"
    assert any((0, i) in effect.touched for i in range(8))
    outcome = validator.run(image, effect.concrete_input, cfg)
    assert (outcome.status, outcome.cause) == ("crash", "return-address-corrupted")


def _cstr(off: int, text: str) -> list[str]:
    """The stores writing `text` and its terminator at rbp-off."""
    return [f"mov byte [rbp-{off - k:#x}], {b:#x}"
            for k, b in enumerate(text.encode() + b"\0")]


# setup lines before the call, named after the function called; main's
# 16-byte buffer is at rbp-0x10, above the root frame's saved rbp (0 in
# emulation) and return address
_ONE_CALL = {
    "strcpy": _cstr(0x30, "hey") + ["lea rsi, [rbp-0x30]", "lea rdi, [rbp-0x10]"],
    "strcpy-unresolved-source": ["mov rsi, 0x0", "lea rdi, [rbp-0x10]"],
    "strncpy": _cstr(0x30, "hey") + ["mov rdx, 0x20", "lea rsi, [rbp-0x30]",
                                     "lea rdi, [rbp-0x10]"],
    "strcat": _cstr(0x10, "ab") + _cstr(0x30, "0123456789abcdef") + [
        "lea rsi, [rbp-0x30]", "lea rdi, [rbp-0x10]"],
    "sprintf": _cstr(0x20, "%s!") + _cstr(0x40, "0123456789abcdefghijk") + [
        "lea rdx, [rbp-0x40]", "lea rsi, [rbp-0x20]", "lea rdi, [rbp-0x10]"],
    "snprintf": _cstr(0x20, "%s!") + _cstr(0x40, "0123456789abcdefghijk") + [
        "lea rcx, [rbp-0x40]", "lea rdx, [rbp-0x20]", "mov rsi, 0x8", "lea rdi, [rbp-0x10]"],
    "gets": ["lea rdi, [rbp-0x10]"],
    "fgets": ["mov rdx, 0x0", "mov rsi, 0x40", "lea rdi, [rbp-0x10]"],
    "memset": ["mov rdx, 0x20", "mov rsi, 0x0", "lea rdi, [rbp-0x10]"],
    "printf": _cstr(0x30, "%s!") + ["lea rsi, [rbp-0x10]", "lea rdi, [rbp-0x30]"],
    "puts": ["lea rdi, [rbp-0x10]"],
    "scanf-width": _cstr(0x30, "%7s") + ["lea rsi, [rbp-0x8]", "lea rdi, [rbp-0x30]"],
}

# (touched as (depth, lowest index, highest index) runs, crash input, notes)
_ONE_CALL_EFFECT = {
    "strcpy": ([(0, 28, 31)], None, []),
    # rsi = 0: read as max_input_len attacker bytes, which run past STACK_TOP
    "strcpy-unresolved-source": ([(0, 0, 31)], None,
                                 ["effect of strcpy clamped at the outermost frame"]),
    "strncpy": ([(0, 0, 31)], None, []),
    # the terminator lands on the saved rbp's low byte, already 0
    "strcat": ([(0, 14, 29)], None, []),
    "sprintf": ([(0, 10, 31)], None, []),
    "snprintf": ([(0, 24, 31)], None, []),
    "gets": ([(0, 7, 31)], b"A" * 24 + b"\n", []),
    "fgets": ([(0, 7, 31)], b"A" * 24 + b"\n", []),
    "memset": ([(0, 0, 31)], None, []),
    "printf": ([], None, []),
    "puts": ([], None, []),
    # %7s reads at most 7 bytes, so the 8-byte buffer holds them
    "scanf-width": ([(0, 16, 23)], None, []),
}


def _runs(touched) -> list[tuple[int, int, int]]:
    out: list[list[int]] = []
    for d, i in sorted(set(touched)):
        if out and out[-1][0] == d and out[-1][2] == i - 1:
            out[-1][2] = i
        else:
            out.append([d, i, i])
    return [tuple(r) for r in out]


@pytest.mark.parametrize("case", sorted(_ONE_CALL))
def test_one_call_effect_of_each_modelled_function(case):
    """One call of each bundled libc function into main's buffer: the
    touched bytes, the derived crash input and the notes."""
    setup = _ONE_CALL[case]
    body = ["push rbp", "mov rbp, rsp", "sub rsp, 0x40", *setup,
            f"call 0x401f00 <{case.split('-')[0]}@plt>", "add rsp, 0x40", "pop rbp", "ret"]
    image = parse_disassembly("main:\n" + "".join(
        f"{0x401000 + 4 * k:x}: {text}\n" for k, text in enumerate(body)))
    oracle = EffectsOracle(image, build_bcfg(image), Config())
    oracle.set_root(image.functions["main"])
    effect = oracle.call_effect(0x401000 + 4 * (3 + len(setup)))
    assert (_runs(effect.touched), effect.concrete_input, effect.notes) == \
        _ONE_CALL_EFFECT[case]


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
    machine.run_to({0x401128})
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


# a fill loop writing 0xa0 bytes into a 0x80-byte buffer: the last 32
# reach the saved base register and return address
FILL_160 = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x80
40100c: lea rax, [rbp-0x80]
401010: mov rcx, 0x0
401014: mov byte [rax], 0x41
401018: add rax, 0x1
40101c: add rcx, 0x1
401020: cmp rcx, 0xa0
401024: jne 0x401014
401028: add rsp, 0x80
40102c: pop rbp
401030: ret
"""


def test_loop_cut_short_by_its_budget_is_inconclusive(tmp_path):
    """The iteration budget stops the fill loop before it writes past the
    buffer; the partial effect truncates the root instead of reading clean."""
    path = tmp_path / "fill_160.s"
    path.write_text(FILL_160)
    report = analyze([str(path)])[0]
    assert report.status == "inconclusive" and report.truncated
    assert "loop at 0x401014: iteration budget (64) exhausted; effect may be partial" \
        in report.notes
    report = analyze([str(path)], Config(max_loop_iters=512))[0]
    assert report.status == "vulnerable"
    assert not any("iteration budget" in n for n in report.notes)


def test_unreached_loop_is_inconclusive(tmp_path):
    """The root's run takes the branch around the loop, so the loop has no
    emulated effect: like an unreached call, it makes the root inconclusive."""
    path = tmp_path / "unreached_loop.s"
    path.write_text(FILL_160.replace("40100c: lea rax, [rbp-0x80]\n",
                                     "40100c: cmp rdi, 0x2\n"
                                     "40100d: jne 0x401028\n"
                                     "40100e: lea rax, [rbp-0x80]\n"))
    report = analyze([str(path)])[0]
    assert report.status == "inconclusive" and report.truncated, report.error
    assert "loop at 0x401014 not reached from 0x401000" in report.notes


@pytest.mark.parametrize("iters", [1, 2, 4])
def test_small_loop_budget_never_reads_a_vulnerable_listing_clean(corpus_paths,
                                                                  ground_truth, iters):
    reports = analyze([str(p) for p in corpus_paths], Config(max_loop_iters=iters))
    clean = [r.binary for r in reports
             if ground_truth[r.binary]["vulnerable"] and r.status == "clean"]
    assert not clean


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
