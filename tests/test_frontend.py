"""Parser, CFG and function-table tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from stackcheck.frontend import (USER, DuplicateFunction, MalformedLine, MEM, REG,
                                 build_bcfg, entry_point, memory_writes, parse_disassembly)

from conftest import CORPUS_DIR, FIXTURE_DIR, corpus_path, fixture_path, load_image
from test_fuzz import write_mutants

# the condensed copy body: seven lines including the call
COPY_BODY = """\
copy:
401100: push rbp
401104: mov rbp, rsp
401108: sub rsp, 0x20
40110c: mov [rbp-0x18], rdi
401110: mov rsi, [rbp-0x18]
401114: lea rdi, [rbp-0x10]
401118: call 0x401030 <strcpy@plt>
"""


def test_parse_single_push():
    image = parse_disassembly("f:\n401136: push rbp\n")
    ins = image.instructions[0x401136]
    assert ins.address == 0x401136
    assert ins.mnemonic == "push"
    assert len(ins.operands) == 1
    op = ins.operands[0]
    assert op.kind == REG and op.reg == "rbp"


def test_parse_empty_input():
    image = parse_disassembly("")
    assert image.instructions == {}
    assert image.function_headers == {}


def test_parse_copy_body_seven_instructions():
    image = parse_disassembly(COPY_BODY)
    assert len(image.instructions) == 7
    assert list(image.function_headers) == ["copy"]
    call = image.instructions[0x401118]
    assert call.target() == 0x401030
    assert call.target_symbol() == "strcpy@plt"


def test_memory_operand_fields():
    image = parse_disassembly("f:\n401000: mov [rbp-0x18], rdi\n")
    dst, src = image.instructions[0x401000].operands
    assert dst.kind == MEM and dst.base == "rbp" and dst.disp == -0x18
    assert src.kind == REG and src.reg == "rdi"


def test_segment_read_operand():
    image = parse_disassembly("f:\n401000: mov rax, fs:0x28\n")
    _, src = image.instructions[0x401000].operands
    assert src.kind == MEM and src.base == "fs" and src.disp == 0x28


def test_width_keyword_and_register_width():
    image = parse_disassembly("f:\n401000: mov byte [rbp-0x1], 0x41\n401004: mov [rbp-0x10], eax\n")
    byte_dst = image.instructions[0x401000].operands[0]
    assert byte_dst.width == 1
    reg_src = image.instructions[0x401004].operands[1]
    assert reg_src.reg == "rax" and reg_src.width == 4


def test_unknown_mnemonic_is_kept_with_warning():
    image = parse_disassembly("f:\n401000: vfmadd231pd ymm0, ymm1, ymm2\n")
    assert 0x401000 in image.instructions
    assert image.instructions[0x401000].operands == ()
    assert any("vfmadd231pd" in w for w in image.warnings)


@pytest.mark.parametrize("text, value", [("42", 42), ("-5", -5), ("007", 7)])
def test_decimal_immediate(text, value):
    src = parse_disassembly(f"f:\n401000: mov rax, {text}\n").instructions[0x401000].operands[1]
    assert (src.kind, src.value) == ("immediate", value)


# texts that str.isdigit accepts, once any leading minus signs are stripped,
# and that are no ASCII decimal
@pytest.mark.parametrize("text", ["--5", "\u00b2", "0\u00b2", "\u0663", "-\u0663", "\uff17"])
def test_decimal_immediate_outside_ascii_is_a_bad_immediate(text):
    with pytest.raises(MalformedLine, match="bad immediate") as err:
        parse_disassembly(f"f:\n401000: nop\n401004: mov rax, {text}\n")
    assert err.value.lineno == 3


# a hex immediate is 0x and ASCII hex digits only: int(text, 16) alone
# would take an underscore or digits outside ASCII
@pytest.mark.parametrize("text", ["0x_1f", "0x\u0661", "0x"])
def test_hex_immediate_outside_ascii_hex_is_a_bad_immediate(text):
    with pytest.raises(MalformedLine, match="bad immediate") as err:
        parse_disassembly(f"f:\n401000: nop\n401004: mov rax, {text}\n")
    assert err.value.lineno == 3


def test_hex_immediate_digits_of_either_case():
    src = parse_disassembly("f:\n401000: mov rax, 0x1F\n").instructions[0x401000].operands[1]
    assert (src.kind, src.value) == ("immediate", 31)


# which memory operands an instruction writes, each at (disp, width)
WRITTEN = {
    "mov [rbp-0x10], 0x10": [(-0x10, 8)],
    "mov [rbp-0x10], dword [rbp-0x20]": [(-0x10, 4)],
    "add [rbp-0x10], eax": [(-0x10, 4)],
    "add [rbp-0x10], al": [(-0x10, 1)],
    "sub qword [rbp+0x8], 0x10": [(0x8, 8)],
    "xchg rax, [rbp-0x10]": [(-0x10, 8)],
    "xchg [rbp-0x10], eax": [(-0x10, 4)],
    "pop word [rsp+0x8]": [(0x8, 2)],
    "cmovl byte [rbp-0x10], rax": [(-0x10, 1)],
    "cmp [rbp-0x10], eax": [],
    "mov eax, [rbp-0x10]": [],
}


@pytest.mark.parametrize("line", WRITTEN)
def test_one_rule_says_which_memory_operands_an_instruction_writes(line):
    ins = parse_disassembly(f"f:\n401000: {line}\n").instructions[0x401000]
    assert [(op.disp, width) for op, width in memory_writes(ins)] == WRITTEN[line]


def test_malformed_line_is_fatal_with_location():
    with pytest.raises(MalformedLine) as err:
        parse_disassembly("f:\n401000: push rbp\nnot a line at all !!\n")
    assert err.value.lineno == 3


def test_safecall_operand_fields():
    image = parse_disassembly("f:\n401000: safecall bounded_copy 0x10\n"
                              "401004: safecall bounded_scan rt\n")
    static, runtime = (image.instructions[a].operands for a in (0x401000, 0x401004))
    assert static[0].symbol == "bounded_copy" and static[0].value == 0x10
    assert runtime[0].symbol == "bounded_scan" and runtime[0].value is None


def test_addresses_must_increase():
    with pytest.raises(MalformedLine):
        parse_disassembly("f:\n401004: nop\n401000: nop\n")


def test_duplicate_function_rejected():
    with pytest.raises(DuplicateFunction):
        parse_disassembly("f:\n401000: nop\nf:\n401004: nop\n")


def test_comments_ignored():
    image = parse_disassembly("# header comment\nf:\n401000: nop # trailing\n")
    assert list(image.instructions) == [0x401000]


def test_round_trip_modulo_whitespace():
    text = corpus_path("strcpy_rip_vuln").read_text()
    image = parse_disassembly(text)
    reparsed = parse_disassembly(image.emit())
    assert reparsed.instructions.keys() == image.instructions.keys()
    for addr, ins in image.instructions.items():
        again = reparsed.instructions[addr]
        assert " ".join(ins.raw_text.split()) == " ".join(again.raw_text.split())
        assert again.mnemonic == ins.mnemonic
        assert again.operands == ins.operands


# --- the per-listing operand memo ----------------------------------------------

def _chain_style_listing(leaves: int = 12) -> str:
    """Leaves with one body shape, so most (mnemonic, operand text) pairs
    repeat, and a main that calls each."""
    lines, pc, entries = [], 0x401100, []
    for k in range(leaves):
        entries.append(pc)
        loop = pc + 16
        lines.append(f"leaf_{k}:")
        for text in ["push rbp", "mov rbp, rsp", "sub rsp, 0x60", "lea rax, [rbp-0x60]",
                     "mov byte [rax], 0x78", "add rax, 0x1", f"cmp rax, {k % 3:#x}",
                     f"jne {loop:#x}", "lea rsi, [rbp-0x60]", "lea rdi, [rbp-0x20]",
                     "call 0x401030 <strcpy@plt>", "add rsp, 0x60", "pop rbp", "ret"]:
            lines.append(f"{pc:x}: {text}")
            pc += 4
        pc += 0x10
    lines.append("main:")
    for text in ["push rbp", "mov rbp, rsp",
                 *(f"call {e:#x} <leaf_{k}>" for k, e in enumerate(entries)), "pop rbp", "ret"]:
        lines.append(f"{pc:x}: {text}")
        pc += 4
    return "\n".join(lines) + "\n"


def test_memo_gives_each_instruction_its_own_parse(tmp_path):
    """Every instruction equals the one its line alone parses to, in the
    corpus, the fixtures, a listing of repeated texts and the fuzz mutants;
    one operand text is one Operand within a parse, under any mnemonic,
    and never shared between two parses."""
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    texts = [p.read_text(encoding="utf-8") for p in paths] + [_chain_style_listing()]
    texts += [Path(p).read_text(encoding="utf-8") for p in write_mutants(tmp_path)]
    parsed = 0
    for text in texts:
        try:
            image = parse_disassembly(text)
        except MalformedLine:
            continue
        for addr, ins in image.instructions.items():
            assert parse_disassembly(ins.raw_text).instructions[addr] == ins
        parsed += 1
    assert parsed > len(paths)
    chain = parse_disassembly(_chain_style_listing())
    distinct = {(i.mnemonic, i.text) for i in chain.instructions.values()}
    assert len(distinct) * 4 < len(chain.instructions)
    # `sub rsp, 0x60` and `add rsp, 0x60`: two pairs, one Operand per text
    sub, add = (chain.instructions[a].operands for a in (0x401108, 0x40112c))
    assert sub == add and sub[0] is add[0] and sub[1] is add[1]
    again = parse_disassembly(_chain_style_listing()).instructions[0x401108].operands
    assert again == sub and again[0] is not sub[0] and again[1] is not sub[1]


def test_memo_keeps_each_malformed_line_number():
    lines = ["f:", "401000: nop", "401004: mov rax, [rzz]", "401008: nop", "40100c: nop",
             "401010: nop", "401014: mov rax, [rzz]", "401018: ret"]
    with pytest.raises(MalformedLine) as err:
        parse_disassembly("\n".join(lines))
    assert err.value.lineno == 3
    lines[2] = "401004: nop"
    with pytest.raises(MalformedLine) as err:
        parse_disassembly("\n".join(lines))
    assert err.value.lineno == 7
    # the text first seen under one mnemonic and again under another
    lines[2], lines[6] = "401004: mov rax, [rzz]", "401014: add rbx, [rzz]"
    with pytest.raises(MalformedLine) as err:
        parse_disassembly("\n".join(lines))
    assert err.value.lineno == 3
    lines[2] = "401004: nop"
    with pytest.raises(MalformedLine) as err:
        parse_disassembly("\n".join(lines))
    assert err.value.lineno == 7


def test_memo_checks_arity_per_mnemonic():
    with pytest.raises(MalformedLine, match="push expects 1") as err:
        parse_disassembly("f:\n401000: mov rax, rbx\n401004: push rax, rbx\n")
    assert err.value.lineno == 3


# --- CFG -------------------------------------------------------------------

def test_straight_line_copy_blocks():
    image = parse_disassembly(COPY_BODY)
    cfg = build_bcfg(image)
    # one block ending at the call; the call has no return continuation here
    assert len(cfg.blocks) == 1
    blk = cfg.blocks[0x401100]
    assert blk.instructions[-1].mnemonic == "call"
    assert blk.successors == []


def test_call_with_continuation_gets_return_edge():
    image = load_image(corpus_path("gets_rip_vuln"))
    cfg = build_bcfg(image)
    for blk in cfg.blocks.values():
        if blk.instructions[-1].mnemonic == "call":
            assert blk.successors == [image.next_in_function(blk.end)]


def test_diamond_four_blocks_four_edges():
    image = load_image(fixture_path("diamond"))
    cfg = build_bcfg(image)
    assert len(cfg.blocks) == 4
    assert sum(len(b.successors) for b in cfg.blocks.values()) == 4
    jcc_block = cfg.blocks[0x401100]
    jcc = jcc_block.instructions[-1]
    # the taken target, then the fall-through
    assert jcc_block.successors == [jcc.target(), image.next_in_function(jcc.address)]


def test_loop_back_edge_reaches_own_block():
    image = load_image(corpus_path("loop_offbyone_vuln"))
    cfg = build_bcfg(image)
    body = cfg.blocks[0x401118]
    assert 0x401118 in body.successors


def test_dangling_branch_becomes_external_sink():
    image = parse_disassembly("f:\n401000: jmp 0x500000\n")
    cfg = build_bcfg(image)
    assert cfg.warnings
    assert [b.successors for b in cfg.blocks.values()] == [[]]


def _reachable_addresses(image, cfg, start: int) -> set[int]:
    """Addresses of the blocks reached from `start` through block successors
    and the targets of user calls (`image.callees`)."""
    seen, work = set(), [start]
    while work:
        b = work.pop()
        if b in seen or b not in cfg.blocks:
            continue
        seen.add(b)
        blk = cfg.blocks[b]
        callee = image.callees.get(blk.end)
        work += blk.successors + ([callee.target] if callee and callee.kind == USER else [])
    return {i.address for b in seen for i in cfg.blocks[b].instructions}


def test_reachable_addresses_match_hand_enumeration():
    image = load_image(fixture_path("diamond"))
    cfg = build_bcfg(image)
    reachable = _reachable_addresses(image, cfg, 0x401100)
    assert reachable == set(image.instructions)


def test_every_call_has_one_return_successor(corpus_paths):
    for path in corpus_paths:
        image = load_image(path)
        cfg = build_bcfg(image)
        for blk in cfg.blocks.values():
            last = blk.instructions[-1]
            if last.mnemonic != "call":
                continue
            if image.next_pc[last.address] is None:
                continue
            assert len(blk.successors) == 1, f"{path.name} @ {last.address:#x}"


# --- function table ------------------------------------------------------------

def test_user_functions():
    image = load_image(corpus_path("strcpy_rip_vuln"))
    assert set(image.functions) == {"copy", "main"}
    assert image.owner[0x401118] == "copy"
    assert image.owner[0x401160] == "main"


def test_single_function_map():
    image = parse_disassembly("main:\n401000: ret\n")
    assert image.functions == {"main": 0x401000}


HEADERLESS = """\
401000: push rbp
401001: mov rbp, rsp
401004: ret
main:
401010: push rbp
401011: pop rbp
401012: ret
"""


def test_headerless_prefix_is_its_own_function():
    image = parse_disassembly(HEADERLESS)
    assert image.functions == {"sub_401000": 0x401000, "main": 0x401010}
    assert image.function_headers == {"main": 0x401010}
    assert [i.address for i in image.function_body("sub_401000")] == [0x401000, 0x401001,
                                                                       0x401004]
    assert image.next_in_function(0x401001) == 0x401004
    assert image.next_in_function(0x401004) is None     # main starts next
    assert image.next_in_function(0x401012) is None     # end of the listing
    assert entry_point(image) == 0x401010
    # the synthetic owner is not a header line
    assert image.emit() == HEADERLESS
    assert entry_point(parse_disassembly(HEADERLESS.replace("main:", "helper:"))) == 0x401000


def test_headerless_prefix_may_not_share_a_header_name():
    with pytest.raises(DuplicateFunction):
        parse_disassembly("401000: ret\nsub_401000:\n401010: ret\n")


def test_every_instruction_has_an_owner():
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    images = [load_image(p) for p in paths] + [parse_disassembly(HEADERLESS)]
    for image in images:
        for addr in image.order:
            fn = image.owner[addr]
            assert fn is not None and fn in image.functions
            assert image.instructions[addr] in image.function_body(fn)
        nxt_rule = {a: image.next_in_function(a) for a in image.order}
        # the successor within a function is the next listed instruction of
        # the same owner, and a function entry is never one
        for a, nxt in nxt_rule.items():
            assert nxt is None or (image.owner[nxt] == image.owner[a]
                                   and nxt not in image.functions.values())


# a canary store follows listing order: the canary in a register moves with
# `mov r, r'` and with a register-to-register `xchg`, any other write of the
# register ends it, and only a store through rbp or rsp is a canary store
FRAME_RULE = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x30
40100c: mov rax, fs:0x28
401010: mov rbx, rax
401014: mov [rbp-0x8], rbx
401018: mov [rsp+0x8], rax
40101c: mov [rdi], rax
401020: lea rax, [rbp-0x20]
401024: mov [rbp-0x10], rax
401028: mov rcx, rbx
40102c: xchg rcx, rdx
401030: mov [rbp-0x18], rcx
401034: mov [rbp-0x18], rdx
401038: pop rbx
40103c: mov [rbp-0x8], rbx
401040: ret
helper:
401050: mov rax, [rbp-0x8]
401054: ret
"""


def test_frame_facts_follow_the_one_canary_store_rule():
    image = parse_disassembly(FRAME_RULE)
    main = image.frame("main")
    # xchg rcx, rdx moves the canary from rcx to rdx
    assert main.canary_stores == {0x401014, 0x401018, 0x401034}
    assert main.whole and main.prologue
    assert main.objects == {-0x8, -0x10, -0x18, -0x20}
    assert image.frame("main") is main          # one pass per function and image
    helper = image.frame("helper")
    assert helper == (frozenset(), False, frozenset(), False)
    image.index()
    assert image.frame("main") is not main and image.frame("main") == main


def test_copy_with_epilogue_has_return_continuation_block():
    image = load_image(corpus_path("strcpy_rip_vuln"))
    cfg = build_bcfg(image)
    call_block = cfg.blocks[0x401100]
    assert call_block.instructions[-1].mnemonic == "call"
    assert call_block.successors == [0x40111c]
    continuation = cfg.blocks[0x40111c]
    assert continuation.instructions[-1].mnemonic == "ret"


def test_cfg_soundness_all_corpus_fixtures(corpus_paths):
    # no fixture has dead code: everything is reachable from the entry
    for path in corpus_paths:
        image = load_image(path)
        cfg = build_bcfg(image)
        reachable = _reachable_addresses(image, cfg, entry_point(image))
        assert reachable == set(image.instructions), path.name
