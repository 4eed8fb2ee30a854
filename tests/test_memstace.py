"""Byte automaton, frame operators and state-space construction."""

from __future__ import annotations

import random
import re
from types import SimpleNamespace

import pytest

from stackcheck.frontend import parse_disassembly
from stackcheck.memstace import (_BYTE_AUTOMATON, _TRANSLATE, ByteOp, ByteState,
                                 Config, Fe,
                                 IllegalByteTransition, MemoryState,
                                 OverlappingBuffer, PopUnderflow, POP, Push,
                                 Shrink, StackFrame, TransitionLabel, Write,
                                 _SpaceBuilder, apply_effect,
                                 apply_memory_operator, buffer_index_span,
                                 byte_transition,
                                 classify_instruction, fresh_frame,
                                 infer_buffer_size, memstace_to_dot,
                                 memstace_to_json, register_buffer, STACK_CLAMPED,
                                 STACK_SIZE)

from conftest import corpus_path, fixture_path, space_for

F, C, O, M = ByteState.FREE, ByteState.CRITICAL, ByteState.OCCUPIED, ByteState.MODIFIED
RW, NRW = ByteOp.RWRITE, ByteOp.NRWRITE

# the automaton's edge set, restated independently of the implementation
LEGAL_EDGES = {
    (F, NRW): O,
    (F, RW): C,
    (O, NRW): M,
    (C, NRW): M,
    (M, NRW): M,
}


def test_byte_automaton_examples():
    assert byte_transition(F, NRW) is O
    assert byte_transition(M, NRW) is M
    with pytest.raises(IllegalByteTransition):
        byte_transition(C, RW)


def test_byte_automaton_exhaustive():
    legal = 0
    for state in ByteState:
        for op in ByteOp:
            if (state, op) in LEGAL_EDGES:
                assert byte_transition(state, op) is LEGAL_EDGES[(state, op)]
                legal += 1
            else:
                with pytest.raises(IllegalByteTransition):
                    byte_transition(state, op)
    assert legal == 5


def test_translate_tables_agree_with_the_automaton():
    """Each operator's table maps a letter as the automaton maps its state;
    a write over a letter with no transition raises."""
    for state in ByteState:
        for op in ByteOp:
            target = _BYTE_AUTOMATON.get((state, op))
            assert _TRANSLATE[op][ord(state.value)] == (ord(target.value) if target else 0)
            frame = StackFrame("f", b"C" * 16 + state.value.encode() * 4, has_rbp_slot=True)
            before = (frame,)
            write = Write(op, "rbp", -4, 4)     # indices 19..16
            if target is None:
                with pytest.raises(IllegalByteTransition, match=state.name):
                    apply_memory_operator(before, write)
            else:
                after, _ = apply_memory_operator(before, write)
                assert after[-1].bytes == b"C" * 16 + target.value.encode() * 4


def _write_byte_by_byte(frames, start: int, width: int,
                        op: ByteOp) -> tuple[list[bytes], list[str]]:
    """Reference write: place every touched byte in touch order, continuing
    into caller frames, then one byte_transition per placed byte. A start
    below the top frame moves to its last index with a note; a byte past
    the outermost frame is left out with a note per byte."""
    rows = [[ByteState(chr(b)) for b in f.bytes] for f in frames]
    notes = []
    if start >= len(rows[-1]):
        notes.append(f"write below the allocated frame of {frames[-1].label} (index {start})")
        start = len(rows[-1]) - 1
    placed = []
    for k in range(width):
        pos, idx = len(rows) - 1, start - k
        while idx < 0 and pos > 0:
            pos -= 1
            idx += len(rows[pos])
        if idx >= 0:
            placed.append((pos, idx))
        else:
            notes.append("write continued past the outermost modeled frame; clamped")
    for pos, idx in placed:
        rows[pos][idx] = byte_transition(rows[pos][idx], op)
    return ["".join(s.value for s in row).encode() for row in rows], notes


def test_slice_translate_writes_match_byte_by_byte():
    """The closed-form runs give the reference's bytes, notes (text and
    count) and errors: rsp- and rbp-based writes, starts below the top
    frame, writes past the outermost frame, and canary stores, which mark
    only the top frame."""
    rng = random.Random(5)
    raised = 0
    for _ in range(500):
        frames = tuple(StackFrame(f"fn{k}", bytes(rng.choice(b"FCOM")
                                                 for _ in range(rng.randrange(8, 40))))
                       for k in range(rng.randrange(1, 4)))
        op = rng.choice(list(ByteOp))
        start = rng.randrange(len(frames[-1].bytes))
        width = rng.randrange(1, 48)
        write = Write(op, "rsp", len(frames[-1].bytes) - 1 - start, width)
        try:
            want, want_notes = _write_byte_by_byte(frames, start, width, op)
        except IllegalByteTransition as exc:
            raised += 1
            with pytest.raises(IllegalByteTransition, match=re.escape(str(exc))):
                apply_memory_operator(frames, write)
            continue
        after, notes = apply_memory_operator(frames, write)
        assert [f.bytes for f in after] == want
        assert notes == want_notes
    assert 50 < raised < 450

    seen = {"illegal": 0, "below": 0, "past": 0, "canary": 0}
    for _ in range(2000):
        frames = tuple(StackFrame(f"fn{k}", bytes(rng.choice(b"FCOM")
                                                 for _ in range(rng.randrange(8, 40))),
                                  has_rbp_slot=rng.random() < 0.5)
                       for k in range(rng.randrange(1, 4)))
        op, canary = rng.choice(list(ByteOp)), rng.random() < 0.3
        top = len(frames[-1].bytes)
        start, width = rng.randrange(-24, top + 8), rng.randrange(1, 48)
        if rng.random() < 0.5:
            write = Write(op, "rbp", 15 - start, width, canary=canary)
        else:
            write = Write(op, "rsp", top - 1 - start, width, canary=canary)
        before = frames
        try:
            want, want_notes = _write_byte_by_byte(frames, start, width, op)
        except IllegalByteTransition as exc:
            seen["illegal"] += 1
            with pytest.raises(IllegalByteTransition, match=re.escape(str(exc))):
                apply_memory_operator(before, write)
            continue
        after, notes = apply_memory_operator(before, write)
        assert [f.bytes for f in after] == want
        assert notes == want_notes
        assert [f.has_canary for f in after] == [False] * (len(frames) - 1) + [canary]
        assert [f.has_rbp_slot for f in after] == [f.has_rbp_slot for f in frames]
        seen["below"] += any(n.startswith("write below") for n in notes)
        seen["past"] += any(n.startswith("write continued") for n in notes)
        seen["canary"] += canary
    assert min(seen.values()) > 50, seen


def test_rle_matches_a_reference_encoding():
    rng = random.Random(11)
    for _ in range(200):
        runs = [(rng.choice("FCOM"), rng.randrange(1, 12)) for _ in range(rng.randrange(0, 8))]
        letters = "".join(letter * n for letter, n in runs)
        merged: list[list] = []
        for letter, n in runs:
            if merged and merged[-1][0] == letter:
                merged[-1][1] += n
            else:
                merged.append([letter, n])
        want = "".join(f"{n}{letter}" for letter, n in merged)
        assert StackFrame("f", letters.encode()).rle() == want


# --- classification -----------------------------------------------------------

def _operators(line: str, canary_store_sites: set[int] = frozenset()):
    """The memory operators of the one instruction in `line`."""
    image = parse_disassembly(f"f:\n{line}\n")
    ins = next(iter(image.instructions.values()))
    return classify_instruction(ins, canary_store_sites)


def _classify(line: str, canary_store_sites: set[int] = frozenset()):
    op, = _operators(line, canary_store_sites)
    return op


def test_classify_frame_extension():
    op = _classify("401000: sub rsp, 0x20")
    assert op.kind == "fe" and op.amount == 32


def test_classify_frame_store():
    op = _classify("401000: mov [rbp-0x18], rdi")
    assert op.kind == "write" and op.byte_op is NRW
    assert op.disp == -24 and op.width == 8


def test_classify_endbr64_is_frame_allocation():
    assert _classify("401000: endbr64").kind == "fa"


def test_classify_canary_store_is_risky():
    op = _classify("401000: mov [rbp-0x8], rax", {0x401000})
    assert op.byte_op is RW and op.canary


def test_classify_prologue_push_risky_only_on_fresh_frame():
    """A base-register push is classified RWrite; applying it writes
    critical bytes and a base-register slot only on a fresh frame."""
    push_rbp = _classify("401000: push rbp")
    assert push_rbp.byte_op is RW
    assert _classify("401000: push rax").byte_op is NRW
    fresh, = apply_memory_operator((fresh_frame("f"),), push_rbp)[0]
    assert fresh.bytes == b"C" * 16 and fresh.has_rbp_slot
    later, = apply_memory_operator((fresh,), push_rbp)[0]
    assert later.bytes == b"C" * 16 + b"O" * 8 and later.has_rbp_slot
    grown, = apply_memory_operator((fresh_frame("f"),), Fe(8))[0]
    pushed, = apply_memory_operator((grown,), push_rbp)[0]
    assert pushed.bytes == b"C" * 8 + b"F" * 8 + b"O" * 8 and not pushed.has_rbp_slot


def test_classify_load_and_register_moves_have_no_effect():
    assert _operators("401000: mov rsi, [rbp-0x18]") == ()
    assert _operators("401000: mov rbp, rsp") == ()
    assert _operators("401000: cmp rcx, 0x10") == ()


def test_classify_cmov_to_memory_is_write():
    op = _classify("401000: cmove [rbp-0x8], rax")
    assert op.kind == "write"


def test_classify_add_rsp_shrinks():
    assert _classify("401000: add rsp, 0x20").kind == "shrink"


def test_classify_pop_to_memory_pops_then_writes():
    """x86 computes an rsp-based destination after the increment, so the
    write follows the pop; every operand xchg writes is a write."""
    pop, write = _operators("401000: pop qword [rbp-0x10]")
    assert pop.kind == "pop"
    assert (write.kind, write.base, write.disp, write.width) == ("write", "rbp", -0x10, 8)
    assert [(op.disp, op.width) for op in _operators("401000: xchg rax, [rsp+0x8]")] == [(8, 8)]


# --- operators ------------------------------------------------------------------

def _apply(state: MemoryState, op) -> tuple[MemoryState, list[str]]:
    """apply_memory_operator on a whole state's frames."""
    frames, notes = apply_memory_operator(state.frames, op)
    return MemoryState(frames), notes


def _prologue_state() -> MemoryState:
    state = MemoryState(frames=(fresh_frame("f"),))
    state, _ = _apply(state, Push(RW))
    state, _ = _apply(state, Fe(32))
    return state


def test_fa_push_fe_snapshot():
    state = _prologue_state()
    frame = state.top
    assert frame.bytes[:16] == b"C" * 16
    assert frame.bytes[16:] == b"F" * 32
    assert frame.has_rbp_slot


def test_pop_sixteen_to_eight():
    state = MemoryState(frames=(fresh_frame("f"),))
    state, _ = _apply(state, Push(RW))
    state, _ = _apply(state, POP)
    assert len(state.top.bytes) == 8


def test_pop_underflow():
    state = MemoryState(frames=(fresh_frame("f"),))
    with pytest.raises(PopUnderflow):
        _apply(state, POP)


def test_seventeen_byte_write_marks_off_by_one():
    # write of 17 bytes starting at frame offset -16: indices 31..16 become
    # occupied and index 15 (the low saved-base-register byte) is modified
    state = _prologue_state()
    state, _ = _apply(state, Write(NRW, "rbp", -16, 17))
    frame = state.top
    assert frame.bytes[16:32] == b"O" * 16
    assert frame.bytes[15:16] == b"M"
    assert frame.bytes[14:15] == b"C"


def test_write_outside_stack_is_clamped():
    """A write past the outermost frame changes the bytes it reaches and
    notes each byte left out."""
    state = _prologue_state()
    state, notes = _apply(state, Write(NRW, "rbp", -16, 64))
    assert state.top.bytes == b"M" * 16 + b"O" * 16 + b"F" * 16
    assert notes == ["write continued past the outermost modeled frame; clamped"] * 32


def test_cross_frame_write_continuity():
    caller = _prologue_state().top
    state = MemoryState(frames=(caller, fresh_frame("g")))
    state, _ = _apply(state, Push(RW))
    # 20 bytes from the callee's offset 0 walk through its 16 bytes and
    # continue into the caller's lowest-address locals
    state, _ = _apply(state, Write(NRW, "rbp", 0, 20))
    callee, = [f for f in state.frames if f.label == "g"]
    caller_after = state.frames[0]
    assert callee.bytes[0:16] == b"M" * 16
    assert caller_after.bytes[44:48] == b"O" * 4
    assert caller_after.bytes[43:44] == b"F"


def test_rsp_relative_write():
    state = _prologue_state()
    state, _ = _apply(state, Write(NRW, "rsp", 0, 8))
    assert state.top.bytes[40:48] == b"O" * 8


def test_frame_size_changes_only_by_stack_ops():
    rng = random.Random(0)
    state = _prologue_state()
    for _ in range(200):
        before = len(state.top.bytes)
        pick = rng.randrange(4)
        if pick == 0:
            state, _ = _apply(state, Push(NRW))
            assert len(state.top.bytes) == before + 8
        elif pick == 1 and before >= 24:
            state, _ = _apply(state, POP)
            assert len(state.top.bytes) == before - 8
        elif pick == 2:
            n = rng.randrange(1, 17)
            state, _ = _apply(state, Fe(n))
            assert len(state.top.bytes) == before + n
        else:
            width = rng.randrange(1, 9)
            lo = -(before - 16)
            if lo >= 0:
                continue
            disp = rng.randrange(lo, -width + 1) if lo < -width + 1 else lo
            state, _ = _apply(state, Write(NRW, "rbp", disp, width))
            assert len(state.top.bytes) == before


def test_index_address_bijection():
    frame = _prologue_state().top
    seen = set()
    for i in range(len(frame.bytes)):
        addr = 15 - i  # rbp-relative address of index i
        assert addr not in seen
        seen.add(addr)
        assert frame.index_for_rbp_offset(addr) == i


# --- buffers ----------------------------------------------------------------------

def test_register_buffer_and_span():
    frame = _prologue_state().top
    frame = register_buffer(frame, -16, 16)
    assert frame.buffers == frozenset({(-16, 16)})
    assert buffer_index_span(frame, -16, 16) == (31, 16)


def test_register_buffer_idempotent():
    frame = register_buffer(_prologue_state().top, -16, 16)
    assert register_buffer(frame, -16, 16) is frame


def test_register_buffer_disjoint_pair():
    frame = _prologue_state().top
    frame = register_buffer(frame, -16, 8)
    frame = register_buffer(frame, -32, 16)
    assert len(frame.buffers) == 2


def test_register_buffer_overlap_rejected():
    frame = register_buffer(_prologue_state().top, -16, 16)
    with pytest.raises(OverlappingBuffer):
        register_buffer(frame, -20, 8)


def test_buffer_size_inference():
    # next higher object caps the size; the canary caps the top of the locals
    assert infer_buffer_size(-16, set(), has_canary=False) == 16
    assert infer_buffer_size(-32, {-16}, has_canary=False) == 16
    assert infer_buffer_size(-24, {-48}, has_canary=True) == 16
    assert infer_buffer_size(-48, {-24, -8}, has_canary=True) == 24


# --- state identity ---------------------------------------------------------------

def _builder() -> _SpaceBuilder:
    return _SpaceBuilder(parse_disassembly("f:\n401000: ret\n"), None, Config(), None, {})


def test_equal_frames_with_different_labels_are_different_states():
    builder = _builder()
    frames = _prologue_state().frames
    push = builder.intern(MemoryState(frames, TransitionLabel("push", 0x401000)))
    fe = builder.intern(MemoryState(frames, TransitionLabel("fe", 0x401000)))
    bare = builder.intern(MemoryState(frames))
    assert len({push, fe, bare}) == 3
    assert builder.intern(MemoryState(frames, TransitionLabel("push", 0x401000))) == push


def test_equal_states_reached_by_different_paths_share_one_id():
    """Fe(8) twice and Fe(16) once build equal (not identical) frames; the
    same label on both makes them one state, and the repeated edge is kept once."""
    builder = _builder()
    start = _prologue_state().frames
    src = builder.intern(MemoryState(start))
    twice, _ = apply_memory_operator(apply_memory_operator(start, Fe(8))[0], Fe(8))
    once, _ = apply_memory_operator(start, Fe(16))
    assert twice == once and twice is not once
    label = TransitionLabel("fe", 0x401008, text="sub rsp, 0x10")
    assert builder.emit(src, label, twice) == builder.emit(src, label, once)
    assert len(builder.states) == 2 and len(builder.transitions) == 1


def test_growth_past_the_horizon_adds_modified_bytes():
    """A push or frame extension keeps its letters below index `keep` and
    adds M from there on; a tail already cut stays cut, and writes keep M."""
    start, _ = apply_memory_operator((fresh_frame("f"),), Push(RW))
    grown, notes = apply_memory_operator(start, Fe(16), keep=20)
    assert grown[-1].bytes == b"C" * 16 + b"F" * 4 + b"M" * 12 and not notes
    pushed, _ = apply_memory_operator(grown, Push(NRW), keep=20)
    assert pushed[-1].bytes == grown[-1].bytes + b"M" * 8
    written, _ = apply_memory_operator(pushed, Write(NRW, "rbp", -24, 24))
    assert written[-1].bytes == b"C" * 16 + b"O" * 4 + b"M" * 20
    kept, _ = apply_memory_operator(start, Fe(16), keep=None)
    assert kept[-1].bytes == b"C" * 16 + b"F" * 16


def test_a_write_wholly_in_a_cut_tail_keeps_its_frames():
    """nRWrite maps M to itself: a write or effect that changes no byte
    gives back the frames (or frame) it was given; one that changes a
    byte gives new ones."""
    start, _ = apply_memory_operator((fresh_frame("main"),), Push(RW))
    frames, _ = apply_memory_operator(start + (fresh_frame("f"),), Fe(32), keep=12)
    assert frames[-1].bytes == b"C" * 8 + b"F" * 4 + b"M" * 28
    same, notes = apply_memory_operator(frames, Write(NRW, "rsp", 0, 16))
    assert same is frames and notes == []
    changed, _ = apply_memory_operator(frames, Write(NRW, "rsp", 28, 8))
    assert changed is not frames and changed[-1].bytes[8:12] == b"OOOO"
    effect = SimpleNamespace(name="loop", touched=[(0, 30), (0, 29), (1, 3)])
    after, notes = apply_effect(frames, effect)
    assert after[-1] is frames[-1] and after[0] != frames[0] and notes == []


def test_growth_past_the_modelled_stack_is_clamped():
    """All frames of a state hold at most STACK_SIZE bytes: growth past
    that is cut there, with a note."""
    frames = (fresh_frame("main"), _prologue_state().top)
    grown, notes = apply_memory_operator(frames, Fe(0x40000000))
    assert sum(len(f.bytes) for f in grown) == STACK_SIZE and notes == [STACK_CLAMPED]
    again, notes = apply_memory_operator(grown, Push(NRW))
    assert again == grown and notes == [STACK_CLAMPED]
    shrunk, _ = apply_memory_operator(grown, Shrink(0x100))
    assert apply_memory_operator(shrunk, Fe(0x100)) == (grown, [])


def _snapshot(frames) -> list:
    return [(f.label, f.bytes, f.buffers, f.has_canary, f.has_rbp_slot) for f in frames]


@pytest.mark.parametrize("op", [Push(NRW), POP, Fe(8), Shrink(8), Write(NRW, "rbp", -16, 4),
                                Write(RW, "rbp", -8, 8, canary=True)],
                         ids=["push", "pop", "fe", "shrink", "write", "canary-write"])
def test_operators_return_new_frames_and_leave_their_input(op):
    frames = (fresh_frame("main"), _prologue_state().top)
    frames, _ = apply_memory_operator(frames, Fe(16))
    before = _snapshot(frames)
    after, _ = apply_memory_operator(frames, op)
    assert type(after) is tuple and after != frames
    assert _snapshot(frames) == before


def test_effect_and_buffer_registration_leave_their_input():
    frames = _prologue_state().frames
    before = _snapshot(frames)
    effect = SimpleNamespace(name="memset", touched=[(0, 31), (0, 30)],
                             clamped=False)
    after, notes = apply_effect(frames, effect)
    assert notes == [] and after[-1].bytes[30:32] == b"OO"
    top = register_buffer(frames[-1], -16, 16)
    assert top.buffers == {(-16, 16)}
    assert _snapshot(frames) == before


def test_stack_frame_is_immutable():
    frame = fresh_frame("f")
    with pytest.raises(AttributeError):
        frame.bytes = b"M" * 8
    with pytest.raises(AttributeError):
        MemoryState((frame,)).incoming_label = TransitionLabel("push", 0)
    assert frame.bytes == b"C" * 8


# --- state-space construction -----------------------------------------------------

def test_copy_space_matches_expected_chain():
    space, _ = space_for(corpus_path("strcpy_rip_vuln"), "copy")
    kinds = [lbl.kind for _, lbl, _ in space.transitions[:5]]
    assert kinds == ["push", "fe", "write", "buffer-register", "call"]
    snapshots = [space.states[i].top for i in range(6)]
    assert snapshots[0].bytes == b"C" * 8
    assert snapshots[1].bytes == b"C" * 16
    assert snapshots[2].bytes == b"C" * 16 + b"F" * 32
    final = snapshots[5]
    assert final.bytes[:16] == b"M" * 16
    assert final.bytes[16:32] == b"O" * 16


def test_no_stack_write_function_space():
    text = """\
main:
401000: endbr64
401004: push rbp
401008: mov rbp, rsp
40100c: sub rsp, 0x10
401010: add rsp, 0x10
401014: pop rbp
401018: ret
"""
    path = _write_tmp(text)
    space, _ = space_for(path, "main")
    kinds = {lbl.kind for _, lbl, _ in space.transitions}
    assert kinds <= {"fa", "push", "fe", "pop"}
    assert "fa" in kinds


def test_diamond_paths_share_join_state():
    space, _ = space_for(fixture_path("diamond"), "main")
    incoming: dict[int, int] = {}
    for _, lbl, dst in space.transitions:
        incoming[dst] = incoming.get(dst, 0) + 1
    join_writes = [dst for _, lbl, dst in space.transitions
                   if lbl.kind == "write" and lbl.address == 0x401124]
    assert len(set(join_writes)) == 1
    assert incoming[join_writes[0]] == 2


def test_determinism_rebuild_isomorphic():
    a, _ = space_for(corpus_path("strcat_rbp_vuln"), "main")
    b, _ = space_for(corpus_path("strcat_rbp_vuln"), "main")
    assert len(a.states) == len(b.states)
    labels_a = sorted((l.kind, l.address) for _, l, _ in a.transitions)
    labels_b = sorted((l.kind, l.address) for _, l, _ in b.transitions)
    assert labels_a == labels_b


def test_state_budget_truncation():
    space, _ = space_for(corpus_path("strcpy_rip_vuln"), "copy", Config(max_states=3))
    assert space.truncated
    assert len(space.states) <= 3


def test_atomic_writes_mode():
    cfg = Config(atomic_writes=True)
    space, _ = space_for(corpus_path("strcpy_rip_vuln"), "copy", cfg)
    spill_writes = [lbl for _, lbl, _ in space.transitions
                    if lbl.kind == "write" and lbl.address == 0x40110c]
    assert len(spill_writes) == 8


def test_export_json_and_dot():
    space, _ = space_for(corpus_path("strcpy_rip_vuln"), "copy")
    doc = memstace_to_json(space)
    assert doc["initial"] == 0
    assert len(doc["nodes"]) == len(space.states)
    assert any(n["frames"][0]["rle"].startswith("8C") for n in doc["nodes"])
    dot = memstace_to_dot(space)
    assert dot.startswith("digraph") and "call strcpy" in dot


def _write_tmp(text: str):
    import tempfile
    from pathlib import Path
    f = tempfile.NamedTemporaryFile("w", suffix=".s", delete=False)
    f.write(text)
    f.close()
    return Path(f.name)
