"""Property parsing, atom evaluation and monitor compilation."""

from __future__ import annotations

import random

import pytest

from stackcheck.ltl import (AllRange, Always, ByteAtom, EvalContext,
                            ForallStack,
                            PrevTransition, PropertySyntaxError, UnknownOperator,
                            UnsupportedFragment, compile_monitor, eval_atom,
                            eval_body, load_bundled_properties, parse_property,
                            parse_property_file)
from stackcheck.memstace import (ByteOp, ByteState, Fe, MemoryState, Push,
                                 TransitionLabel, apply_memory_operator,
                                 fresh_frame, register_buffer)


C, F, O, M = ByteState.CRITICAL, ByteState.FREE, ByteState.OCCUPIED, ByteState.MODIFIED

RIP_TEXT = "G (forall_stack f . all i in 0..7 : byte(i, stack(f)) = Critical)"


def _prologue_and_smashed_states():
    """A freshly prologued frame and its post-overflow counterpart."""
    state = MemoryState(frames=(fresh_frame("copy"),))
    frames, _ = apply_memory_operator(state.frames, Push(ByteOp.RWRITE))
    prologue = MemoryState(frames)
    smashed_frame = prologue.top
    smashed_frame = smashed_frame.__class__(
        label="copy",
        bytes=b"M" * 16,
        buffers=smashed_frame.buffers,
        has_canary=False,
        has_rbp_slot=True)
    smashed = MemoryState(frames=(smashed_frame,),
                          incoming_label=TransitionLabel("call", 0x401118, name="strcpy"))
    return prologue, smashed


def test_parse_rip_property_shape():
    ast = parse_property(RIP_TEXT, name="RIP Integrity")
    assert isinstance(ast.formula, Always)
    body = ast.formula.body
    assert isinstance(body, ForallStack) and body.var == "f"
    rng = body.body
    assert isinstance(rng, AllRange) and (rng.lo, rng.hi) == (0, 7)
    atom = rng.body
    assert isinstance(atom, ByteAtom) and atom.state is C and atom.op == "="


def test_parse_no_gets_property():
    ast = parse_property("G (previous_transition != call_gets)")
    atom = ast.formula.body
    assert isinstance(atom, PrevTransition)
    assert atom.op == "!=" and atom.targets == (("call", "gets"),)


def test_unbalanced_formula_reports_column_three():
    with pytest.raises(PropertySyntaxError) as err:
        parse_property("G (")
    assert err.value.col == 3


def test_unknown_operator():
    with pytest.raises(UnknownOperator):
        parse_property("G (bogus(f))")


def test_future_operator_unsupported():
    with pytest.raises(UnsupportedFragment):
        parse_property("F (previous_transition != call_gets)")


def test_transition_target_set():
    ast = parse_property("G (!(previous_transition = {loop, libc}))")
    atom = ast.formula.body.operand
    assert atom.targets == (("loop",), ("libc",))


def test_bundled_file_parses_seven_properties():
    props = load_bundled_properties()
    assert [p.name for p in props] == [
        "RIP Integrity", "RBP Integrity", "No off-by-one Overflow",
        "Canary Integrity", "No Buffer Underflow by one",
        "No Buffer Overflow by one", "No gets() Usage"]
    assert props[0].cwes == ("CWE-121", "CWE-787")
    assert props[3].cwes == ()


def test_property_file_block_grammar():
    text = 'property "Demo" { ltl: G (previous_transition != call_gets) cwe: [CWE-676] }'
    props = parse_property_file(text)
    assert props[0].name == "Demo" and props[0].cwes == ("CWE-676",)


# --- atom evaluation -------------------------------------------------------------

def test_byte_atom_on_prologue_and_smashed_states():
    prologue, smashed = _prologue_and_smashed_states()
    atom = ByteAtom(index=_const(0), frame_var="f", op="=", state=C)
    assert eval_atom(atom, prologue, {"f": prologue.top})
    assert not eval_atom(atom, smashed, {"f": smashed.top})


def test_byte_atom_out_of_frame_false_with_note():
    prologue, _ = _prologue_and_smashed_states()
    ctx = EvalContext()
    atom = ByteAtom(index=_const(99), frame_var="f", op="=", state=C)
    assert not eval_atom(atom, prologue, {"f": prologue.top}, ctx)
    assert ctx.notes


def test_canary_free_frame_makes_property_vacuous():
    props = {p.name: p for p in load_bundled_properties()}
    canary = compile_monitor(props["Canary Integrity"])
    prologue, _ = _prologue_and_smashed_states()
    ctx = EvalContext()
    assert eval_body(canary.body, prologue, {}, ctx)
    assert ctx.vacuous()


def test_prev_transition_matching():
    _, smashed = _prologue_and_smashed_states()
    libc_ctx = EvalContext(libc_names={"strcpy", "gets"})
    libc_set = PrevTransition(op="=", targets=(("loop",), ("libc",)))
    assert eval_atom(libc_set, smashed, {}, libc_ctx)
    gets_only = PrevTransition(op="=", targets=(("call", "gets"),))
    assert not eval_atom(gets_only, smashed, {}, libc_ctx)
    no_gets = PrevTransition(op="!=", targets=(("call", "gets"),))
    assert eval_atom(no_gets, smashed, {}, libc_ctx)


def test_start_end_atoms_follow_index_convention():
    prologue, _ = _prologue_and_smashed_states()
    frames, _ = apply_memory_operator(prologue.frames, Fe(32))
    frame = register_buffer(frames[-1], -16, 16)
    state = MemoryState(frames=(frame,))
    env = {"f": frame, "b": (-16, 16)}
    start = ByteAtom(index=_start("b"), frame_var="f", op="=", state=F)
    end = ByteAtom(index=_end("b"), frame_var="f", op="=", state=F)
    # start is the lowest-address byte (index 31), end index 16; both free here
    assert eval_atom(start, state, env)
    assert eval_atom(end, state, env)


def _const(v):
    from stackcheck.ltl import IndexExpr
    return IndexExpr("const", v)


def _start(var):
    from stackcheck.ltl import IndexExpr
    return IndexExpr("start", 0, var)


def _end(var):
    from stackcheck.ltl import IndexExpr
    return IndexExpr("end", 0, var)


def test_quantifier_expansion_equivalence():
    # forall over a concrete state equals the explicit conjunction; exists
    # the disjunction
    rng = random.Random(7)
    body = parse_property(RIP_TEXT).formula.body
    for _ in range(50):
        state = _random_state(rng)
        ctx = EvalContext()
        got = eval_body(body, state, {}, ctx)
        explicit = all(f.bytes[0:8] == b"C" * 8 for f in state.frames)
        assert got == explicit


def test_exists_is_disjunction():
    rng = random.Random(8)
    text = "G (exists_stack f . byte(0, stack(f)) = Modified)"
    body = parse_property(text).formula.body
    for _ in range(50):
        state = _random_state(rng)
        got = eval_body(body, state, {}, EvalContext())
        assert got == any(f.bytes[:1] == b"M" for f in state.frames)


def _random_state(rng: random.Random, allow_labels=False) -> MemoryState:
    frames = []
    for k in range(rng.randrange(1, 3)):
        size = rng.choice([8, 16, 24, 48])
        content = bytes(rng.choice(b"FCOM") for _ in range(size))
        frame = fresh_frame(f"fn{k}")
        frame = frame.__class__(label=f"fn{k}", bytes=content,
                                buffers=frozenset(), has_canary=rng.random() < 0.3,
                                has_rbp_slot=size >= 16)
        frames.append(frame)
    label = None
    if allow_labels and rng.random() < 0.7:
        kind = rng.choice(["push", "write", "loop", "call"])
        name = rng.choice(["strcpy", "gets", "helper"]) if kind == "call" else None
        label = TransitionLabel(kind, 0x400000 + rng.randrange(256), name=name)
    return MemoryState(frames=tuple(frames), incoming_label=label)


# --- monitors ---------------------------------------------------------------------

def test_monitor_shape_two_states_reject_absorbing():
    monitor = compile_monitor(parse_property(RIP_TEXT, name="RIP Integrity"))
    assert monitor.states == ("run", "reject")
    assert monitor.accepting == ("reject",)
    pos = monitor.positive_form()
    assert len(pos["states"]) == 1
    assert len(pos["transitions"]) == 1
    src, _, dst = pos["transitions"][0]
    assert src == dst


def test_monitor_reject_absorbing():
    monitor = compile_monitor(parse_property(RIP_TEXT))
    prologue, smashed = _prologue_and_smashed_states()
    ctx = EvalContext()
    assert monitor.step("run", prologue, ctx) == "run"
    assert monitor.step("run", smashed, ctx) == "reject"
    assert monitor.step("reject", prologue, ctx) == "reject"


def test_always_true_never_rejects():
    monitor = compile_monitor(parse_property("G (true)"))
    rng = random.Random(3)
    for _ in range(100):
        state = _random_state(rng, allow_labels=True)
        assert monitor.step("run", state, EvalContext()) == "run"


def test_all_seven_compile_with_single_loop_positive_form():
    for prop in load_bundled_properties():
        monitor = compile_monitor(prop)
        pos = monitor.positive_form()
        assert len(pos["states"]) == 1 and len(pos["transitions"]) == 1


def test_nested_temporal_rejected():
    with pytest.raises(UnsupportedFragment):
        compile_monitor(parse_property("G (G (true))"))


def test_monitor_soundness_brute_force():
    """Monitor reaches reject exactly on the first state falsifying the body."""
    rng = random.Random(42)
    monitors = [compile_monitor(p) for p in load_bundled_properties()]
    libc = {"strcpy", "strcat", "sprintf", "gets", "scanf", "fgets", "printf"}
    disagreements = 0
    for _ in range(200):
        trace = [_random_state(rng, allow_labels=True)
                 for _ in range(rng.randrange(1, 8))]
        for monitor in monitors:
            mstate = "run"
            reject_at = None
            for idx, st in enumerate(trace):
                mstate = monitor.step(mstate, st, EvalContext(libc_names=libc))
                if mstate == "reject":
                    reject_at = idx
                    break
            expected = None
            for idx, st in enumerate(trace):
                if not eval_body(monitor.body, st, {}, EvalContext(libc_names=libc)):
                    expected = idx
                    break
            if reject_at != expected:
                disagreements += 1
    assert disagreements == 0
