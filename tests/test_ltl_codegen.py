"""Differential test of the generated property predicates: on every state
the pipeline builds, the function `compile_body` generates for a body and
a recursive reference evaluator with the evaluation rules written out
return the same value and leave the same EvalContext counters and notes."""

from __future__ import annotations

import pytest
from conftest import CORPUS_DIR, FIXTURE_DIR
from test_fuzz import MUTANT_CONFIG, write_mutants

from stackcheck import checker
from stackcheck.cli import analyze
from stackcheck.frontend import USER
from stackcheck.ltl import (AllRange, And, BoolLit, ByteAtom, EvalContext,
                            ExistsBuffer, ExistsStack, ForallBuffer,
                            ForallStack, HasCanary, Implies, Not, Or,
                            PrevTransition, UnsupportedFragment, compile_body,
                            compile_monitor, load_bundled_properties,
                            parse_property, parse_property_file)
from stackcheck.memstace import LIBC, RBP_RANGE, buffer_index_span

# every node kind: both buffer quantifiers, Or, Not, true/false, has_canary,
# ->, start(b)+-k and end(b)+-k, constant indices outside the frame (notes),
# ranges compiled to a slice compare (= and !=, across the saved base
# register, empty) and ranges walked index by index (nested, with several
# atoms), shadowed variables and every transition target
ALL_KINDS = """
property "buffers" {
  ltl: G (forall_stack f . forall_buffer b in f . (byte(start(b), stack(f)) != Free -> byte(end(b) - 1, stack(f)) = Free) | has_canary(f))
}
property "buffer edges" {
  ltl: G (!(exists_stack f . exists_buffer b in f . byte(end(b) + 2, stack(f)) = Modified | byte(start(b) - 3, stack(f)) = Occupied))
}
property "out of frame" {
  ltl: G (forall_stack f . byte(40, stack(f)) != Modified & byte(3, stack(f)) = Critical)
}
property "ranges" {
  ltl: G (forall_stack f . all i in 4..19 : byte(i, stack(f)) = Critical | byte(i, stack(f)) = Free)
}
property "range implies" {
  ltl: G (forall_stack f . all i in 12..40 : has_canary(f) -> byte(i, stack(f)) != Modified)
}
property "negated slice" {
  ltl: G (forall_stack f . !(all i in 0..30 : byte(i, stack(f)) != Occupied))
}
property "empty range" {
  ltl: G (exists_stack f . all i in 9..8 : byte(i, stack(f)) = Free)
}
property "nested ranges" {
  ltl: G (forall_stack f . all i in 6..9 : all j in 14..17 : byte(i, stack(f)) != Free | byte(j, stack(f)) != Modified)
}
property "constants" {
  ltl: G ((true -> false) | !false & (false | true))
}
property "transitions" {
  ltl: G (previous_transition != {loop, call_strcpy, call_puts} | forall_stack f . exists_stack g . byte(0, stack(g)) = Critical & byte(8, stack(f)) != Occupied)
}
property "libc" {
  ltl: G (previous_transition = libc -> (exists_stack f . has_canary(f)))
}
property "shadow" {
  ltl: G (forall_stack f . exists_stack f . all i in 14..17 : byte(i, stack(f)) = Critical)
}
"""

# variable and call names that are Python keywords or names the generator
# itself uses; the "plain" twin has the same formula with ordinary names
KEYWORDS = """
property "keywords" {
  ltl: G (forall_stack return . exists_buffer state in return . all ctx in 0..20 : byte(ctx, stack(return)) = Critical | byte(start(state) + 1, stack(return)) = Free)
}
property "generator names" {
  ltl: G (forall_stack t . forall_stack x . forall_buffer None in t . all v0 in 0..7 : byte(v0, stack(x)) = Critical | byte(end(None), stack(t)) != Modified)
}
property "keyword calls" {
  ltl: G (previous_transition != {call_class, call_None, call_return, call_ctx, loop})
}
"""
PLAIN = """
property "keywords" {
  ltl: G (forall_stack f . exists_buffer b in f . all i in 0..20 : byte(i, stack(f)) = Critical | byte(start(b) + 1, stack(f)) = Free)
}
property "generator names" {
  ltl: G (forall_stack f . forall_stack g . forall_buffer b in f . all i in 0..7 : byte(i, stack(g)) = Critical | byte(end(b), stack(f)) != Modified)
}
property "keyword calls" {
  ltl: G (previous_transition != {call_gets, call_strcpy, call_puts, call_sprintf, loop})
}
"""


# --- the reference evaluator ----------------------------------------------------

def _index(expr, frame, env) -> int:
    if expr.base == "const":
        return expr.value
    if expr.base == "var":
        return env[expr.var]
    start, end = buffer_index_span(frame, *env[expr.var])
    return (end if expr.base == "end" else start) + expr.value


def _byte_atoms(node):
    """Byte atoms of the propositional part; quantified bodies are not entered."""
    if isinstance(node, ByteAtom):
        yield node
    elif isinstance(node, Not):
        yield from _byte_atoms(node.operand)
    elif isinstance(node, (And, Or)):
        for item in node.items:
            yield from _byte_atoms(item)
    elif isinstance(node, Implies):
        yield from _byte_atoms(node.lhs)
        yield from _byte_atoms(node.rhs)


def _skipped(atom, env) -> bool:
    """The atom indexes a slot its frame does not hold: past the frame's
    extent, or a saved-base-register slot the prologue never pushed."""
    if atom.frame_var not in env:
        return False
    frame = env[atom.frame_var]
    idx = _index(atom.index, frame, env)
    if idx in RBP_RANGE and not frame.has_rbp_slot:
        return True
    return not 0 <= idx < len(frame.bytes)


def reference(node, state, env: dict, ctx: EvalContext) -> bool:
    if isinstance(node, ByteAtom):
        frame = env[node.frame_var]
        idx = _index(node.index, frame, env)
        if 0 <= idx < len(frame.bytes):
            return (frame.bytes[idx] == ord(node.state.value)) == (node.op == "=")
        ctx.notes.append(f"byte index {idx} outside frame {frame.label!r}; atom false")
        return False
    if isinstance(node, HasCanary):
        return env[node.frame_var].has_canary
    if isinstance(node, PrevTransition):
        want, label = node.op == "=", state.incoming_label
        if label is None or label.kind not in ("loop", "call"):
            return not want
        if label.kind == "loop":
            return (("loop",) in node.targets) == want
        # call_<name>: a library call or safecall by that name; libc: a
        # library call the database models; a user call is neither
        matched = label.calls != USER and ("call", label.name) in node.targets or (
            ("libc",) in node.targets and label.calls == LIBC)
        return matched == want
    if isinstance(node, BoolLit):
        return node.value
    if isinstance(node, Not):
        return not reference(node.operand, state, env, ctx)
    if isinstance(node, And):
        return all(reference(item, state, env, ctx) for item in node.items)
    if isinstance(node, Or):
        return any(reference(item, state, env, ctx) for item in node.items)
    if isinstance(node, Implies):
        ctx.implications += 1
        if not reference(node.lhs, state, env, ctx):
            return True
        ctx.antecedents_true += 1
        return reference(node.rhs, state, env, ctx)
    if isinstance(node, (ForallStack, ExistsStack, ForallBuffer, ExistsBuffer)):
        domain = state.frames if isinstance(node, (ForallStack, ExistsStack)) \
            else sorted(env[node.frame_var].buffers)
        ctx.quantifier_domains += 1
        if not domain:
            ctx.empty_domains += 1
        check = all if isinstance(node, (ForallStack, ForallBuffer)) else any
        return check(reference(node.body, state, {**env, node.var: item}, ctx)
                     for item in domain)
    if isinstance(node, AllRange):
        held, seen = True, False
        atoms = list(_byte_atoms(node.body))
        for i in range(node.lo, node.hi + 1):
            inner = {**env, node.var: i}
            if atoms and all(_skipped(a, inner) for a in atoms):
                continue
            seen = True
            if not reference(node.body, state, inner, ctx):
                held = False
        if not seen:
            ctx.quantifier_domains += 1
            ctx.empty_domains += 1
        return held
    raise TypeError(node)


# --- the states ------------------------------------------------------------------

def _listing(functions: list[tuple[str, list[str]]]) -> str:
    """Functions at consecutive 4-byte addresses. In a body line `{k}` is
    the address of line k of the same body and `{name}` the entry of an
    earlier function."""
    lines, entries, pc = [], {}, 0x401100
    for name, body in functions:
        here = [f"{pc + 4 * k:#x}" for k in range(len(body))]
        lines.append(f"{name}:")
        lines += [f"{pc + 4 * k:x}: " + text.format(*here, **entries)
                  for k, text in enumerate(body)]
        entries[name] = f"{pc:#x}"
        pc += 4 * len(body) + 0x10
    return "\n".join(lines) + "\n"


def _chain(kinds: list[str]) -> str:
    """main calls one leaf per kind. A leaf fills a source buffer in a loop,
    copies it into a 16-byte buffer (`over` copies 21 bytes) and prints it;
    a `gets` leaf then reads a line into a buffer of its own."""
    leaves = []
    for k, kind in enumerate(kinds):
        body = ["push rbp", "mov rbp, rsp", "sub rsp, 0x60", "mov qword [rbp-0x10], 0x7",
                "lea rax, [rbp-0x60]", "mov rcx, 0x0",
                "mov byte [rax], 0x78", "add rax, 0x1", "add rcx, 0x1",
                f"cmp rcx, {0x14 if kind == 'over' else 0x4:#x}", "jne {6}",
                "mov byte [rax], 0x0", "lea rsi, [rbp-0x60]", "lea rdi, [rbp-0x20]",
                "call 0x401030 <strcpy@plt>", "lea rdi, [rbp-0x20]",
                "call 0x4010a0 <puts@plt>"]
        if kind == "gets":
            body += ["lea rdi, [rbp-0x30]", "call 0x401060 <gets@plt>"]
        leaves.append((f"leaf_{k}", body + ["add rsp, 0x60", "pop rbp", "ret"]))
    calls = [f"call {{leaf_{k}}} <leaf_{k}>" for k in range(len(kinds))]
    return _listing(leaves + [("main", ["endbr64", "push rbp", "mov rbp, rsp",
                                        *calls, "pop rbp", "ret"])])


def _fanout(functions: int, diamonds: int, planted: bool, whole: bool = False) -> str:
    """main calls functions that each hold if/else diamonds whose arms write
    different local bytes; a planted arm stores onto the return address.
    A `whole` function first registers a buffer, so the state space keeps
    every byte of its frames and its states double with every diamond."""
    fans = []
    for k in range(functions):
        body = ["push rbp", "mov rbp, rsp", "sub rsp, 0x20"] + ["lea rax, [rbp-0x20]"] * whole
        for j in range(diamonds):
            at = len(body)
            other = "mov qword [rbp+0x8], 0x41414141" if planted and (k, j) == (1, 1) \
                else f"mov byte [rbp-{2 * j + 2:#x}], 0x42"
            body += [f"cmp rdi, {j:#x}", f"jne {{{at + 4}}}",
                     f"mov byte [rbp-{2 * j + 1:#x}], 0x41", f"jmp {{{at + 5}}}", other]
        fans.append((f"fan_{k}", body + ["add rsp, 0x20", "pop rbp", "ret"]))
    calls = [line for k in range(functions)
             for line in (f"mov rdi, {k:#x}", f"call {{fan_{k}}} <fan_{k}>")]
    return _listing(fans + [("main", ["endbr64", "push rbp", "mov rbp, rsp",
                                      *calls, "pop rbp", "ret"])])


@pytest.fixture(scope="module")
def states(tmp_path_factory) -> list:
    """Every distinct state of every space the pipeline checks for the
    corpus, the fixtures, the fuzz mutants and generated chain and fanout
    listings."""
    tmp = tmp_path_factory.mktemp("codegen")
    generated = {"chain": _chain(["ok", "over", "gets", "ok"]),
                 "fanout": _fanout(3, 3, planted=False),
                 "fanout_planted": _fanout(3, 3, planted=True)}
    for name, text in generated.items():
        (tmp / f"{name}.s").write_text(text)
    paths = [str(p) for p in sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
             + sorted(tmp.glob("*.s"))] + write_mutants(tmp)
    seen: dict = {}
    check = checker.check

    def recording(space, *args, **kwargs):
        seen.update(dict.fromkeys(space.states.values()))
        return check(space, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "check", recording)
        reports = analyze(paths, MUTANT_CONFIG)
    assert sum(r.status != "error" for r in reports) > 100
    assert any(s.incoming_label and s.incoming_label.kind == "loop" for s in seen)
    assert {s.incoming_label.calls for s in seen if s.incoming_label} >= {USER, LIBC}
    assert any(f.buffers for s in seen for f in s.frames)
    return list(seen)


def _outcome(evaluate, node, state, env) -> tuple:
    ctx = EvalContext()
    try:
        value = evaluate(node, state, dict(env), ctx)
    except KeyError as exc:
        value = ("KeyError", exc.args)
    return (value, ctx.implications, ctx.antecedents_true, ctx.quantifier_domains,
            ctx.empty_domains, ctx.vacuous(), ctx.notes)


def _compiled(node, state, env, ctx) -> bool:
    pred = compile_body(node, tuple(env))
    return pred(state, list(env.values()), ctx)


def _assert_same(bodies: dict, states, env_of=lambda state: {}) -> None:
    for name, body in bodies.items():
        for sid, state in enumerate(states):
            env = env_of(state)
            want = _outcome(reference, body, state, env)
            got = _outcome(_compiled, body, state, env)
            assert got == want, f"{name!r} differs on state {sid}: {state}"


def _bodies(text: str) -> dict:
    return {p.name: p.formula.body for p in parse_property_file(text)}


def test_bundled_bodies_match_reference(states):
    _assert_same({p.name: p.formula.body for p in load_bundled_properties()}, states)


def test_every_node_kind_matches_reference(states):
    bodies = _bodies(ALL_KINDS)
    _assert_same(bodies, states)
    notes = set()
    for state in states:
        notes.update(_outcome(_compiled, bodies["out of frame"], state, {})[-1])
    assert any("outside frame" in n for n in notes)


def test_free_variables_match_reference(states):
    """A quantifier's body evaluated with its variable bound from outside,
    through `compile_body` with that name free, as a caller with an
    environment does."""
    bodies = {name: body.body for name, body in _bodies(ALL_KINDS).items()
              if isinstance(body, ForallStack)}
    framed = [s for s in states if s.frames]
    _assert_same(bodies, framed, lambda state: {"f": state.top})
    node = bodies["buffers"]
    state = next(s for s in framed if s.top.buffers)
    assert compile_body(node, ("f",))(state, [state.top], EvalContext()) == \
        reference(node, state, {"f": state.top}, EvalContext())


def test_unbound_variables_raise_when_reached(states):
    body = _bodies('property U { ltl: G (true | byte(0, stack(g)) = Critical) }')["U"]
    assert compile_body(body).unbound == ("g",)
    _assert_same({"U": body}, states[:50])
    reached = _bodies('property R { ltl: G (forall_stack f . byte(k, stack(f)) = Free) }')
    _assert_same(reached, [s for s in states if s.frames][:50])


def test_names_from_the_property_file_never_reach_the_source(states):
    keywords, plain = _bodies(KEYWORDS), _bodies(PLAIN)
    _assert_same(keywords, states)
    for name, body in keywords.items():
        assert compile_body(body).source == compile_body(plain[name]).source
    for prop in parse_property_file(KEYWORDS + ALL_KINDS):
        source = compile_monitor(prop).predicate.source
        assert "'" not in source and '"' not in source


def test_body_nested_deeper_than_python_compiles_is_unsupported():
    """Each quantifier is a loop, and Python compiles at most 20 nested
    loops in one function."""
    deep = "".join(f"forall_stack f{k} . " for k in range(20))
    compile_monitor(parse_property(f"G ({deep}true)"))
    with pytest.raises(UnsupportedFragment, match="nests too deeply"):
        compile_monitor(parse_property(f"G ({deep}forall_stack g . true)"))
