"""Product BFS, counterexample traces and the CWE map."""

from __future__ import annotations

import random
import tempfile
from collections import Counter
from pathlib import Path

from stackcheck import checker
from stackcheck.checker import HOLDS, INCONCLUSIVE, VIOLATED, check, map_cwe
from stackcheck.effects import EffectsOracle
from stackcheck.frontend import (DuplicateFunction, MalformedLine, build_bcfg,
                                 parse_disassembly)
from stackcheck.ltl import (EvalContext, compile_body, compile_monitor, frame_horizon,
                            load_bundled_monitors, load_bundled_properties)
from stackcheck.memstace import (Config, MemStaCe, MemoryState, StackFrame,
                                 TransitionLabel, build_memstace, fresh_frame)

from conftest import CORPUS_DIR, FIXTURE_DIR, corpus_path, space_for
from test_fuzz import MUTANTS, SEED, _mutate

PROPS = {p.name: p for p in load_bundled_properties()}
LIBC = {"strcpy", "strcat", "sprintf", "gets", "scanf", "fgets", "snprintf",
        "memset", "printf", "puts", "strncpy"}


def test_copy_space_rip_violated_with_five_step_trace():
    space, oracle = space_for(corpus_path("strcpy_rip_vuln"), "copy")
    verdict = check(space, compile_monitor(PROPS["RIP Integrity"]))
    assert verdict.status == VIOLATED
    assert len(verdict.trace.steps) == 5
    last = verdict.trace.steps[-1]
    assert last.operation == "Call(strcpy)"
    deltas = {(i, b, a) for _, i, b, a in last.deltas}
    assert all((i, "C", "M") in deltas for i in range(16))


def test_loop_free_call_free_function_holds_all_seven():
    text = """\
main:
401000: endbr64
401004: push rbp
401008: mov rbp, rsp
40100c: sub rsp, 0x10
401010: mov [rbp-0x8], rdi
401014: add rsp, 0x10
401018: pop rbp
40101c: ret
"""
    f = tempfile.NamedTemporaryFile("w", suffix=".s", delete=False)
    f.write(text)
    f.close()
    space, oracle = space_for(Path(f.name), "main")
    for prop in PROPS.values():
        verdict = check(space, compile_monitor(prop))
        assert verdict.status == HOLDS, prop.name


def test_truncated_space_is_inconclusive_when_not_violated():
    space, oracle = space_for(corpus_path("strcpy_rip_vuln"), "copy", Config(max_states=3))
    assert space.truncated
    verdict = check(space, compile_monitor(PROPS["RIP Integrity"]))
    assert verdict.status == INCONCLUSIVE


def test_complete_space_never_inconclusive(corpus_paths, ground_truth):
    for path in corpus_paths:
        name = path.stem
        if "runtime" in name:
            continue  # the helper-rooted space is legitimately truncated
        image_roots = ["main"]
        for root in image_roots:
            space, oracle = space_for(path, root)
            if space.truncated:
                continue
            for prop in PROPS.values():
                verdict = check(space, compile_monitor(prop))
                assert verdict.status in (HOLDS, VIOLATED)


def test_single_step_trace_for_bare_gets():
    text = """\
main:
401000: call 0x401060 <gets@plt>
401004: ret
"""
    f = tempfile.NamedTemporaryFile("w", suffix=".s", delete=False)
    f.write(text)
    f.close()
    space, oracle = space_for(Path(f.name), "main")
    verdict = check(space, compile_monitor(PROPS["No gets() Usage"]))
    assert verdict.status == VIOLATED
    assert len(verdict.trace.steps) == 1
    assert verdict.trace.steps[-1].operation == "Call(gets)"


def test_shortest_of_two_paths_is_emitted():
    # hand-built space: a long arm and a short arm reach the same bad state
    good = MemoryState(frames=(fresh_frame("f"),))
    mid1 = MemoryState(frames=(fresh_frame("f"),),
                       incoming_label=TransitionLabel("push", 0x10))
    mid2 = MemoryState(frames=(fresh_frame("f"),),
                       incoming_label=TransitionLabel("fe", 0x14))
    bad_frame = StackFrame(label="f", bytes=b"M" * 8)
    bad = MemoryState(frames=(bad_frame,),
                      incoming_label=TransitionLabel("write", 0x18))
    space = MemStaCe(
        states={0: good, 1: mid1, 2: mid2, 3: bad},
        transitions=[
            (0, TransitionLabel("push", 0x10), 1),
            (1, TransitionLabel("fe", 0x14), 2),
            (2, TransitionLabel("write", 0x18), 3),
            (0, TransitionLabel("write", 0x18), 3),
        ],
        initial=0, root="f")
    verdict = check(space, compile_monitor(PROPS["RIP Integrity"]), LIBC)
    assert verdict.status == VIOLATED
    assert len(verdict.trace.steps) == 1


def test_trace_line_grammar():
    space, oracle = space_for(corpus_path("strcpy_rip_vuln"), "copy")
    verdict = check(space, compile_monitor(PROPS["RIP Integrity"]))
    lines = verdict.trace.render().splitlines()
    assert lines[0].startswith("0x401100: push rbp -> Push")
    assert "-> Call(strcpy)[copy](0:C->M," in lines[-1]


def test_trace_deltas_reproduce_violating_state():
    """Replaying each step's size change and byte deltas lands exactly on
    the violating state."""
    space, oracle = space_for(corpus_path("strcpy_rip_vuln"), "copy")
    verdict = check(space, compile_monitor(PROPS["RIP Integrity"]))
    target = space.states[verdict.trace.violating_state]
    # walk the recorded path states, checking the deltas describe every
    # byte-level difference along it
    path_states = [space.initial]
    cur = space.initial
    for step in verdict.trace.steps:
        nxts = [d for (s, l, d) in space.transitions
                if s == cur and l.address == step.address]
        cur = nxts[0]
        path_states.append(cur)
    for prev_id, next_id, step in zip(path_states, path_states[1:], verdict.trace.steps):
        prev, nxt = space.states[prev_id], space.states[next_id]
        expected = set()
        for pos in range(min(len(prev.frames), len(nxt.frames))):
            fb, fa = prev.frames[pos], nxt.frames[pos]
            for idx in range(min(len(fb.bytes), len(fa.bytes))):
                if fb.bytes[idx] != fa.bytes[idx]:
                    expected.add((fa.label, idx, chr(fb.bytes[idx]), chr(fa.bytes[idx])))
        assert expected == set(step.deltas)
    assert space.states[path_states[-1]].frames == target.frames


# --- brute-force oracle ---------------------------------------------------------

def enumerate_verdict(space: MemStaCe, body, depth: int = 20) -> str:
    """Independent oracle: walk every path up to `depth`, evaluating the
    property body on every state reached."""
    succ: dict[int, list[int]] = {}
    for s, _, d in space.transitions:
        succ.setdefault(s, []).append(d)
    if space.initial < 0:
        return HOLDS
    stack = [(space.initial, 0)]
    seen: set[tuple[int, int]] = set()
    while stack:
        sid, d = stack.pop()
        if (sid, d) in seen:
            continue
        seen.add((sid, d))
        if not compile_body(body)(space.states[sid], [], EvalContext()):
            return VIOLATED
        if d < depth:
            for nxt in succ.get(sid, []):
                stack.append((nxt, d + 1))
    return INCONCLUSIVE if space.truncated else HOLDS


def test_bfs_agrees_with_path_enumeration(corpus_paths):
    disagreements = []
    for path in corpus_paths:
        from conftest import pipeline
        image, bcfg, oracle = pipeline(path)
        for root in image.functions:
            space, oracle2 = space_for(path, root)
            for prop in PROPS.values():
                monitor = compile_monitor(prop)
                got = check(space, monitor).status
                want = enumerate_verdict(space, monitor.body)
                if got != want:
                    disagreements.append((path.stem, root, prop.name, got, want))
    assert disagreements == []


# --- one BFS for all properties ---------------------------------------------------

def _spaces(text: str, cfg: Config):
    """The space of every function of a listing as a root, with the bytes
    the bundled properties can read, as the pipeline builds it."""
    image = parse_disassembly(text)
    bcfg = build_bcfg(image)
    oracle = EffectsOracle(image, bcfg, cfg)
    horizon = frame_horizon(load_bundled_monitors())
    for entry in image.functions.values():
        oracle.set_root(entry)
        yield build_memstace(image, oracle, cfg, entry, horizon=horizon)


def _listings():
    """The corpus, the fixtures and the tests/test_fuzz.py mutants, each with
    the Config it is analysed under there."""
    sources = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    for path in sources:
        yield path.read_text(), Config()
    rng = random.Random(SEED)
    for _ in range(MUTANTS):
        src = rng.choice(sources)
        yield _mutate(rng, src.read_text()), Config(max_states=2000, step_budget=20000)


def _verdict_key(v):
    trace = (v.trace.to_json(), v.trace.violating_state) if v.trace else None
    return v.property_name, v.status, trace, v.vacuity_notes, v.vacuous


class _Reads(list):
    """A copy of the kernel's `live` list that records, per (position,
    state), each read that finds the monitor running: the kernel evaluates
    a body exactly where it reads its position as set."""

    def __init__(self, live, state, evaluations):
        super().__init__(live)
        self.state, self.evaluations = state, evaluations

    def __getitem__(self, k):
        on = super().__getitem__(k)
        if on:
            self.evaluations.append((k, id(self.state)))
        return on


def test_one_bfs_for_all_properties_matches_one_bfs_each(monkeypatch):
    """For every root, the all-monitor search gives each monitor the verdict,
    trace, notes and vacuity flag of a search for that monitor alone, with
    the same number of body evaluations inside the kernel, and dequeues no
    more states than the longest single search."""
    monitors = [compile_monitor(p) for p in PROPS.values()]
    evaluations: list[tuple[int, int]] = []
    compile_kernel = checker.compile_kernel

    def counting(bodies):
        kernel = compile_kernel(bodies)
        return lambda state, ctxs, live: kernel(state, ctxs, _Reads(live, state, evaluations))

    monkeypatch.setattr(checker, "compile_kernel", counting)
    roots = violated = 0
    for text, cfg in _listings():
        try:
            spaces = list(_spaces(text, cfg))
        except (MalformedLine, DuplicateFunction):
            continue
        for space in spaces:
            evaluations.clear()
            merged = check(space, monitors)
            merged_evaluations = Counter(k for k, _ in evaluations)
            dequeued = len({state for _, state in evaluations})
            # every monitor evaluates at least the initial state
            assert all(merged_evaluations[k] for k in range(len(monitors))), space.root
            longest = 0
            for k, (monitor, verdict) in enumerate(zip(monitors, merged)):
                evaluations.clear()
                alone, = check(space, [monitor])
                assert _verdict_key(verdict) == _verdict_key(alone), (space.root, monitor.name)
                assert merged_evaluations[k] == len(evaluations), (space.root, monitor.name)
                longest = max(longest, len(evaluations))
                violated += verdict.status == VIOLATED
            assert dequeued <= longest, space.root
            roots += 1
    assert roots >= 150 and violated >= 100, (roots, violated)


# --- CWE map ----------------------------------------------------------------------

def test_map_cwe_rip():
    assert map_cwe("RIP Integrity") == ["CWE-121", "CWE-787"]


def test_map_cwe_underflow():
    assert map_cwe("No Buffer Underflow by one") == ["CWE-124"]


def test_map_cwe_unknown_empty_with_warning():
    warnings: list[str] = []
    assert map_cwe("My Custom Property", warnings=warnings) == []
    assert warnings
