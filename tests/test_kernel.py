"""Differential test of the checker's kernel: the search that evaluates
every property at a state in one call of the function `ltl.compile_kernel`
generates, against a search that steps each `Monitor` on its own. Both
must give every property the same status, path, notes, EvalContext
counters, vacuity flag and timeout flag."""

from __future__ import annotations

import gc
from collections import deque

import pytest
from test_checker import _listings, _spaces
from test_ltl_codegen import ALL_KINDS, _chain, _fanout

from stackcheck import checker, cli, ltl
from stackcheck.checker import HOLDS, INCONCLUSIVE, VIOLATED
from stackcheck.frontend import DuplicateFunction, MalformedLine
from stackcheck.ltl import (REJECT, RUN, EvalContext, compile_monitor,
                            load_bundled_monitors, parse_property,
                            parse_property_file)
from stackcheck.memstace import DEADLINE_EVERY, Config

CHECK = checker.check


def _counters(ctx: EvalContext) -> tuple:
    return ctx.implications, ctx.antecedents_true, ctx.quantifier_domains, ctx.empty_domains


def _stepped(space, monitors, expire_at: int | None = None) -> list[tuple]:
    """The reference: a BFS that steps every monitor at every dequeued
    state, each through its own `Monitor.step`; with `expire_at`, the
    search stops at that dequeue, as the checker's does past its deadline."""
    ctxs = [EvalContext() for _ in monitors]
    if space.initial < 0:
        return [(m.name, HOLDS, None, ["empty state space"], _counters(ctx), False, False)
                for m, ctx in zip(monitors, ctxs)]
    succ: dict = {}
    for src, lbl, dst in space.transitions:
        succ.setdefault(src, []).append((lbl, dst))
    parent = {space.initial: None}
    queue = deque([space.initial])
    at = [RUN] * len(monitors)
    violating: dict[int, int] = {}
    dequeued, expired = 0, False
    while queue and RUN in at:
        dequeued += 1
        if dequeued == expire_at:
            expired = True
            break
        sid = queue.popleft()
        for k, (monitor, ctx) in enumerate(zip(monitors, ctxs)):
            was, at[k] = at[k], monitor.step(at[k], space.states[sid], ctx)
            if was == RUN and at[k] == REJECT:
                violating[k] = sid
        for lbl, dst in succ.get(sid, ()):
            if dst not in parent:
                parent[dst] = (sid, lbl)
                queue.append(dst)
    out = []
    for k, (monitor, ctx) in enumerate(zip(monitors, ctxs)):
        notes = list(dict.fromkeys(ctx.notes))
        path, timed_out = None, expired and at[k] == RUN
        if timed_out:
            status, vacuous = INCONCLUSIVE, False
        elif k in violating:
            status, vacuous, path, cur = VIOLATED, False, [], violating[k]
            while parent[cur] is not None:
                prev, lbl = parent[cur]
                path.insert(0, (prev, lbl, cur))
                cur = prev
        else:
            status, vacuous = INCONCLUSIVE if space.truncated else HOLDS, ctx.vacuous()
        out.append((monitor.name, status, path, notes, _counters(ctx), vacuous, timed_out))
    return out


def _kernel_search(space, monitors, deadline: float | None = None) -> list[tuple]:
    """`checker.check`'s verdicts, each with the counters of its context."""
    made: list[EvalContext] = []

    def context(**kwargs) -> EvalContext:
        made.append(EvalContext(**kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "EvalContext", context)
        verdicts = CHECK(space, monitors, deadline)
    return [(v.property_name, v.status, v.path, v.vacuity_notes, _counters(ctx),
             v.vacuous, v.timed_out) for v, ctx in zip(verdicts, made)]


def _assert_agree(space, monitors) -> list[tuple]:
    got = _kernel_search(space, monitors)
    assert got == _stepped(space, monitors), space.root
    return got


def _generated_spaces():
    """The space of every root of chain and fanout listings of
    the benchmark's shapes, planted and not; in the last, every frame
    registers a buffer, so its space keeps every byte and grows past
    2 * DEADLINE_EVERY states."""
    texts = [_chain(["ok", "over", "gets", "ok"]), _chain(["ok"] * 5),
             _fanout(4, 6, planted=False), _fanout(4, 6, planted=True),
             _fanout(4, 6, planted=True, whole=True)]
    for text in texts:
        yield from _spaces(text, Config())


def _all_spaces():
    for text, cfg in _listings():
        try:
            yield from _spaces(text, cfg)
        except (MalformedLine, DuplicateFunction):
            continue
    yield from _generated_spaces()


ALL_KINDS_MONITORS = [compile_monitor(p) for p in parse_property_file(ALL_KINDS)]


def test_kernel_matches_stepping_each_monitor():
    """The bundled properties and one of every node kind, on every root of
    the corpus, the fixtures, the fuzz mutants and the chain and fanout
    listings."""
    statuses, roots = set(), 0
    for space in _all_spaces():
        for monitors in (load_bundled_monitors(), ALL_KINDS_MONITORS):
            statuses.update(v[1] for v in _assert_agree(space, monitors))
        roots += 1
    assert roots >= 150
    assert statuses == {HOLDS, VIOLATED, INCONCLUSIVE}


def test_one_body_under_two_names():
    """Each position keeps its own context and verdict."""
    rip = next(m for m in load_bundled_monitors() if m.name == "RIP Integrity")
    gets = next(m for m in load_bundled_monitors() if m.name == "No gets() Usage")
    monitors = [ltl.Monitor("first", rip.body), gets, ltl.Monitor("second", rip.body)]
    violated = 0
    for space in _generated_spaces():
        got = _assert_agree(space, monitors)
        assert got[0][1:] == got[2][1:]
        violated += got[0][1] == VIOLATED
    assert violated


def test_props_override_through_the_cli(tmp_path, monkeypatch):
    """A --props file that overrides a bundled property and adds others:
    every search the analysis runs agrees with the reference."""
    props = tmp_path / "override.props"
    props.write_text(ALL_KINDS + 'property "RIP Integrity" {\n'
                     "  ltl: G (forall_stack f . all i in 0..7 : byte(i, stack(f)) != Modified)\n"
                     "}\n")
    searches = []

    def comparing(space, monitors, deadline=None):
        searches.append(_assert_agree(space, monitors))
        return CHECK(space, monitors, deadline)

    monkeypatch.setattr(checker, "check", comparing)
    names = sorted(p.name for p in parse_property_file(ALL_KINDS))
    paths = [str(tmp_path / f"{name}.s") for name in ("chain", "fanout")]
    (tmp_path / "chain.s").write_text(_chain(["over", "gets"]))
    (tmp_path / "fanout.s").write_text(_fanout(3, 3, planted=True))
    reports = cli.analyze(paths, Config(properties_path=str(props)))
    assert [r.status for r in reports] == ["vulnerable", "vulnerable"]
    assert len(searches) == 2
    for got in searches:
        assert set(names) <= {v[0] for v in got}
        assert "RIP Integrity" in {v[0] for v in got if v[1] == VIOLATED}


class _Ticking:
    """A clock that moves on by one second at every read."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


def test_deadline_that_expires_mid_search(monkeypatch):
    """The clock passes the deadline at its second read, at dequeue
    2 * DEADLINE_EVERY: the monitors running then are inconclusive, and
    the ones already rejected keep their violations."""
    expired = set()
    for space in _generated_spaces():
        if len(space.states) <= 2 * DEADLINE_EVERY:
            continue
        monkeypatch.setattr(checker, "time", _Ticking())
        got = _kernel_search(space, load_bundled_monitors(), deadline=1.5)
        assert got == _stepped(space, load_bundled_monitors(),
                               expire_at=2 * DEADLINE_EVERY), space.root
        expired.update((v[1], v[6]) for v in got)
    assert expired == {(INCONCLUSIVE, True), (VIOLATED, False)}


def test_two_property_sets_compiled_one_after_the_other():
    """A kernel serves only the bodies it was compiled for. Two lists of as
    many monitors are checked in turn, each compiled afresh and collected
    before the other is built; then one list object holds each in turn."""
    props = parse_property_file(ALL_KINDS)
    half = len(props) // 2
    sets = (props[:half], props[half:2 * half])
    spaces = [s for text in (_chain(["over", "gets"]), _fanout(3, 3, planted=True))
              for s in _spaces(text, Config())]
    for _ in range(10):
        for chosen in sets:
            monitors = [compile_monitor(p) for p in chosen]
            for space in spaces:
                _assert_agree(space, monitors)
            del monitors
            gc.collect()
    monitors = [compile_monitor(p) for p in sets[0]]
    for chosen in sets:
        monitors[:] = [compile_monitor(p) for p in chosen]
        for space in spaces:
            _assert_agree(space, monitors)


def test_body_at_the_indentation_limit_is_called_from_the_kernel():
    """A body that compiles alone within one level of Python's indentation
    limit does not fit inside the kernel's guard; the kernel calls its
    predicate instead, and still agrees."""
    deep = compile_monitor(parse_property(
        "G (" + "true -> " * 98 + "previous_transition != call_gets)", name="deep"))
    monitors = [deep, *load_bundled_monitors()]
    kernel = ltl.compile_kernel(tuple(m.body for m in monitors))
    assert "(state, (), ctx)" in kernel.source
    violated = 0
    for space in _generated_spaces():
        violated += _assert_agree(space, monitors)[0][1] == VIOLATED
    assert violated
