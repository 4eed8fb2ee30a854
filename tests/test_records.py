"""The package's records: importing the CLI generates no code, property
AST nodes of different kinds never compare equal (the property compilers
are caches keyed by nodes), the records compare by value where the
pipeline and its tests compare them, and the records built past their
constructor hold every field."""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from conftest import CORPUS_DIR, FIXTURE_DIR, corpus_path, load_image, pipeline

from stackcheck import ltl
from stackcheck.cli import build_root_spaces
from stackcheck.interp import Machine
from stackcheck.ltl import (And, BoolLit, EvalContext, ExistsStack, ForallStack, Or,
                            compile_body, compile_kernel, parse_property_file)
from stackcheck.memstace import Config, MemoryState, _SpaceBuilder
from stackcheck.validator import run

SRC = Path(__file__).resolve().parents[1] / "src"

# every node kind: the formula root, the index expression, and each kind
# the predicate generator evaluates
NODE_KINDS = (ltl.Always, ltl.IndexExpr,
              *(k for kinds, _ in ltl._Generator.RULES
                for k in (kinds if isinstance(kinds, tuple) else (kinds,))))


def test_importing_the_cli_loads_no_code_generating_module():
    probe = ("import sys, stackcheck.cli; print(sorted(set(sys.modules) & {'dataclasses', "
             "'inspect', 'traceback', 'ast', 'dis', 'tokenize'}))")
    # -S: no site hooks, so only stackcheck's own imports count
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_node_kinds_with_equal_fields_are_unequal():
    assert len(NODE_KINDS) == 15
    nodes = [kind(*["x"] * (len(kind._fields) - 1)) for kind in NODE_KINDS]
    for a, b in combinations(nodes, 2):
        assert a != b, (type(a).__name__, type(b).__name__)
    assert len(set(nodes)) == len(nodes)
    assert And(("x",)) == And(("x",)) and hash(And(("x",))) == hash(And(("x",)))


def test_each_kind_compiles_to_its_own_predicate():
    items = (BoolLit(True), BoolLit(False))
    state, ctx = MemoryState(frames=()), EvalContext()
    conj, disj = compile_body(And(items)), compile_body(Or(items))
    assert conj is not disj
    assert (conj(state, (), ctx), disj(state, (), ctx)) == (False, True)
    # no frames: forall holds and exists fails, each with its own kernel
    forall = compile_kernel((ForallStack("f", BoolLit(True)),))
    exists = compile_kernel((ExistsStack("f", BoolLit(True)),))
    assert forall(state, [EvalContext()], [True]) == []
    assert exists(state, [EvalContext()], [True]) == [0]


def test_a_property_file_parsed_twice_hits_the_kernel_cache():
    text = (SRC / "stackcheck" / "data" / "properties.props").read_text(encoding="utf-8")
    first, second = ([p.formula.body for p in parse_property_file(text)] for _ in range(2))
    assert first == second and first[0] is not second[0]
    kernel = compile_kernel(tuple(first))
    hits = compile_kernel.cache_info().hits
    assert compile_kernel(tuple(second)) is kernel
    assert compile_kernel.cache_info().hits == hits + 1


def test_records_compare_by_value():
    # a fork's shadow frames are copies equal to the originals
    image = load_image(corpus_path("strcpy_rip_vuln"))
    m = Machine(image, Config())
    m.start(image.functions["main"])
    for _ in range(8):
        m.step()
    fork = m.fork()
    assert fork.shadow == m.shadow and fork.shadow[-1] is not m.shadow[-1]
    fork.shadow[-1].rbp_loc = -1
    assert fork.shadow != m.shadow
    # effects and run outcomes computed twice are equal
    effects = []
    for _ in range(2):
        _, _, oracle = pipeline(corpus_path("strcpy_rip_vuln"))
        oracle.set_root(image.functions["copy"])
        effects.append(oracle.call_effect(0x401118))
    assert effects[0] == effects[1] and effects[0] is not effects[1]
    assert run(image, stdin=b"AB\n") == run(image, stdin=b"AB\n")
    assert Config()._replace(step_budget=5) == Config(step_budget=5)
    with pytest.raises(ValueError, match="max_states must be positive"):
        Config()._replace(max_states=0)


def _assert_whole(record) -> None:
    assert len(record) == len(type(record)._fields) and type(record)(*record) == record, record


def test_records_built_past_their_constructor_hold_every_field():
    """The hot records built through frontend.new_record (tuple.__new__)
    hold one value per field and equal what their own constructor builds
    from those values: every instruction and operand parsed, every pc
    decoded (record, label, operators) and every state built, over the
    corpus and the fixtures."""
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    for path in paths:
        image, _, oracle = pipeline(path)
        builder = _SpaceBuilder(image, oracle, Config(), None, {})
        for pc in image.order:
            ins = image.instructions[pc]
            _assert_whole(ins)
            for op in ins.operands:
                _assert_whole(op)
            decoded = builder.decode(pc)
            _assert_whole(decoded)
            if decoded.label is not None:
                _assert_whole(decoded.label)
            for op, label in decoded.steps:
                _assert_whole(op)
                _assert_whole(label)
        for space in build_root_spaces(image, oracle, Config()).values():
            for state in space.states.values():
                _assert_whole(state)
                for frame in state.frames:
                    _assert_whole(frame)
            for _, label, _ in space.transitions:
                _assert_whole(label)
