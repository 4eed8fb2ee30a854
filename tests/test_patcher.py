"""Sink localization, template selection and trampoline rewriting."""

from __future__ import annotations

import pytest

from stackcheck import checker
from stackcheck.checker import check
from stackcheck.frontend import parse_disassembly
from stackcheck.ltl import compile_monitor, load_bundled_properties
from stackcheck.patcher import (NoSinkFound, NoTemplate, SinkSite,
                                apply_trampolines, dest_in_frame, load_templates,
                                locate_sink, select_template)

from conftest import corpus_path, fixture_path, pipeline, space_for

PROPS = {p.name: p for p in load_bundled_properties()}


def _violation_trace(path, root, prop="RIP Integrity"):
    space, oracle = space_for(path, root)
    verdict = check(space, compile_monitor(PROPS[prop]))
    assert verdict.status == checker.VIOLATED
    return verdict, oracle


def test_locate_strcpy_sink():
    verdict, oracle = _violation_trace(corpus_path("strcpy_rip_vuln"), "copy")
    image, bcfg, _ = pipeline(corpus_path("strcpy_rip_vuln"))
    sink = locate_sink(verdict.path, image)
    assert sink.kind == "call"
    assert sink.callee == "strcpy"
    assert sink.address == 0x401118
    assert sink.function == "copy"


def test_locate_loop_sink():
    verdict, oracle = _violation_trace(corpus_path("loop_offbyone_vuln"), "main",
                                     "No off-by-one Overflow")
    image, bcfg, _ = pipeline(corpus_path("loop_offbyone_vuln"))
    sink = locate_sink(verdict.path, image)
    assert sink.kind == "loop"
    assert sink.address == 0x401118
    assert sink.callee is None


def test_direct_write_has_no_sink():
    verdict, oracle = _violation_trace(fixture_path("direct_write"), "main")
    image, bcfg, _ = pipeline(fixture_path("direct_write"))
    with pytest.raises(NoSinkFound):
        locate_sink(verdict.path, image)


# --- template selection -----------------------------------------------------------

def _sink_args_effect(path, site, root="main"):
    image, bcfg, oracle = pipeline(path)
    oracle.set_root(image.functions[root])
    effect = oracle.call_effect(site)
    frame_dest = dest_in_frame(bcfg, site, oracle.spec(site))
    return image, oracle, effect, frame_dest


def test_static_plan_for_known_destination():
    image, oracle, effect, frame_dest = _sink_args_effect(
        corpus_path("strcpy_rip_vuln"), 0x401118, root="copy")
    verdict, _ = _violation_trace(corpus_path("strcpy_rip_vuln"), "copy")
    sink = locate_sink(verdict.path, image)
    assert frame_dest
    plan = select_template(sink, effect, frame_dest)
    assert plan.template.mode == "static"
    assert plan.bound == 16


def test_runtime_plan_for_unknown_destination():
    image, oracle, effect, frame_dest = _sink_args_effect(
        corpus_path("strcpy_runtime_vuln"), 0x40111c)
    verdict, _ = _violation_trace(corpus_path("strcpy_runtime_vuln"), "main")
    sink = locate_sink(verdict.path, image)
    assert not frame_dest
    plan = select_template(sink, effect, frame_dest)
    assert plan.template.mode == "runtime"
    assert plan.bound is None


def test_loop_sink_has_no_template():
    verdict, oracle = _violation_trace(corpus_path("loop_offbyone_vuln"), "main",
                                     "No off-by-one Overflow")
    sink = locate_sink(verdict.path, oracle.image)
    with pytest.raises(NoTemplate):
        select_template(sink, None, False)


def test_scanf_patch_requires_opt_in():
    image, oracle, effect, frame_dest = _sink_args_effect(
        fixture_path("scanf_vuln"), 0x401124)
    verdict, _ = _violation_trace(fixture_path("scanf_vuln"), "main")
    sink = locate_sink(verdict.path, image)
    with pytest.raises(NoTemplate):
        select_template(sink, effect, frame_dest)
    plan = select_template(sink, effect, frame_dest, enable_scanf=True)
    assert plan.template.target == "scanf"
    assert plan.bound == 8


def test_template_totality():
    templates = load_templates()
    assert len(templates) == 10
    pairs = {(t.target, t.mode) for t in templates}
    assert pairs == {(fn, mode)
                     for fn in ("strcpy", "strcat", "sprintf", "gets", "scanf")
                     for mode in ("static", "runtime")}


# --- trampoline rewriting -----------------------------------------------------------

def _patched_copy():
    image, bcfg, oracle = pipeline(corpus_path("strcpy_rip_vuln"))
    oracle.set_root(image.functions["copy"])
    effect = oracle.call_effect(0x401118)
    verdict, _ = _violation_trace(corpus_path("strcpy_rip_vuln"), "copy")
    sink = locate_sink(verdict.path, image)
    plan = select_template(sink, effect, dest_in_frame(bcfg, 0x401118, oracle.spec(0x401118)))
    return image, apply_trampolines(image, [plan]), plan


def test_trampoline_structure():
    image, patched, plan = _patched_copy()
    sink = patched.instructions[0x401118]
    assert sink.mnemonic == "jmp"
    tramp_addr = sink.target()
    safecall = patched.instructions[tramp_addr]
    assert safecall.mnemonic == "safecall"
    assert safecall.operands[0].symbol == "bounded_copy"
    assert safecall.operands[0].value == 16
    back = patched.instructions[patched.next_address(tramp_addr)]
    assert back.mnemonic == "jmp"
    assert back.target() == 0x40111c
    assert plan.trampoline_label in patched.function_headers


def test_patch_locality():
    image, patched, _ = _patched_copy()
    for addr, ins in image.instructions.items():
        if addr == 0x401118:
            continue
        assert patched.instructions[addr].raw_text == ins.raw_text
    extra = set(patched.instructions) - set(image.instructions)
    assert len(extra) == 2


def test_patch_idempotence():
    # a patched sink is a jmp, so neither a second rewrite nor a repeated
    # plan in one rewrite finds a call to patch
    image, patched, plan = _patched_copy()
    with pytest.raises(NoSinkFound):
        apply_trampolines(patched, [plan])
    with pytest.raises(NoSinkFound):
        apply_trampolines(image, [plan, plan])


def test_two_sinks_two_disjoint_trampolines():
    image, bcfg, oracle = pipeline(fixture_path("two_sinks"))
    oracle.set_root(image.functions["main"])
    templates = load_templates()
    plans = []
    for site in (0x401138, 0x401144):
        effect = oracle.call_effect(site)
        sink = SinkSite(address=site, function="main", callee="strcpy", kind="call")
        plans.append(select_template(sink, effect, dest_in_frame(bcfg, site, oracle.spec(site)),
                                     templates))
    patched = apply_trampolines(image, plans)
    labels = [plan.trampoline_label for plan in plans]
    assert labels == ["__patch_0", "__patch_1"]
    # each trampoline starts 0x100 + n*0x40 past the highest address before it
    top = max(image.order)
    for n, label in enumerate(labels):
        base = patched.function_headers[label]
        assert base == (top + 0x100 + n * 0x40) & ~0xF
        assert patched.instructions[plans[n].sink.address].target() == base
        top = base + 8
    assert max(patched.order) == top


def test_patch_stage_indexes_the_image_once(monkeypatch):
    """One rewrite per patch stage, whatever the number of sinks."""
    from stackcheck.cli import analyze_image
    from stackcheck.frontend import ProgramImage
    from stackcheck.memstace import Config
    from test_oracle import _chain

    images = {n: parse_disassembly(_chain(n)) for n in (8, 16, 32)}
    calls = [0]
    index = ProgramImage.index

    def counted(self):
        calls[0] += 1
        return index(self)

    monkeypatch.setattr(ProgramImage, "index", counted)
    counts = []
    for n, image in images.items():
        calls[0] = 0
        report = analyze_image(image, f"chain_{n}", Config(), patch_all=True)
        assert len(report.patches) == n
        counts.append(calls[0])
    assert counts == [1, 1, 1], counts


def test_patched_image_round_trips_through_grammar():
    _, patched, _ = _patched_copy()
    reparsed = parse_disassembly(patched.emit())
    assert set(reparsed.instructions) == set(patched.instructions)


def test_control_flow_preserved_when_sink_not_reached():
    # the gets sink sits behind a branch on argc; with argv empty the branch
    # skips it, and original and patched images must behave identically
    text = """\
main:
401000: endbr64
401004: push rbp
401008: mov rbp, rsp
40100c: sub rsp, 0x10
401010: mov byte [rbp-0x10], 0x6f
401014: mov byte [rbp-0xf], 0x6b
401018: mov byte [rbp-0xe], 0x0
40101c: cmp rdi, 0x0
401020: je 0x401030
401024: lea rdi, [rbp-0x10]
401028: call 0x401060 <gets@plt>
40102c: nop
401030: lea rdi, [rbp-0x10]
401034: call 0x4010a0 <puts@plt>
401038: add rsp, 0x10
40103c: pop rbp
401040: ret
"""
    import tempfile
    from pathlib import Path
    from stackcheck.cli import analyze_image
    from stackcheck.frontend import parse_disassembly
    from stackcheck.memstace import Config
    from stackcheck.validator import run

    image = parse_disassembly(text)
    report = analyze_image(image, "guarded", Config(), patch=True, patch_all=True)
    assert report.patched_image is not None
    smashing = b"A" * 40 + b"\n"
    for stdin in (b"", smashing):
        before = run(image, stdin=stdin)                      # argc = 0: skipped
        after = run(report.patched_image, stdin=stdin)
        assert (before.status, before.stdout) == (after.status, after.stdout)
        assert before.stdout == b"ok\n"
    # and when the sink is reached, only the original crashes
    crashed = run(image, stdin=smashing, argv=("prog",))
    survived = run(report.patched_image, stdin=smashing, argv=("prog",))
    assert crashed.status == "crash"
    assert survived.status == "clean-exit"
