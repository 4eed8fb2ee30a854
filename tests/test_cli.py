"""Pipeline orchestration, metrics, report schema and the CLI surface."""

from __future__ import annotations

import builtins
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import stackcheck
from stackcheck import checker, cli, interp, ltl, memstace
from stackcheck.cli import (Report, PropertyResult, analyze, analyze_image,
                            main, report_metrics)
from stackcheck.frontend import parse_disassembly
from stackcheck.memstace import Config
from stackcheck.patcher import NoTemplate, PatchTemplate, SinkSite, select_template

from conftest import CORPUS_DIR, FIXTURE_DIR, corpus_path, fixture_path, load_image

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report_schema.json"


def test_analyze_vulnerable_fixture_end_to_end():
    reports = analyze([str(corpus_path("strcpy_rip_vuln"))], patch=True, validate=True)
    r = reports[0]
    assert r.status == "vulnerable"
    by_name = {p.name: p for p in r.properties}
    rip = by_name["RIP Integrity"]
    assert rip.status == "violated"
    assert rip.cwes == ["CWE-121", "CWE-787"]
    assert rip.root == "copy"
    assert len(rip.trace.steps) == 5
    assert any(s["callee"] == "strcpy" for s in r.sinks)
    assert r.patches and r.patches[0]["mode"] == "static"
    assert r.validations and all(v["success"] for v in r.validations)


def test_analyze_clean_fixture_holds_everything():
    reports = analyze([str(corpus_path("strcat_rbp_ok"))])
    r = reports[0]
    assert r.status == "clean"
    assert all(p.status == "holds" for p in r.properties)
    assert len(r.properties) == 7
    assert not r.sinks


def test_exit_codes(tmp_path, capsys):
    clean = str(corpus_path("loop_offbyone_ok"))
    vuln = str(corpus_path("gets_rip_vuln"))
    assert main(["analyze", clean]) == 0
    capsys.readouterr()
    assert main(["analyze", vuln]) == 1
    capsys.readouterr()
    bad = tmp_path / "broken.s"
    bad.write_text("f:\nthis is not a line\n")
    assert main(["analyze", str(bad)]) == 2
    capsys.readouterr()


def test_cli_json_report_and_metrics(tmp_path, capsys):
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({"gets_rip_vuln": True, "gets_rip_ok": False}))
    code = main(["analyze", str(corpus_path("gets_rip_vuln")),
                 str(corpus_path("gets_rip_ok")),
                 "--report", "json", "--ground-truth", str(gt)])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert {r["binary"] for r in doc["reports"]} == {"gets_rip_vuln", "gets_rip_ok"}
    assert doc["metrics"]["tp"] == 1 and doc["metrics"]["tn"] == 1


def test_cli_metrics_on_bundled_ground_truth(corpus_paths, capsys):
    # ground_truth.json holds {"vulnerable": bool} records, not bare bools
    code = main(["analyze", *map(str, corpus_paths), "--report", "json",
                 "--ground-truth", str(CORPUS_DIR / "ground_truth.json")])
    assert code == 1
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert (metrics["tp"], metrics["fn"], metrics["fp"], metrics["tn"]) == (12, 0, 0, 12)
    assert metrics["accuracy"] == 1.0


def test_cli_rejects_malformed_ground_truth(tmp_path, capsys):
    gt = tmp_path / "gt.json"
    gt.write_text(json.dumps({"gets_rip_vuln": "yes"}))
    assert main(["analyze", str(corpus_path("gets_rip_vuln")), "--ground-truth", str(gt)]) == 2
    assert "'gets_rip_vuln'" in capsys.readouterr().err


def test_unsupported_format_is_reported_not_raised(tmp_path, capsys):
    # the sprintf format "%s!" becomes "%f!", a conversion the interpreter
    # does not model
    original = corpus_path("sprintf_rip_vuln").read_text()
    text = original.replace("401114: mov byte [rbp-0xf], 0x73",
                            "401114: mov byte [rbp-0xf], 0x66")
    assert text != original
    mutant = tmp_path / "sprintf_fmt_f.s"
    mutant.write_text(text)
    report = analyze([str(mutant)])[0]
    assert report.status == "inconclusive"
    assert "emulation failed before 0x401154: %f is not supported" in report.notes
    # validation runs the whole program and meets the same format; the run
    # ends as unsupported and the detection verdicts stay
    report = analyze([str(mutant)], patch_all=True, validate=True)[0]
    assert report.status == "inconclusive" and len(report.properties) == 7
    assert report.validations[0]["original"]["status"] == "unsupported"
    assert not report.validations[0]["success"]
    assert main(["analyze", str(mutant), "--patch-all", "--validate"]) == 0
    capsys.readouterr()
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(report.to_json(), json.loads(SCHEMA_PATH.read_text()))


@pytest.mark.parametrize("ins", ["lea rax, 0x10", "lea [rbp-0x8], rax", "mov rax, fs:0x10",
                                 "mov 0x10, rax", "add 0x10, rax"])
def test_unmodelled_operand_is_inconclusive_not_error(tmp_path, ins):
    listing = tmp_path / "operand.s"
    listing.write_text(f"main:\n401000: push rbp\n401004: mov rbp, rsp\n401008: {ins}\n"
                       "40100c: call 0x401030 <puts@plt>\n401010: pop rbp\n401014: ret\n")
    report = analyze([str(listing)])[0]
    assert report.status == "inconclusive", report.error
    assert any(n.startswith("emulation failed before 0x40100c: ") for n in report.notes)


def test_cli_patched_output_and_export(tmp_path, capsys):
    out = tmp_path / "out"
    export = tmp_path / "space"
    code = main(["analyze", str(corpus_path("gets_rip_vuln")), "--patch",
                 "--out", str(out), "--export-memstace", str(export)])
    assert code == 1
    capsys.readouterr()
    patched = out / "gets_rip_vuln.patched.s"
    assert patched.exists()
    assert "safecall bounded_readline" in patched.read_text()
    assert (tmp_path / "space.main.json").exists()
    assert (tmp_path / "space.main.dot").exists()


def test_emitted_patched_listing_can_be_patched_again(tmp_path, capsys):
    """Detect, patch, re-detect: the emitted listing already holds
    `__patch_0`, so the new trampoline takes the next free label."""
    out = tmp_path / "out"
    assert main(["analyze", str(fixture_path("two_sinks")), "--patch",
                 "--out", str(out)]) == 1
    capsys.readouterr()
    code = main(["analyze", str(out / "two_sinks.patched.s"), "--patch", "--validate",
                 "--report", "json"])
    doc = json.loads(capsys.readouterr().out)["reports"][0]
    assert code == 1, doc["error"]
    assert [s["address"] for s in doc["sinks"]] == [0x401144]
    assert [(p["sink"], p["trampoline"]) for p in doc["patches"]] == [(0x401144, "__patch_1")]
    assert [(v["sink"], v["success"]) for v in doc["validations"]] == [(0x401144, True)]


def test_batch_isolates_per_binary_errors(tmp_path):
    bad = tmp_path / "broken.s"
    bad.write_text("???")
    reports = analyze([str(bad), str(corpus_path("loop_offbyone_ok"))])
    assert reports[0].status == "error" and reports[0].error
    assert reports[1].status == "clean"


def test_buffers_sidecar_pins_sizes(tmp_path):
    sidecar = tmp_path / "buffers.json"
    sidecar.write_text(json.dumps({"main": {"-16": 8}}))
    cfg = Config(buffers_path=str(sidecar))
    image = load_image(corpus_path("gets_rip_vuln"))
    report = analyze_image(image, "gets_rip_vuln", cfg)
    assert report.status == "vulnerable"


def test_buffer_pin_bounds_the_static_patch(tmp_path):
    """A pinned size is the one rule for both the detector and the patch:
    the 16-byte gap is pinned to 8, so the static patch reads at most 8."""
    sidecar = tmp_path / "buffers.json"
    sidecar.write_text(json.dumps({"main": {"-16": 8}}))
    image = load_image(corpus_path("gets_rip_vuln"))
    report = analyze_image(image, "gets_rip_vuln", Config(buffers_path=str(sidecar)),
                           patch=True, validate=True)
    [patch] = report.patches
    assert (patch["mode"], patch["bound"]) == ("static", 8)
    assert "safecall bounded_readline 0x8" in report.patched_image.emit()
    [validation] = report.validations
    assert validation["success"]
    assert validation["original"]["cause"] == "return-address-corrupted"
    assert validation["patched"]["status"] == "clean-exit"
    unpinned = analyze_image(image, "gets_rip_vuln", Config(), patch=True)
    assert unpinned.patches[0]["bound"] == 16


@pytest.mark.parametrize("content, message", [
    ('{"main": {"x": 8}}', "main: offset 'x' is not an integer"),
    ("[1, 2]", "expected an object mapping each function"),
    ('{"main": 8}', "expected an object mapping each function"),
    ('{"main": {"-16": 0}}', "main: size 0 at offset -16 is not a positive integer"),
    ('{"main": {"-16": "8"}}', "main: size '8' at offset -16 is not a positive integer"),
    ('{"main": {"-16": true}}', "main: size True at offset -16 is not a positive integer"),
    ('{"main": {"-16": 8.0}}', "main: size 8.0 at offset -16 is not a positive integer"),
    ("{", "not JSON"),
])
def test_malformed_buffers_file_is_an_input_error(tmp_path, capsys, content, message):
    sidecar = tmp_path / "buffers.json"
    sidecar.write_text(content)
    # rejected before any binary is read: the listing does not exist
    code = main(["analyze", str(tmp_path / "missing.s"), "--buffers", str(sidecar)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"stackcheck: --buffers {sidecar}: ")
    assert message in err
    report = analyze([str(corpus_path("gets_rip_vuln"))], Config(buffers_path=str(sidecar)))[0]
    assert report.status == "error"
    assert message in report.error
    assert not report.error.startswith("internal error")


def test_a_failing_stage_is_an_internal_error_naming_the_innermost_function(monkeypatch):
    """The error names the function that raised, not the stage that
    called it, then the exception's type and message; the batch goes on."""
    def fail(kind: str):
        raise RuntimeError(f"{kind} failed")

    def check(*args, **kwargs):
        fail("check")

    monkeypatch.setattr(checker, "check", check)
    reports = analyze([str(corpus_path("gets_rip_vuln")), str(corpus_path("strcpy_rip_ok"))])
    assert [r.status for r in reports] == ["error", "error"]
    assert reports[0].error == "internal error in fail: RuntimeError: check failed"
    assert reports[0].properties == [] and reports[0].patched_image is None


@pytest.mark.parametrize("flag, content, message", [
    ("--templates", [{"name": "t", "mode": "static", "replacement": "bounded_copy"}],
     "template 't': target missing or not a string"),
    ("--templates", "{", "not JSON"),
    ("--libc-db", "{", "not JSON"),
    ("--libc-db", {"gets": {"extent": "bogus"}},
     "gets: extent 'bogus' is not one of strcpy, strcat"),
    ("--templates", [{"name": "gets_static", "target": "gets", "mode": "sometimes",
                      "replacement": "bounded_readline"}],
     "template 'gets_static': mode 'sometimes' is not one of static, runtime"),
    ("--templates", [{"name": "gets_static", "target": "gets", "mode": "static",
                      "replacement": "bogus"}],
     "template 'gets_static': replacement 'bogus' is not one of bounded_copy"),
], ids=["template-without-target", "template-not-json", "libc-not-json",
        "libc-unknown-extent", "template-unknown-mode", "template-unknown-replacement"])
def test_malformed_templates_or_libc_file_is_an_input_error(tmp_path, capsys, flag,
                                                             content, message):
    data = tmp_path / "data.json"
    data.write_text(content if isinstance(content, str) else json.dumps(content))
    # rejected before any binary is read: the listing does not exist
    code = main(["analyze", str(tmp_path / "missing.s"), flag, str(data)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"stackcheck: {flag} {data}: ")
    assert message in err
    field = {"--templates": "templates_path", "--libc-db": "libc_db_path"}[flag]
    report = analyze([str(corpus_path("gets_rip_vuln"))], Config(**{field: str(data)}),
                     patch=True, validate=True)[0]
    assert report.status == "error"
    assert message in report.error
    assert not report.error.startswith("internal error")


def test_template_for_one_mode_only(tmp_path):
    """A callee whose only template is the runtime one is patched in runtime
    mode where a static patch is wanted; one whose only template is static
    gets no patch where a runtime patch is wanted, only a note."""
    listing = tmp_path / "strncpy_frame.s"
    listing.write_text("""\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x10
40100c: lea rdi, [rbp-0x10]
401010: lea rsi, [rbp-0x8]
401014: mov rdx, 0x20
401018: call 0x401060 <strncpy@plt>
40101c: add rsp, 0x10
401020: pop rbp
401024: ret
""")
    templates = tmp_path / "templates.json"
    templates.write_text(json.dumps([{"name": "strncpy_runtime", "target": "strncpy",
                                      "mode": "runtime", "replacement": "bounded_copy"}]))
    report = analyze([str(listing)], Config(templates_path=str(templates)), patch_all=True)[0]
    assert report.error is None
    assert [(p["template"], p["mode"], p["bound"]) for p in report.patches] == \
        [("strncpy_runtime", "runtime", None)]

    static_only = [PatchTemplate("strncpy_static", "strncpy", "static", "bounded_copy")]
    sink = SinkSite(address=0x401018, function="main", callee="strncpy", kind="call")
    with pytest.raises(NoTemplate, match="no runtime template for callee 'strncpy'"):
        select_template(sink, None, False, static_only)


def test_overriding_property_keeps_its_own_cwe_tags(tmp_path):
    props = tmp_path / "override.props"
    props.write_text('property "RIP Integrity" {\n'
                     '  ltl: G (forall_stack f . all i in 0..7 : byte(i, stack(f)) = Critical)\n'
                     '  cwe: [CWE-999]\n}\n')
    report = analyze([str(corpus_path("strcpy_rip_vuln"))],
                     Config(properties_path=str(props)))[0]
    rip = next(p for p in report.properties if p.name == "RIP Integrity")
    assert rip.status == "violated" and rip.cwes == ["CWE-999"]
    bundled = analyze([str(corpus_path("strcpy_rip_vuln"))])[0]
    assert next(p for p in bundled.properties if p.name == "RIP Integrity").cwes == \
        ["CWE-121", "CWE-787"]


@pytest.mark.parametrize("operands", ["bounded_readline 0xzz", "bounded_readline -0x10",
                                      "bogus 0x10"],
                         ids=["bad-hex-bound", "negative-bound", "unknown-template"])
def test_malformed_safecall_is_an_input_error(tmp_path, capsys, operands):
    path = tmp_path / "safecall.s"
    path.write_text(f"f:\n401000: nop\n401004: safecall {operands}\n401008: ret\n")
    [report] = analyze([str(path)])
    assert report.status == "error" and report.error.startswith("line 3: ")
    assert main(["analyze", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("text", ["# nothing\n", "main:\n"], ids=["comment-only", "header-only"])
def test_empty_listing_is_an_input_error(tmp_path, capsys, text):
    """Nothing was analysed, so there is no verdict to report as clean."""
    path = tmp_path / "empty.s"
    path.write_text(text)
    [report] = analyze([str(path)])
    assert (report.status, report.error) == ("error", "listing has no instructions")
    assert report.properties == []
    assert main(["analyze", str(path)]) == 2
    assert "error: listing has no instructions" in capsys.readouterr().out


@pytest.mark.parametrize("flag, bad", [
    ("--max-states", "-1"), ("--max-loop-iters", "0"), ("--max-input-len", "-3"),
    ("--step-budget", "-5"), ("--timeout", "0"),
])
def test_non_positive_budget_is_rejected(tmp_path, capsys, flag, bad):
    # rejected before any binary is read: the listing does not exist
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(tmp_path / "missing.s"), flag, bad])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert f"argument {flag}: must be positive, got '{bad}'" in err
    assert main(["analyze", str(corpus_path("gets_rip_ok")), flag, "1"]) in (0, 1)


@pytest.mark.parametrize("field, bad", [
    ("max_states", -1), ("max_loop_iters", 0), ("max_input_len", -3),
    ("step_budget", -5), ("timeout", 0), ("timeout", -1.0), ("timeout", float("nan")),
])
def test_library_config_rejects_non_positive_budgets(field, bad):
    """A budget is a hard limit through the library too: a non-positive one
    is a ValueError, not a verdict (a state budget of -1 read as exhausted,
    a timeout of 0 as no limit)."""
    with pytest.raises(ValueError, match=field):
        analyze([str(corpus_path("gets_rip_vuln"))], Config(**{field: bad}),
                patch=True, validate=True)
    assert Config(**{field: 1}) is not None


# the gets listing of the corpus without its endbr64, so that it is 8 lines
_HEADERLESS = """\
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x10
40100c: lea rdi, [rbp-0x10]
401010: call 0x401060 <gets@plt>
401014: add rsp, 0x10
401018: pop rbp
40101c: ret
"""


def _without_timings(report) -> dict:
    doc = report.to_json()
    doc.pop("timings")
    return doc


def test_headerless_listing_is_analysed():
    """A listing with no header line is one function, sub_<first address>,
    and is analysed as if it had that header."""
    report = analyze_image(parse_disassembly(_HEADERLESS), "headerless", Config())
    headed = analyze_image(parse_disassembly("sub_401000:\n" + _HEADERLESS), "headerless",
                           Config())
    assert report.status == "vulnerable"
    assert report.roots == ["sub_401000"]
    assert [p.name for p in report.properties if p.status == "violated"] == [
        "RIP Integrity", "RBP Integrity", "No Buffer Overflow by one", "No gets() Usage"]
    assert _without_timings(report) == _without_timings(headed)


def test_headerless_prefix_before_main_is_its_own_root():
    text = _HEADERLESS + "main:\n401020: push rbp\n401024: pop rbp\n401028: ret\n"
    report = analyze_image(parse_disassembly(text), "prefix", Config(), patch=True,
                           validate=True)
    assert report.roots == ["sub_401000", "main"]
    violated = {p.name: p.root for p in report.properties if p.status == "violated"}
    assert violated["RIP Integrity"] == "sub_401000"
    assert report.sinks[0]["function"] == "sub_401000"
    # the patched listing keeps the prefix header-less
    assert report.patched_image.emit().startswith("401000: push rbp\n")


_CALLS_LEAF = """\
leaf:
401100: push rbp
401104: mov rbp, rsp
401108: pop rbp
40110c: ret
main:
401120: push rbp
401124: mov rbp, rsp
401128: sub rsp, 0x10
40112c: mov qword [rbp-0x8], 0x1
401130: call 0x401100 <leaf>
401134: add rsp, 0x10
401138: pop rbp
40113c: ret
"""


def test_callee_is_walked_only_in_its_callers_context():
    """A function that a root's complete walk enters is not a root itself."""
    report = analyze_image(parse_disassembly(_CALLS_LEAF), "calls_leaf", Config())
    assert report.roots == ["main"]
    assert report.status == "clean"


def test_callee_of_a_truncated_walk_stays_a_root():
    """main's walk runs out of states before its call, so leaf is analysed
    on its own, after main."""
    report = analyze_image(parse_disassembly(_CALLS_LEAF), "calls_leaf",
                           Config(max_states=3))
    assert report.roots == ["main", "leaf"]
    assert report.truncated


def test_callee_beyond_the_call_depth_stays_a_root():
    """g0 calls g1, which calls g2, and so on: the walk from g0 skips the
    call into the last function, so that function is a root of its own."""
    lines = []
    for k in range(memstace.CALL_DEPTH + 2):
        base = 0x401000 + 0x20 * k
        lines += [f"g{k}:", f"{base:x}: push rbp", f"{base + 4:x}: mov rbp, rsp"]
        if k <= memstace.CALL_DEPTH:
            lines.append(f"{base + 8:x}: call {base + 0x20:#x} <g{k + 1}>")
        lines += [f"{base + 0xc:x}: pop rbp", f"{base + 0x10:x}: ret"]
    report = analyze_image(parse_disassembly("\n".join(lines) + "\n"), "deep", Config())
    assert report.roots == ["g0", f"g{memstace.CALL_DEPTH + 1}"]
    assert f"call depth limit at {0x401008 + 0x20 * memstace.CALL_DEPTH:#x}; call skipped" \
        in report.notes


def test_self_recursive_function_nothing_calls_stays_a_root():
    """rec calls only itself, so no walk from an uncalled function enters
    it; it is a root after main, although it comes first in the listing."""
    text = """\
rec:
401100: push rbp
401104: mov rbp, rsp
401108: cmp rdi, 0x0
40110c: jne 0x401114
401110: call 0x401100 <rec>
401114: pop rbp
401118: ret
main:
401120: push rbp
401124: mov rbp, rsp
401128: pop rbp
40112c: ret
"""
    report = analyze_image(parse_disassembly(text), "rec", Config())
    assert report.roots == ["main", "rec"]
    assert report.status == "clean"


def test_timeout_marks_remaining_inconclusive():
    image = load_image(corpus_path("strcpy_rip_vuln"))
    report = analyze_image(image, "strcpy_rip_vuln", Config(timeout=1e-9))
    assert report.truncated
    assert all(p.status == "inconclusive" for p in report.properties)
    assert report.status == "inconclusive"


class _Clock:
    """A stand-in for the `time` module `cli` reads: the time moves only
    when a wrapped stage says so."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def _slow(monkeypatch, clock: _Clock, owner, name: str, cost: float):
    """Make every call of `owner.<name>` take `cost` seconds on `clock`."""
    real = getattr(owner, name)

    def slow(*args, **kwargs):
        result = real(*args, **kwargs)
        clock.now += cost
        return result
    monkeypatch.setattr(owner, name, slow)


_ONE_ROOT = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x10
40100c: mov [rbp-0x8], rdi
401010: add rsp, 0x10
401014: pop rbp
401018: ret
"""


def test_timeout_before_checking_is_inconclusive_not_clean(monkeypatch):
    """The deadline expires after the only root is built but before it is
    checked: no property was checked, so the binary is not clean."""
    clock = _Clock()
    monkeypatch.setattr(cli, "time", clock)
    _slow(monkeypatch, clock, cli, "build_memstace", 5.0)
    report = analyze_image(parse_disassembly(_ONE_ROOT), "one_root", Config(timeout=1))
    assert not report.truncated
    assert [p.status for p in report.properties] == ["inconclusive"] * 7
    assert report.status == "inconclusive"
    assert "timeout before checking 'RIP Integrity' on root 'main'" in report.notes


class _Ticking:
    """A stand-in for the `time` module `memstace` reads: each read moves
    the shared clock on by `step` seconds."""

    def __init__(self, clock: _Clock, step: float):
        self.clock, self.step = clock, step

    def perf_counter(self) -> float:
        self.clock.now += self.step
        return self.clock.now


def _diamonds(d: int) -> str:
    """One root of `d` if/else diamonds whose arms write different bytes.
    It registers a buffer, so the state space keeps every byte of its frame
    and its states double with every diamond."""
    lines, addr = ["main:", "401000: push rbp", "401004: mov rbp, rsp",
                   "401008: sub rsp, 0x20", "40100c: lea rax, [rbp-0x20]"], 0x401010
    for j in range(d):
        lines += [f"{addr:x}: cmp rdi, {j:#x}", f"{addr + 4:x}: jne {addr + 16:#x}",
                  f"{addr + 8:x}: mov byte [rbp-{2 * j + 1:#x}], 0x41",
                  f"{addr + 12:x}: jmp {addr + 20:#x}",
                  f"{addr + 16:x}: mov byte [rbp-{2 * j + 2:#x}], 0x42"]
        addr += 20
    lines += [f"{addr:x}: add rsp, 0x20", f"{addr + 4:x}: pop rbp", f"{addr + 8:x}: ret"]
    return "\n".join(lines) + "\n"


def test_timeout_during_one_roots_build_truncates_it(monkeypatch):
    """The deadline expires inside the only root's build: the builder reads
    the clock every DEADLINE_EVERY visits, stops, and truncates the space,
    so the binary is inconclusive and the note names the root."""
    clock = _Clock()
    monkeypatch.setattr(cli, "time", clock)
    monkeypatch.setattr(memstace, "time", _Ticking(clock, 0.5))
    image = parse_disassembly(_diamonds(8))
    full = analyze_image(image, "diamonds", Config())
    report = analyze_image(image, "diamonds", Config(timeout=1))
    assert not full.truncated and full.status == "clean"
    assert report.truncated
    assert "timeout during state-space construction of root 'main'" in report.notes
    assert [p.status for p in report.properties] == ["inconclusive"] * 7
    assert report.status == "inconclusive"
    # three clock reads: at visits 256 and 512 the time is 0.5 and 1.0
    assert clock.now == 1.5


def test_timeout_during_one_roots_check_is_inconclusive(monkeypatch):
    """The deadline expires inside the only root's check: the search reads
    the clock every DEADLINE_EVERY dequeues and stops, and every property it
    has not found violated is inconclusive, as on a root left unchecked."""
    clock = _Clock()
    monkeypatch.setattr(cli, "time", clock)
    monkeypatch.setattr(memstace, "time", clock)
    monkeypatch.setattr(checker, "time", _Ticking(clock, 0.5))
    image = parse_disassembly(_diamonds(9))         # 1028 states
    report = analyze_image(image, "diamonds", Config(timeout=1))
    assert not report.truncated
    assert [p.status for p in report.properties] == ["inconclusive"] * 7
    assert report.status == "inconclusive"
    for p in report.properties:
        assert f"timeout before checking {p.name!r} on root 'main'" in report.notes
    # three clock reads: at dequeues 256 and 512 the time is 0.5 and 1.0
    assert clock.now == 1.5


# reads stdin into a 16-byte buffer, then spins: every run ends only at the
# step budget or the deadline
_GETS_THEN_SPIN = """\
main:
401100: push rbp
401104: mov rbp, rsp
401108: sub rsp, 0x10
40110c: lea rdi, [rbp-0x10]
401110: call 0x401060 <gets@plt>
401114: add rax, 0x1
401118: jmp 0x401114
"""


def test_timeout_bounds_validation_runs():
    """A step budget far beyond the timeout no longer outlasts it: the
    validation runs stop at the analysis deadline, with a status of their
    own."""
    t0 = time.perf_counter()
    report = analyze_image(parse_disassembly(_GETS_THEN_SPIN), "spin",
                           Config(timeout=0.2, step_budget=2_000_000),
                           patch=True, validate=True)
    assert time.perf_counter() - t0 < 1.0
    [record] = report.validations
    assert (record["original"]["status"], record["patched"]["status"]) == ("timeout", "timeout")
    assert "timeout during validation" in record["notes"]


def test_unbound_property_variable_rejected_at_load(tmp_path, capsys):
    """A property whose variable no quantifier binds stops the run with exit
    code 2 and a message naming the property and the variable, before any
    binary is analysed."""
    props = tmp_path / "unbound.props"
    props.write_text("property Unbound { ltl: G (byte(0, stack(g)) = Critical) }\n")
    code = main(["analyze", str(corpus_path("strcpy_rip_ok")), "--props", str(props)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "'Unbound'" in err and "'g'" in err
    with pytest.raises(ltl.UnboundVariable, match="'g'"):
        ltl.compile_monitor(ltl.parse_property_file(props.read_text())[0])
    # through the library, each binary is an error naming the property, not an internal one
    report = analyze([str(corpus_path("strcpy_rip_ok"))], Config(properties_path=str(props)))[0]
    assert report.status == "error"
    assert report.error == "property 'Unbound' uses variable 'g', which no quantifier binds"


@pytest.mark.parametrize("body, message", [
    ("all i in x..7 : true", "expected a number, found 'x' (line 1, col 33)"),
    ("forall_stack f . forall_buffer b in f . byte(start(f), stack(b)) = Free",
     "variable 'b' is a buffer, used as a frame"),
], ids=["number", "kind"])
def test_property_input_errors_are_reported_once_without_a_traceback(tmp_path, capsys,
                                                                     body, message):
    """A malformed number or a variable of the wrong kind ends the run at
    the early --props check: exit 2, one message, no traceback."""
    props = tmp_path / "bad.props"
    props.write_text(f"property Bad {{ ltl: G ({body}) }}\n")
    code = main(["analyze", str(corpus_path("strcpy_rip_ok")), str(corpus_path("gets_rip_ok")),
                 "--props", str(props)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"stackcheck: --props {props}: {message}\n"


def test_property_syntax_errors_give_their_place_in_the_file(tmp_path, capsys):
    """The `x` of the second block's formula is at line 6, col 20 of the
    file; a block-level error gives where its block starts."""
    props = tmp_path / "second.props"
    props.write_text('# two blocks\nproperty "first" {\n  ltl: G (true)\n}\n'
                     'property "second" {\n  ltl: G (all i in x..7 : true)\n}\n')
    code = main(["analyze", str(corpus_path("strcpy_rip_ok")), "--props", str(props)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"stackcheck: --props {props}: "
                   "expected a number, found 'x' (line 6, col 20)\n")
    for text, where in (('property a { ltl: G (true) }\n\n  stray\n', (3, 3)),
                        ('property a { ltl: G (true) }\n property b { ltl: G (\n', (2, 2))):
        with pytest.raises(ltl.PropertySyntaxError) as exc:
            ltl.parse_property_file(text)
        assert (exc.value.line, exc.value.col) == where


def test_text_before_a_property_block_is_an_error_at_its_place():
    """Stray text before a block head is rejected where it stands, as stray
    text after the last block is; neither block is returned."""
    text = ('garbage here\nproperty a { ltl: G (true) }\n'
            'more junk property b { ltl: G (true) }\n')
    blanked = "\n" + text.split("\n", 1)[1]
    for source, where in ((text, (1, 1)), (blanked, (3, 1))):
        with pytest.raises(ltl.PropertySyntaxError) as exc:
            ltl.parse_property_file(source)
        assert str(exc.value).startswith("unrecognized property block")
        assert (exc.value.line, exc.value.col) == where


def test_property_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    props = tmp_path / "latin1.props"
    props.write_bytes(b"\xff\xfe")
    code = main(["analyze", str(corpus_path("strcpy_rip_ok")), "--props", str(props)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(f"stackcheck: --props {props}: 'utf-8' codec can't decode")
    report = analyze([str(corpus_path("strcpy_rip_ok"))], Config(properties_path=str(props)))[0]
    assert report.status == "error"
    assert not report.error.startswith("internal error")


@pytest.mark.parametrize("body", ["(" * 300 + "true" + ")" * 300, "!" * 5000 + "true",
                                  "true -> " * 5000 + "true"],
                         ids=["parentheses", "negations", "implications"])
def test_deeply_nested_property_is_an_input_error(tmp_path, capsys, body):
    """A body nested past the parser's limit is an unsupported fragment:
    the CLI prints its --props message and exits 2, and the library
    reports an input error instead of an internal one."""
    props = tmp_path / "deep.props"
    props.write_text(f"property Deep {{ ltl: G ({body}) }}\n")
    code = main(["analyze", str(corpus_path("strcpy_rip_ok")), "--props", str(props)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"stackcheck: --props {props}: property body nests too deeply\n"
    report = analyze([str(corpus_path("strcpy_rip_ok"))], Config(properties_path=str(props)))[0]
    assert report.status == "error"
    assert report.error == "property body nests too deeply"


def test_plt_symbol_on_user_function_warns():
    """A call whose @plt symbol names a library function but whose target
    is a user function descends as a user call; each such site warns."""
    text = """\
copy:
401100: push rbp
401104: mov rbp, rsp
401108: pop rbp
40110c: ret
main:
401120: push rbp
401124: mov rbp, rsp
401128: call 0x401100 <strcpy@plt>
40112c: call 0x401100 <copy>
401130: pop rbp
401134: ret
"""
    report = analyze_image(parse_disassembly(text), "plt_user", Config(),
                           patch_all=True, validate=True)
    assert [w for w in report.warnings if "@plt" in w] == [
        "call at 0x401128 names strcpy@plt but its target 0x401100 is in user "
        "function 'copy'; it descends as a user call"]
    assert report.status == "clean"
    # a user call is no sink, so --patch-all leaves it alone
    assert 0x401128 not in {s["address"] for s in report.sinks} | \
        {p["sink"] for p in report.patches} | {v["sink"] for v in report.validations}


def test_user_function_named_like_a_called_library_function_is_a_root():
    """main calls the library `puts`; the user function `puts`, which no
    call enters, is analysed as a root of its own, because roots are matched
    by the entry a user call targets, not by name."""
    text = """\
main:
401100: push rbp
401104: mov rbp, rsp
401108: call 0x401030 <puts@plt>
40110c: pop rbp
401110: ret
puts:
401120: push rbp
401124: mov rbp, rsp
401128: sub rsp, 0x10
40112c: lea rdi, [rbp-0x10]
401130: call 0x401060 <gets@plt>
401134: add rsp, 0x10
401138: pop rbp
40113c: ret
"""
    report = analyze_image(parse_disassembly(text), "renamed", Config())
    assert report.status == "vulnerable"
    assert report.roots == ["main", "puts"]
    assert {p.name for p in report.properties if p.status == "violated"} == {
        "RIP Integrity", "RBP Integrity", "No Buffer Overflow by one", "No gets() Usage"}


USER_GETS = """\
main:
401100: push rbp
401104: mov rbp, rsp
401108: sub rsp, 0x10
40110c: lea rdi, [rbp-0x10]
401110: call 0x401200 <gets>
401114: add rsp, 0x10
401118: pop rbp
40111c: ret
gets:
401200: push rbp
401204: mov rbp, rsp
401208: pop rbp
40120c: ret
"""


def test_patch_all_leaves_a_call_to_a_user_function_named_gets_alone():
    """`call 0x401200 <gets>` enters the user function `gets`: it is no
    library call, so no sink is planned there and the function is still
    called in the listing --patch-all writes."""
    report = analyze_image(parse_disassembly(USER_GETS), "user_gets", Config(),
                           patch_all=True, validate=True)
    assert report.sinks == [] and report.patches == [] and report.validations == []
    assert report.patched_image is None


def test_a_call_to_a_user_function_named_gets_is_no_gets_usage():
    """`previous_transition = call_gets` matches library calls and safecalls
    by that name, never a user call."""
    report = analyze_image(parse_disassembly(USER_GETS), "user_gets", Config())
    assert report.status == "clean"
    assert {p.name: p.status for p in report.properties}["No gets() Usage"] == "holds"


def test_renaming_a_user_function_to_a_library_name_keeps_the_verdicts():
    """main writes one byte past its buffer, onto the saved base register,
    and calls a user function: named `copy` or `strcpy`, the call is no
    library call, so only the base-register properties are violated."""
    text = """\
main:
401100: push rbp
401104: mov rbp, rsp
401108: sub rsp, 0x10
40110c: lea rdi, [rbp-0x10]
401110: mov byte [rsp+0xf], 0x41
401114: mov byte [rsp+0x10], 0x41
401118: call 0x401200 <{n}>
40111c: add rsp, 0x10
401120: pop rbp
401124: ret
{n}:
401200: push rbp
401204: mov rbp, rsp
401208: pop rbp
40120c: ret
"""
    for name in ("copy", "strcpy"):
        report = analyze_image(parse_disassembly(text.format(n=name)), name, Config())
        assert {p.name for p in report.properties if p.status == "violated"} == {
            "RBP Integrity", "No off-by-one Overflow"}, name


def test_a_loop_with_no_exit_is_not_called_irreducible():
    """A loop no edge leaves is walked without a summary, as an irreducible
    one is, and its note names its own cause."""
    text = "main:\n401000: push rbp\n401004: mov rbp, rsp\n" \
           "401008: add rax, 0x1\n40100c: jmp 0x401008\n"
    report = analyze_image(parse_disassembly(text), "spin", Config())
    assert "loop with no exit at 0x401008 in 'main'; body walked without a summary" \
        in report.notes
    assert not any("irreducible" in n for n in report.notes)


def test_timeout_between_roots_keeps_found_violations(monkeypatch):
    """Checking the first root (main) outlasts the deadline: the violations
    found there stand, and every other property is inconclusive with a note
    naming the unchecked root (copy), which stays a root because main's
    walk is truncated. The oracle's root runs read the same clock."""
    clock = _Clock()
    monkeypatch.setattr(cli, "time", clock)
    monkeypatch.setattr(interp, "time", clock)
    _slow(monkeypatch, clock, checker, "check", 5.0)
    image = load_image(corpus_path("strcpy_rip_vuln"))
    report = analyze_image(image, "strcpy_rip_vuln", Config(timeout=1))
    assert report.roots == ["main", "copy"]
    statuses = {p.name: p.status for p in report.properties}
    assert statuses["RIP Integrity"] == "violated"
    assert "inconclusive" in statuses.values()
    for name, status in statuses.items():
        note = f"timeout before checking {name!r} on root 'copy'"
        assert (note in report.notes) == (status == "inconclusive"), name
    assert report.status == "vulnerable"


def test_report_does_not_depend_on_property_order(tmp_path, monkeypatch):
    """The seven properties read from a file in reverse order, in place of
    the bundled set, give the same report apart from the order in which
    the properties and their notes are listed."""
    paths = [str(p) for p in sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))]

    def normal(report) -> dict:
        doc = report.to_json()
        doc.pop("timings")
        doc["properties"] = sorted(doc["properties"], key=lambda p: p["name"])
        doc["notes"] = sorted(doc["notes"])
        return doc

    before = [normal(r) for r in analyze(paths, Config(), patch_all=True, validate=True)]
    reversed_file = tmp_path / "reversed.props"
    reversed_file.write_text("\n".join(
        f'property "{p.name}" {{ ltl: {p.source} cwe: [{", ".join(p.cwes)}] }}'
        for p in reversed(ltl.load_bundled_properties())))
    monkeypatch.setattr(ltl, "load_bundled_monitors", list)
    after = analyze(paths, Config(properties_path=str(reversed_file)),
                    patch_all=True, validate=True)
    assert after[0].properties[0].name == "No gets() Usage"
    assert [normal(r) for r in after] == before


# --- metrics ---------------------------------------------------------------------

def _dummy_report(name: str, flagged: bool) -> Report:
    r = Report(binary=name)
    status = "violated" if flagged else "holds"
    r.properties = [PropertyResult(name="RIP Integrity", status=status, cwes=[])]
    return r


def test_metrics_confusion_matrix_formulas():
    # TP=95 FN=3 FP=17 TN=36
    reports, truth = [], {}
    idx = 0
    for flagged, actual, count in ((True, True, 95), (False, True, 3),
                                   (True, False, 17), (False, False, 36)):
        for _ in range(count):
            name = f"case{idx}"
            idx += 1
            reports.append(_dummy_report(name, flagged))
            truth[name] = actual
    metrics = report_metrics(reports, truth)
    assert metrics["tp"] == 95 and metrics["fn"] == 3
    assert metrics["fp"] == 17 and metrics["tn"] == 36
    assert metrics["precision"] == pytest.approx(95 / 112)
    assert metrics["recall"] == pytest.approx(95 / 98)
    assert metrics["accuracy"] == pytest.approx(131 / 151)
    pr, rec = 95 / 112, 95 / 98
    assert metrics["f1"] == pytest.approx(2 * pr * rec / (pr + rec))


def test_metrics_all_correct_toy_set():
    reports = [_dummy_report("a", True), _dummy_report("b", False)]
    metrics = report_metrics(reports, {"a": True, "b": False})
    assert metrics["accuracy"] == metrics["precision"] == 1.0
    assert metrics["recall"] == metrics["f1"] == 1.0


# --- schema and determinism ----------------------------------------------------------

def test_reports_validate_against_schema(corpus_paths):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    for path in corpus_paths:
        report = analyze([str(path)], patch_all=True, validate=True)[0]
        jsonschema.validate(report.to_json(), schema)


def test_pipeline_idempotent_modulo_timings():
    path = str(corpus_path("strcpy_canary_vuln"))
    a = analyze([path], patch_all=True, validate=True)[0].to_json()
    b = analyze([path], patch_all=True, validate=True)[0].to_json()
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_indirect_call_noted():
    text = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: call 0x999999
40100c: pop rbp
401010: ret
"""
    import tempfile
    f = tempfile.NamedTemporaryFile("w", suffix=".s", delete=False)
    f.write(text)
    f.close()
    report = analyze([f.name])[0]
    assert any("external sink" in n for n in report.notes)


def test_no_prologue_function_noted():
    report = analyze([str(fixture_path("no_prologue"))])[0]
    assert report.status == "clean"
    assert any("lacks a standard prologue" in n for n in report.notes)


def test_props_file_extends_and_overrides(tmp_path):
    # a user property joins the bundled seven; redefining a bundled name
    # replaces it
    user = tmp_path / "user.props"
    user.write_text(
        'property "No Writes At All" { ltl: G (forall_stack f . all i in 16..23 : '
        'byte(i, stack(f)) != Modified) cwe: [CWE-787] }\n'
        'property "No gets() Usage" { ltl: G (previous_transition != call_gets) '
        'cwe: [CWE-676] }\n')
    cfg = Config(properties_path=str(user))
    image = load_image(corpus_path("gets_rip_vuln"))
    from stackcheck.cli import analyze_image as ai
    report = ai(image, "gets_rip_vuln", cfg)
    names = {p.name: p for p in report.properties}
    assert len(report.properties) == 8
    assert "No Writes At All" in names
    assert names["No Writes At All"].cwes == ["CWE-787"]
    assert names["No gets() Usage"].status == "violated"
    # the overriding property's own tags replace the bundled map's
    assert names["No gets() Usage"].cwes == ["CWE-676"]


def test_each_user_data_file_is_read_once_per_run(tmp_path, monkeypatch, capsys):
    """The --props, --templates (each file of a directory), --libc-db and
    --buffers files are each read once per run, however many listings it
    analyses and patches."""
    data = Path(stackcheck.__file__).with_name("data")
    props, libc, buffers = tmp_path / "user.props", tmp_path / "libc.json", tmp_path / "pins.json"
    props.write_bytes((data / "properties.props").read_bytes())
    libc.write_bytes((data / "libc.json").read_bytes())
    buffers.write_text("{}")
    tdir = tmp_path / "templates"
    tdir.mkdir()
    (tdir / "a.json").write_bytes((data / "templates.json").read_bytes())
    (tdir / "b.json").write_text("[]")
    reads: Counter = Counter()
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        reads[str(file)] += 1
        return real_open(file, *args, **kwargs)

    # Path.read_bytes and read_text open through io.open, open() through builtins
    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    listings = [str(corpus_path(n))
                for n in ("strcpy_rip_vuln", "gets_rip_vuln", "strcat_rbp_vuln")]
    code = main(["analyze", *listings, "--patch-all", "--props", str(props),
                 "--templates", str(tdir), "--libc-db", str(libc), "--buffers", str(buffers)])
    out, _ = capsys.readouterr()
    assert code == 1 and out.count("patch: ") >= 3
    user_files = [str(f) for f in (props, tdir / "a.json", tdir / "b.json", libc, buffers)]
    assert {f: reads[f] for f in user_files} == dict.fromkeys(user_files, 1)
    assert all(reads[path] == 1 for path in listings)


def test_malformed_file_in_templates_dir_is_named(tmp_path, capsys):
    tdir = tmp_path / "templates"
    tdir.mkdir()
    (tdir / "a.json").write_text("[]")
    (tdir / "b.json").write_text(json.dumps([{"name": "x"}]))
    code = main(["analyze", str(tmp_path / "missing.s"), "--templates", str(tdir)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"stackcheck: --templates {tdir}: b.json: template 'x': target, mode, "
                   "replacement missing or not a string\n")


def test_templates_dir_extends_and_overrides(tmp_path):
    import json as _json
    from stackcheck.patcher import load_templates
    tdir = tmp_path / "templates"
    tdir.mkdir()
    (tdir / "custom.json").write_text(_json.dumps([
        {"name": "strcpy_static", "target": "strcpy", "mode": "static",
         "replacement": "bounded_copy", "size_expr": "dest_size", "terminate": True},
        # keys no stage reads are optional
        {"name": "memcpy_static", "target": "memcpy", "mode": "static",
         "replacement": "bounded_copy"},
    ]))
    templates = load_templates(str(tdir))
    names = {t.name for t in templates}
    assert "memcpy_static" in names
    assert len([t for t in templates if t.name == "strcpy_static"]) == 1
    assert len(templates) == 11


@pytest.mark.parametrize("report", ["text", "json"])
def test_closed_output_pipe_ends_without_a_traceback(report):
    """A reader that closes the pipe before the report is written (as
    `| head` does) ends the CLI quietly, with the verdict's exit code."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.run([sys.executable, "-m", "stackcheck", "analyze",
                           str(corpus_path("gets_rip_vuln")), "--report", report],
                          stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


# frames that grow past any concrete stack: in a loop, and once by 1 GiB
_GROWS_IN_A_LOOP = """\
main:
401100: push rbp
401104: mov rbp, rsp
401108: sub rsp, 0x100000
40110c: jmp 0x401108
"""
_GROWS_ONCE = """\
main:
401100: push rbp
401104: mov rbp, rsp
401108: sub rsp, 0x40000000
40110c: add rsp, 0x40000000
401110: pop rbp
401114: ret
"""
# the address space the child analysing them may map
_MEMORY_CAP = 1_500_000_000


@pytest.mark.parametrize("text", [_GROWS_IN_A_LOOP, _GROWS_ONCE], ids=["loop", "once"])
def test_frame_growth_past_the_modelled_stack_is_clamped(tmp_path, text):
    """The modelled stack ends at STACK_SIZE bytes, as the interpreter's
    does: growth past it is clamped with a note that truncates the root,
    so the analysis ends inconclusive with exit 0 where it used to run out
    of memory. It runs in a child process under an address-space cap."""
    path = tmp_path / "grows.s"
    path.write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    capped = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({_MEMORY_CAP}, {_MEMORY_CAP}))\n"
              "from stackcheck.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", capped, "analyze", str(path), "--max-states",
                           "100", "--timeout", "1", "--report", "json"],
                          capture_output=True, env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    report, = json.loads(proc.stdout)["reports"]
    assert report["status"] == "inconclusive" and report["truncated"]
    assert memstace.STACK_CLAMPED in report["notes"]
