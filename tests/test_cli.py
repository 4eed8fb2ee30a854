"""Pipeline orchestration, metrics, report schema and the CLI surface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from stackcheck.cli import (Report, PropertyResult, analyze, analyze_image,
                            main, report_metrics)
from stackcheck.memstace import Config

from conftest import CORPUS_DIR, corpus_path, fixture_path, load_image

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


def test_timeout_marks_remaining_inconclusive():
    image = load_image(corpus_path("strcpy_rip_vuln"))
    report = analyze_image(image, "strcpy_rip_vuln", Config(timeout=1e-9))
    assert report.truncated
    assert all(p.status == "inconclusive" for p in report.properties)
    assert report.status == "inconclusive"


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
    assert names["No gets() Usage"].cwes == ["CWE-121", "CWE-676", "CWE-787"]


def test_templates_dir_extends_and_overrides(tmp_path):
    import json as _json
    from stackcheck.patcher import load_templates
    tdir = tmp_path / "templates"
    tdir.mkdir()
    (tdir / "custom.json").write_text(_json.dumps([
        {"name": "strcpy_static", "target": "strcpy", "mode": "static",
         "replacement": "bounded_copy", "size_expr": "dest_size", "terminate": True},
        {"name": "memcpy_static", "target": "memcpy", "mode": "static",
         "replacement": "bounded_copy", "size_expr": "dest_size", "terminate": True},
    ]))
    templates = load_templates(str(tdir))
    names = {t.name for t in templates}
    assert "memcpy_static" in names
    assert len([t for t in templates if t.name == "strcpy_static"]) == 1
    assert len(templates) == 11
