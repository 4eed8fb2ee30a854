"""Interpreter runs, crash causes and the before/after patch protocol."""

from __future__ import annotations


from stackcheck import validator
from stackcheck.cli import analyze
from stackcheck.effects import CrashInput
from stackcheck.frontend import parse_disassembly
from stackcheck.memstace import Config
from stackcheck.validator import CLEAN, CRASH, STEP_BUDGET, run, validate_patch

from conftest import corpus_path, fixture_path, load_image
from test_oracle import _chain


def _patched(name: str):
    from stackcheck.cli import analyze_image
    image = load_image(corpus_path(name))
    report = analyze_image(image, name, Config(), patch=True, patch_all=True)
    assert report.patched_image is not None
    return image, report.patched_image


def test_empty_program_clean_exit_in_two_steps():
    image = parse_disassembly("main:\n401000: ret\n")
    outcome = run(image)
    assert outcome.status == CLEAN
    assert outcome.steps <= 2


def test_strcpy_overflow_crashes_with_return_address_cause():
    image = load_image(corpus_path("strcpy_rip_vuln"))
    outcome = run(image)
    assert outcome.status == CRASH
    assert outcome.cause == "return-address-corrupted"


def test_patched_strcpy_runs_clean():
    _, patched = _patched("strcpy_rip_vuln")
    outcome = run(patched)
    assert outcome.status == CLEAN
    # main prints its own 255-character source buffer after copy returns
    assert outcome.stdout == b"x" * 255 + b"\n"


def test_canary_crash_cause():
    image = load_image(corpus_path("strcpy_canary_vuln"))
    assert run(image).cause == "canary-mismatch"


def test_base_register_crash_cause():
    image = load_image(corpus_path("strcat_rbp_vuln"))
    assert run(image).cause == "base-register-corrupted"


def test_gets_crash_depends_on_input():
    image = load_image(corpus_path("gets_rip_vuln"))
    short = run(image, stdin=b"hello\n")
    assert short.status == CLEAN
    assert short.stdout == b"hello\n"
    long = run(image, stdin=b"A" * 24 + b"\n")
    assert long.status == CRASH
    assert long.cause == "return-address-corrupted"


def test_determinism_same_inputs_same_outcome():
    image = load_image(corpus_path("gets_rip_vuln"))
    a = run(image, stdin=b"A" * 24 + b"\n")
    b = run(image, stdin=b"A" * 24 + b"\n")
    assert (a.status, a.cause, a.steps, a.stdout) == (b.status, b.cause, b.steps, b.stdout)


def test_step_budget_status_is_not_a_crash():
    text = """\
main:
401000: jmp 0x401000
"""
    image = parse_disassembly(text)
    outcome = run(image, cfg=Config(step_budget=100))
    assert outcome.status == STEP_BUDGET
    assert outcome.cause is None


def test_loop_offbyone_crashes_via_saved_base_register():
    image = load_image(corpus_path("loop_offbyone_vuln"))
    outcome = run(image)
    assert outcome.status == CRASH and outcome.cause == "base-register-corrupted"


def test_benign_overflow_fixtures_run_clean():
    for name in ("loop_overflow_one_vuln", "loop_underflow_vuln"):
        outcome = run(load_image(corpus_path(name)))
        assert outcome.status == CLEAN, name


# --- validate_patch -------------------------------------------------------------

def test_validate_with_derived_input():
    original, patched = _patched("gets_rip_vuln")
    report = validate_patch(original, patched, CrashInput(b"A" * 24 + b"\n"))
    assert report.input_source == "derived"
    assert report.original.crashed()
    assert report.patched.status == CLEAN
    assert report.success


def test_validate_clean_pair_identical_stdout():
    original, patched = _patched("strcpy_rip_ok")
    report = validate_patch(original, patched, None)
    assert report.input_source == "random"
    assert report.original.status == CLEAN and report.patched.status == CLEAN
    assert report.success


def test_validate_divergent_stdout_fails_with_note():
    original, patched = _patched_fixture("sprintf_trunc")
    report = validate_patch(original, patched, None)
    assert report.original.status == CLEAN and report.patched.status == CLEAN
    assert not report.success
    assert any("stdout differs" in n for n in report.notes)


def test_detector_validator_agreement(corpus_paths, ground_truth):
    """Where the model predicts a control-data violation reachable with the
    derived input, the original run crashes with the matching cause."""
    for path in corpus_paths:
        truth = ground_truth[path.stem]
        cause = truth["crash_cause"]
        outcome = run(load_image(path),
                      stdin=b"A" * truth.get("derived_input_len", 0) + b"\n")
        if cause is None:
            assert outcome.status == CLEAN, path.stem
        else:
            assert outcome.status == CRASH and outcome.cause == cause, path.stem


def _patched_fixture(name: str, enable_scanf=False):
    from stackcheck.cli import analyze_image
    cfg = Config(enable_scanf_patch=enable_scanf)
    image = load_image(fixture_path(name))
    report = analyze_image(image, name, cfg, patch=True, patch_all=True)
    assert report.patched_image is not None
    return image, report.patched_image


def test_scanf_opt_in_patch_validates():
    original, patched = _patched_fixture("scanf_vuln", enable_scanf=True)
    report = validate_patch(original, patched, CrashInput(b"A" * 16 + b"\n"))
    assert report.original.crashed()
    assert report.original.cause == "return-address-corrupted"
    assert report.patched.status == CLEAN
    assert report.success


def test_whole_program_runs_do_not_grow_with_chain_length(tmp_path, monkeypatch):
    """Every sink of a chain listing is validated against the same patched
    image, on one of a few distinct inputs: each (image, stdin) pair runs
    once per analysis, however many sinks share it."""
    runs = [0]
    real_run = validator.run

    def counted(*args, **kwargs):
        runs[0] += 1
        return real_run(*args, **kwargs)

    monkeypatch.setattr(validator, "run", counted)
    counts = []
    for n in (8, 16, 32):
        path = tmp_path / f"chain_{n}.s"
        path.write_text(_chain(n))
        runs[0] = 0
        report = analyze([str(path)], Config(), patch_all=True, validate=True)[0]
        assert report.error is None
        assert len(report.validations) == len(report.patches) >= n
        counts.append(runs[0])
    assert counts[0] == counts[1] == counts[2], counts
