"""Acceptance criteria, one test per criterion, one pass/fail line each.

Each test prints ``[ACCEPTANCE n] PASS|FAIL: <summary>`` (run pytest with
``-s`` or read captured output) and fails hard on any deviation from the
stated tolerance.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from stackcheck.checker import check
from stackcheck.cli import analyze, report_metrics
from stackcheck.frontend import LIBRARY, SAFECALL, USER
from stackcheck.ltl import (EvalContext, compile_body, compile_monitor,
                            load_bundled_properties)
from stackcheck.memstace import (LIBC, ByteOp, ByteState, IllegalByteTransition,
                                 MemoryState, TransitionLabel, byte_transition,
                                 fresh_frame)
from stackcheck.validator import CLEAN, CRASH, run

from conftest import CORPUS_DIR, FIXTURE_DIR, corpus_path, pipeline, space_for

F, C, O, M = (ByteState.FREE, ByteState.CRITICAL, ByteState.OCCUPIED,
              ByteState.MODIFIED)
PROPS = load_bundled_properties()
PROP_NAMES = [p.name for p in PROPS]


def _emit(n: int, ok: bool, summary: str) -> None:
    print(f"\n[ACCEPTANCE {n}] {'PASS' if ok else 'FAIL'}: {summary}")


@pytest.fixture(scope="module")
def corpus_reports(ground_truth):
    paths = [str(corpus_path(name)) for name in sorted(ground_truth)]
    t0 = time.perf_counter()
    reports = analyze(paths, patch_all=True, validate=True)
    elapsed = time.perf_counter() - t0
    return {r.binary: r for r in reports}, elapsed


def test_acceptance_1_byte_automaton_conformance():
    """Exhaustive 4x2 table: 5 legal transitions, 3 errors, under 1 s."""
    edges = {
        (F, ByteOp.NRWRITE): O,
        (F, ByteOp.RWRITE): C,
        (O, ByteOp.NRWRITE): M,
        (C, ByteOp.NRWRITE): M,
        (M, ByteOp.NRWRITE): M,
    }
    t0 = time.perf_counter()
    legal = errors = mismatches = 0
    for state in ByteState:
        for op in ByteOp:
            try:
                result = byte_transition(state, op)
            except IllegalByteTransition:
                errors += 1
                if (state, op) in edges:
                    mismatches += 1
            else:
                legal += 1
                if edges.get((state, op)) is not result:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = legal == 5 and errors == 3 and mismatches == 0 and elapsed < 1.0
    _emit(1, ok, f"{legal} legal / {errors} errors, 0 mismatches, {elapsed:.3f}s")
    assert legal == 5 and errors == 3
    assert mismatches == 0
    assert elapsed < 1.0


def test_acceptance_2_five_step_chain_reproduction():
    """The canonical copy fixture: snapshots along the 5-step chain and a
    5-step counterexample ending at the strcpy call, under 5 s."""
    t0 = time.perf_counter()
    space, oracle = space_for(corpus_path("strcpy_rip_vuln"), "copy")
    kinds = [lbl.kind for _, lbl, _ in space.transitions[:5]]
    chain_ok = kinds == ["push", "fe", "write", "buffer-register", "call"]

    after_1 = space.states[1].top
    after_2 = space.states[2].top
    after_5 = space.states[5].top
    snap_ok = (after_1.bytes == b"C" * 16
               and after_2.bytes == b"C" * 16 + b"F" * 32
               and after_5.bytes[:16] == b"M" * 16)

    rip = compile_monitor(next(p for p in PROPS if p.name == "RIP Integrity"))
    verdict = check(space, [rip])[0]
    trace_ok = (verdict.status == "violated"
                and len(verdict.trace.steps) == 5
                and verdict.trace.steps[-1].operation == "Call(strcpy)")
    elapsed = time.perf_counter() - t0
    ok = chain_ok and snap_ok and trace_ok and elapsed < 5.0
    _emit(2, ok, f"chain={kinds}, snapshots exact, RIP violated in "
                 f"{len(verdict.trace.steps)} steps, {elapsed:.3f}s")
    assert chain_ok and snap_ok and trace_ok
    assert elapsed < 5.0


def _random_state(rng: random.Random) -> MemoryState:
    frames = []
    for k in range(rng.randrange(1, 3)):
        size = rng.choice([8, 16, 24, 32, 48])
        content = bytes(rng.choice(b"FCOM") for _ in range(size))
        base = fresh_frame(f"fn{k}")
        buffers = frozenset()
        if size >= 32 and rng.random() < 0.5:
            buffers = frozenset({(-16, 8)})
        frames.append(base.__class__(label=f"fn{k}", bytes=content,
                                     buffers=buffers,
                                     has_canary=rng.random() < 0.3,
                                     has_rbp_slot=size >= 16))
    label = None
    if rng.random() < 0.8:
        kind = rng.choice(["push", "write", "fe", "loop", "call"])
        name = rng.choice(["strcpy", "gets", "helper"]) if kind == "call" else None
        calls = rng.choice([USER, SAFECALL, LIBC, LIBRARY]) if kind == "call" else None
        label = TransitionLabel(kind, 0x401000 + rng.randrange(64), name=name, calls=calls)
    return MemoryState(frames=tuple(frames), incoming_label=label)


def test_acceptance_3_monitor_shape_and_brute_force():
    """Positive form of every compiled safety property is one state with one
    self-loop; the negation monitor rejects exactly at the first state
    falsifying the body, over 1,000 random small traces."""
    monitors = [compile_monitor(p) for p in PROPS]
    shape_ok = all(len(m.positive_form()["states"]) == 1
                   and len(m.positive_form()["transitions"]) == 1
                   and m.positive_form()["transitions"][0][0]
                   == m.positive_form()["transitions"][0][2]
                   for m in monitors)
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(1000):
        trace = [_random_state(rng) for _ in range(rng.randrange(1, 7))]
        monitor = monitors[rng.randrange(len(monitors))]
        mstate, reject_at = "run", None
        for idx, st in enumerate(trace):
            mstate = monitor.step(mstate, st, EvalContext())
            if mstate == "reject":
                reject_at = idx
                break
        expected = None
        for idx, st in enumerate(trace):
            if not compile_body(monitor.body)(st, [], EvalContext()):
                expected = idx
                break
        if reject_at != expected:
            disagreements += 1
    ok = shape_ok and disagreements == 0
    _emit(3, ok, f"positive forms 1-state/1-loop, {disagreements} disagreements "
                 f"over 1000 traces")
    assert shape_ok
    assert disagreements == 0


def test_acceptance_4_seven_properties_exercised(corpus_reports, ground_truth):
    """All seven properties parse, compile, and each has at least one
    violating and one holding fixture in the bundled corpus."""
    reports, _ = corpus_reports
    assert len(PROPS) == 7
    for prop in PROPS:
        compile_monitor(prop)
    violated_by = {name: [] for name in PROP_NAMES}
    held_by = {name: [] for name in PROP_NAMES}
    for binary, report in reports.items():
        for result in report.properties:
            if result.status == "violated":
                violated_by[result.name].append(binary)
            elif result.status == "holds":
                held_by[result.name].append(binary)
    missing = [(n, "violating") for n in PROP_NAMES if not violated_by[n]]
    missing += [(n, "holding") for n in PROP_NAMES if not held_by[n]]
    canary_holds = {r.binary for r in reports.values()
                    for p in r.properties
                    if p.name == "Canary Integrity" and p.status == "holds"
                    and not p.vacuous}
    ok = not missing and bool(canary_holds)
    _emit(4, ok, "every property has violating and holding fixtures"
          + (f"; missing={missing}" if missing else "")
          + f"; canary holds non-vacuously in {sorted(canary_holds)[:2]}")
    assert not missing
    assert canary_holds


def test_acceptance_5_corpus_detection_metrics(corpus_reports, ground_truth):
    """Precision 1.00 and recall >= 0.90 on the 24-case corpus, under 60 s."""
    reports, elapsed = corpus_reports
    assert len(ground_truth) == 24
    metrics = report_metrics(list(reports.values()),
                             {k: v["vulnerable"] for k, v in ground_truth.items()})
    ok = metrics["precision"] == 1.0 and metrics["recall"] >= 0.90 and elapsed < 60
    _emit(5, ok, f"precision={metrics['precision']:.2f} recall={metrics['recall']:.2f} "
                 f"(tp={metrics['tp']} fp={metrics['fp']} fn={metrics['fn']} "
                 f"tn={metrics['tn']}), {elapsed:.1f}s")
    assert metrics["precision"] == 1.0
    assert metrics["recall"] >= 0.90
    assert elapsed < 60


def test_acceptance_6_patch_success_on_every_patchable_sink(corpus_reports,
                                                            ground_truth):
    """Every strcpy/strcat/sprintf/gets sink in the corpus patches and
    validates, including clean pairs (both runs clean, identical stdout)."""
    reports, _ = corpus_reports
    performed = successful = 0
    failures = []
    for binary, truth in sorted(ground_truth.items()):
        report = reports[binary]
        expected = set(truth["patchable"])
        patched = {p["callee"] for p in report.patches}
        if expected - patched:
            failures.append(f"{binary}: expected patch for {expected - patched}")
            continue
        for v in report.validations:
            performed += 1
            if v["success"]:
                successful += 1
            else:
                failures.append(f"{binary}@{v['sink']:#x}: {v['notes']}")
        if not truth["vulnerable"] and report.validations:
            for v in report.validations:
                if v["original"]["status"] != "clean-exit":
                    failures.append(f"{binary}: clean pair original not clean")
    ok = not failures and performed == successful and performed >= 16
    _emit(6, ok, f"{successful}/{performed} patches successful"
          + (f"; failures={failures}" if failures else ""))
    assert not failures
    assert performed == successful >= 16


def _enumerate_verdict(space, body, depth=20):
    succ = {}
    for s, _, d in space.transitions:
        succ.setdefault(s, []).append(d)
    if space.initial < 0:
        return "holds"
    stack = [(space.initial, 0)]
    seen = set()
    while stack:
        sid, d = stack.pop()
        if (sid, d) in seen:
            continue
        seen.add((sid, d))
        if not compile_body(body)(space.states[sid], [], EvalContext()):
            return "violated"
        if d < depth:
            for nxt in succ.get(sid, []):
                stack.append((nxt, d + 1))
    return "inconclusive" if space.truncated else "holds"


def test_acceptance_7_checker_matches_path_enumeration(ground_truth):
    """BFS verdicts equal brute-force path enumeration (depth <= 20) on every
    bundled fixture's every root."""
    disagreements = []
    fixture_files = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    checked = 0
    for path in fixture_files:
        image, _, _ = pipeline(path)
        for root in image.functions:
            space, oracle = space_for(path, root)
            for prop in PROPS:
                monitor = compile_monitor(prop)
                got = check(space, [monitor])[0].status
                want = _enumerate_verdict(space, monitor.body)
                checked += 1
                if got != want:
                    disagreements.append((path.stem, root, prop.name, got, want))
    ok = not disagreements
    _emit(7, ok, f"{checked} verdicts compared, {len(disagreements)} disagreements")
    assert disagreements == []


def test_acceptance_8_crash_input_chain(corpus_reports, ground_truth):
    """Each input-source fixture's derived input crashes the original with
    the cause matching the violated property and leaves the patched image
    clean."""
    reports, _ = corpus_reports
    from conftest import load_image
    covered = []
    failures = []
    for binary, truth in sorted(ground_truth.items()):
        if not (truth["input_source"] and truth["vulnerable"]):
            continue
        image = load_image(corpus_path(binary))
        image2, bcfg, oracle = pipeline(corpus_path(binary))
        oracle.set_root(image2.functions["main"])
        sites = [a for a in image.order
                 if image.instructions[a].mnemonic == "call"
                 and (image.instructions[a].target_symbol() or "").startswith("gets")]
        crash_input = oracle.call_effect(sites[0]).concrete_input
        if crash_input is None or len(crash_input) != truth["derived_input_len"] + 1:
            failures.append(f"{binary}: derived input missing or wrong length")
            continue
        original = run(image, stdin=crash_input)
        report = reports[binary]
        patched_run = None
        if report.patched_image is not None:
            patched_run = run(report.patched_image, stdin=crash_input)
        if original.status != CRASH or original.cause != truth["crash_cause"]:
            failures.append(f"{binary}: original {original.status}/{original.cause}")
        if patched_run is None or patched_run.status != CLEAN:
            failures.append(f"{binary}: patched run not clean")
        covered.append(binary)
    ok = not failures and len(covered) >= 2
    _emit(8, ok, f"{len(covered)} input-source fixtures chained"
          + (f"; failures={failures}" if failures else ""))
    assert not failures
    assert len(covered) >= 2


def test_acceptance_9_deterministic_reports(ground_truth):
    """Two consecutive full-pipeline runs produce byte-identical JSON
    reports modulo the timing fields."""
    paths = [str(corpus_path(name)) for name in sorted(ground_truth)]

    def run_all() -> str:
        docs = []
        for r in analyze(paths, patch_all=True, validate=True):
            doc = r.to_json()
            doc.pop("timings")
            docs.append(doc)
        return json.dumps(docs, sort_keys=True)

    first = run_all()
    second = run_all()
    ok = first == second
    _emit(9, ok, f"reports identical across runs ({len(first)} bytes of JSON)")
    assert first == second
