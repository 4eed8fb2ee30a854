"""Execute original and patched images on crash inputs and compare outcomes.

A run is a full interpretation from the entry function, and its outcome
is the status of the interpreter's Halt. Crashes are the
shadow-comparison causes found at ret (canary, return address, saved
base register) plus writes outside the stack region; step-budget
exhaustion, the analysis deadline passing and an unmodelled construct
are statuses of their own, never conflated with a crash. A patch validates when the crashing input no
longer crashes the patched image, or when both runs are clean with
byte-identical stdout.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .frontend import ProgramImage, entry_point
from .interp import CLEAN, CRASH, STEP_BUDGET, TIMEOUT, UNSUPPORTED, Halt, Machine
from .memstace import Config

RANDOM_TRIALS = 3           # random inputs tried when no crash input was derived


class RunOutcome(NamedTuple):
    status: str
    cause: str | None = None
    steps: int = 0
    stdout: bytes = b""
    read_stdin: bool = False        # whether the run read stdin at all

    def crashed(self) -> bool:
        return self.status == CRASH


class ValidationReport(NamedTuple):
    input_used: bytes
    input_source: str               # derived | random
    original: RunOutcome
    patched: RunOutcome
    success: bool
    notes: list[str]


def run(image: ProgramImage, stdin: bytes = b"", cfg: Config | None = None,
        argv: tuple[str, ...] = (), entry: int | None = None,
        deadline: float | None = None) -> RunOutcome:
    """The outcome of one run from `entry` (the image's entry point by
    default); past `deadline` (a time.perf_counter() value) it halts with
    status TIMEOUT."""
    cfg = cfg or Config()
    machine = Machine(image, cfg, stdin=stdin, argv=argv, deadline=deadline)
    machine.start(entry_point(image) if entry is None else entry)
    try:
        machine.run()
    except Halt as h:
        return RunOutcome(h.status, cause=h.cause, steps=machine.steps,
                          stdout=bytes(machine.stdout), read_stdin=machine.read_stdin)


def validate_patch(original: ProgramImage, patched: ProgramImage,
                   crash_input: bytes | None, cfg: Config | None = None,
                   runs: dict | None = None,
                   deadline: float | None = None) -> ValidationReport:
    """Before/after protocol: the derived stdin `crash_input` when there is
    one, otherwise a deterministic batch of random inputs.

    `runs` memoizes whole-program outcomes across calls that share it,
    keyed by (id(image), stdin), or by (id(image), None) for a run that
    never read stdin: that run answers every stdin for the image. The
    interpreter is deterministic and argv and cfg are fixed, so a memoized
    outcome is the one a new run gives. The images must stay alive while
    `runs` is in use, because they are keyed by identity. Every run stops
    at `deadline`, so calls that share `runs` must share it too."""
    cfg = cfg or Config()
    runs = {} if runs is None else runs
    if crash_input is not None:
        return _one_trial(original, patched, crash_input, "derived", cfg, runs, deadline)

    rng = random.Random(cfg.seed)
    reports = []
    for _ in range(RANDOM_TRIALS):
        length = min(1 << rng.randrange(0, max(cfg.max_input_len.bit_length() - 1, 1)),
                     cfg.max_input_len)
        data = bytes(rng.randrange(0x41, 0x5B) for _ in range(length)) + b"\n"
        reports.append(_one_trial(original, patched, data, "random", cfg, runs, deadline))
    failed = [r for r in reports if not r.success]
    if failed:
        return failed[0]
    return reports[0]


def _one_trial(original: ProgramImage, patched: ProgramImage, data: bytes,
               source: str, cfg: Config, runs: dict,
               deadline: float | None) -> ValidationReport:
    before, after = (_memo_run(runs, image, data, cfg, deadline)
                     for image in (original, patched))
    notes = []
    if before.crashed() and after.status == CLEAN:
        success = True
    elif before.status == CLEAN and after.status == CLEAN:
        success = before.stdout == after.stdout
        if not success:
            notes.append("behaviour diverged: stdout differs between original and patched run")
    else:
        success = False
        if after.crashed():
            notes.append(f"patched run still crashes ({after.cause})")
        if before.status == STEP_BUDGET or after.status == STEP_BUDGET:
            notes.append("step budget exhausted during validation")
        if before.status == TIMEOUT or after.status == TIMEOUT:
            notes.append("timeout during validation")
        for cause in dict.fromkeys(o.cause for o in (before, after)
                                   if o.status == UNSUPPORTED):
            notes.append(f"validation run stopped at an unsupported construct: {cause}")
    return ValidationReport(input_used=data, input_source=source,
                            original=before, patched=after, success=success,
                            notes=notes)


def _memo_run(runs: dict, image: ProgramImage, data: bytes, cfg: Config,
              deadline: float | None) -> RunOutcome:
    # every run starts at the image's entry point
    for key in ((id(image), None), (id(image), data)):
        if key in runs:
            return runs[key]
    outcome = run(image, stdin=data, cfg=cfg, deadline=deadline)
    runs[(id(image), data if outcome.read_stdin else None)] = outcome
    return outcome
