"""Execute original and patched images on crash inputs and compare outcomes.

A run is a full interpretation from the entry function, and its outcome
is the status of the interpreter's Halt. Crashes are the
shadow-comparison causes found at ret (canary, return address, saved
base register) plus writes outside the stack region; step-budget
exhaustion and an unmodelled construct are statuses of their own, never
conflated with a crash. A patch validates when the crashing input no
longer crashes the patched image, or when both runs are clean with
byte-identical stdout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .effects import CrashInput
from .frontend import ProgramImage, entry_point
from .interp import CLEAN, CRASH, STEP_BUDGET, UNSUPPORTED, Halt, Machine
from .memstace import Config

RANDOM_TRIALS = 3           # random inputs tried when no crash input was derived


@dataclass
class RunOutcome:
    status: str
    cause: str | None = None
    steps: int = 0
    stdout: bytes = b""

    def crashed(self) -> bool:
        return self.status == CRASH


@dataclass
class ValidationReport:
    input_used: bytes
    input_source: str               # derived | random
    original: RunOutcome
    patched: RunOutcome
    success: bool
    notes: list[str] = field(default_factory=list)


def run(image: ProgramImage, stdin: bytes = b"", cfg: Config | None = None,
        argv: tuple[str, ...] = (), entry: int | None = None) -> RunOutcome:
    cfg = cfg or Config()
    machine = Machine(image, cfg, stdin=stdin, argv=argv)
    machine.start(entry_point(image) if entry is None else entry)
    try:
        machine.run()
    except Halt as h:
        return RunOutcome(h.status, cause=h.cause, steps=machine.steps,
                          stdout=bytes(machine.stdout))


def validate_patch(original: ProgramImage, patched: ProgramImage,
                   crash_input: CrashInput | None, cfg: Config | None = None) -> ValidationReport:
    """Before/after protocol: derived input when available, otherwise a
    deterministic batch of random inputs."""
    cfg = cfg or Config()
    if crash_input is not None:
        return _one_trial(original, patched, crash_input.data, "derived", cfg)

    rng = random.Random(cfg.seed)
    reports = []
    for _ in range(RANDOM_TRIALS):
        length = min(1 << rng.randrange(0, max(cfg.max_input_len.bit_length() - 1, 1)),
                     cfg.max_input_len)
        data = bytes(rng.randrange(0x41, 0x5B) for _ in range(length)) + b"\n"
        reports.append(_one_trial(original, patched, data, "random", cfg))
    failed = [r for r in reports if not r.success]
    if failed:
        return failed[0]
    return reports[0]


def _one_trial(original: ProgramImage, patched: ProgramImage, data: bytes,
               source: str, cfg: Config) -> ValidationReport:
    before = run(original, stdin=data, cfg=cfg)
    after = run(patched, stdin=data, cfg=cfg)
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
        for cause in dict.fromkeys(o.cause for o in (before, after)
                                   if o.status == UNSUPPORTED):
            notes.append(f"validation run stopped at an unsupported construct: {cause}")
    return ValidationReport(input_used=data, input_source=source,
                            original=before, patched=after, success=success,
                            notes=notes)
