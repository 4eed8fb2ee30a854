"""Patch planning and trampoline rewriting.

A counterexample trace is walked backwards to the offending library call
(or loop entry). For call sinks a template is instantiated: static mode
when the destination buffer offset and size are known from the call
state, runtime mode otherwise. The rewrite replaces the sink call with a
jump to an appended trampoline block holding the bounded safecall
replacement, followed by a jump back to the instruction after the sink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import load_data
from .checker import Trace
from .effects import CallArgs, CallEffect, FRAME_ADDR
from .frontend import Instruction, Operand, ProgramImage, TARGET, IMM


class NoSinkFound(Exception):
    pass


class NoTemplate(Exception):
    pass


class AlreadyPatched(Exception):
    pass


class LabelCollision(Exception):
    pass


@dataclass(frozen=True)
class SinkSite:
    address: int
    function: str
    callee: str | None            # None for loop sinks
    kind: str                     # call | loop
    cwes: tuple[str, ...] = ()


@dataclass(frozen=True)
class PatchTemplate:
    name: str
    target: str                   # the C function being replaced
    mode: str                     # static | runtime
    replacement: str              # safecall semantic id
    size_expr: str                # dest_size | runtime
    terminate: bool


@dataclass
class PatchPlan:
    template: PatchTemplate
    sink: SinkSite
    bound: int | None             # bytes, None for runtime mode
    trampoline_label: str
    return_address: int
    dest_offset: int | None = None


def load_templates(path: str | None = None) -> list[PatchTemplate]:
    """Bundled templates, or user templates from a JSON file or a directory
    of JSON files (user entries extend and override by name)."""
    by_name = {t.name: t for t in load_data("templates.json", _parse_templates)}
    if path is not None:
        p = Path(path)
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            for t in _parse_templates(f.read_text(encoding="utf-8")):
                by_name[t.name] = t
    return list(by_name.values())


def _parse_templates(text: str) -> list[PatchTemplate]:
    return [PatchTemplate(**entry) for entry in json.loads(text)]


def locate_sink(trace: Trace, image: ProgramImage,
                libc_names: set[str] | None = None) -> SinkSite:
    """Walk the trace backwards to the last library call, falling back to
    the loop entry when the violation came from a loop."""
    libc_names = libc_names or set()
    for step in reversed(trace.steps):
        if step.operation.startswith("Call("):
            callee = step.operation[len("Call("):-1]
            if callee in libc_names:
                return SinkSite(address=step.address, function=image.function_of(step.address),
                                callee=callee, kind="call")
    for step in reversed(trace.steps):
        if step.operation == "Loop":
            return SinkSite(address=step.address, function=image.function_of(step.address),
                            callee=None, kind="loop")
    raise NoSinkFound("trace has neither a library call nor a loop step")


def select_template(sink: SinkSite, effect: CallEffect | None,
                    args: CallArgs | None,
                    templates: list[PatchTemplate] | None = None,
                    enable_scanf: bool = False) -> PatchPlan:
    """Static mode needs a destination resolved to a concrete frame offset
    with a known size; anything else falls back to the runtime template."""
    if sink.kind != "call":
        raise NoTemplate(f"no template for {sink.kind} sinks")
    templates = templates if templates is not None else load_templates()
    candidates = [t for t in templates if t.target == sink.callee]
    if not candidates:
        raise NoTemplate(f"no template for callee {sink.callee!r}")
    if sink.callee == "scanf" and not enable_scanf:
        raise NoTemplate("scanf patching is disabled by default (detection only)")

    dest = args.by_role("dest") if args is not None else None
    static_known = (dest is not None and dest.kind == FRAME_ADDR
                    and effect is not None and effect.dest_size is not None
                    and effect.dest_size > 0)
    mode = "static" if static_known else "runtime"
    template = next(t for t in candidates if t.mode == mode)
    return PatchPlan(
        template=template,
        sink=sink,
        bound=effect.dest_size if static_known else None,
        trampoline_label="",           # assigned when applied
        return_address=0,
        dest_offset=dest.value if static_known else None,
    )


def apply_trampoline(image: ProgramImage, plan: PatchPlan) -> ProgramImage:
    """Replace the sink call with a jump into an appended trampoline block.

    The trampoline runs the bounded safecall and jumps back to the
    instruction after the sink; everything else is byte-for-byte the
    original image.
    """
    sink_addr = plan.sink.address
    if sink_addr in image.patched_sites:
        raise AlreadyPatched(f"sink {sink_addr:#x} already patched")
    sink_ins = image.instructions.get(sink_addr)
    if sink_ins is None or sink_ins.mnemonic != "call":
        raise NoSinkFound(f"no call instruction at {sink_addr:#x}")

    nxt = image.next_in_function(sink_addr)
    if nxt is None:
        # sink ends its function: return to the call-return successor,
        # which for a terminal call is simply past the listing
        nxt = sink_addr + 0x10

    n = len(image.patched_sites)
    label = f"__patch_{n}"
    if label in image.function_headers:
        raise LabelCollision(label)
    base = (max(image.order) + 0x100 + n * 0x40) & ~0xF

    new = ProgramImage(
        instructions=dict(image.instructions),
        order=list(image.order),
        function_headers=dict(image.function_headers),
        warnings=list(image.warnings),
        patched_sites=set(image.patched_sites),
    )
    jmp_text = f"{sink_addr:x}: jmp 0x{base:x}"
    new.instructions[sink_addr] = Instruction(
        sink_addr, "jmp", (Operand(kind=TARGET, value=base),), jmp_text)

    bound_text = f"0x{plan.bound:x}" if plan.bound is not None else "rt"
    safecall_text = f"{base:x}: safecall {plan.template.replacement} {bound_text}"
    safecall = Instruction(
        base, "safecall",
        (Operand(kind=IMM, value=plan.bound, symbol=plan.template.replacement),),
        safecall_text)
    back = Instruction(base + 8, "jmp", (Operand(kind=TARGET, value=nxt),),
                       f"{base + 8:x}: jmp 0x{nxt:x}")
    new.instructions[base] = safecall
    new.instructions[base + 8] = back
    new.order.extend([base, base + 8])
    new.function_headers[label] = base
    new.patched_sites.add(sink_addr)
    new.index()
    plan.trampoline_label = label
    plan.return_address = nxt
    return new
