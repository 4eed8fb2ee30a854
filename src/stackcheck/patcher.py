"""Patch planning and trampoline rewriting.

A violation's path is walked backwards to the offending library call
(or loop entry). For call sinks a template is instantiated: static mode
when the destination is a frame address (`lea reg, [rbp-x]` reaching the
call) and the call state gives its buffer size, runtime mode otherwise.
One rewrite applies every plan to a single copy of the image: each sink
call becomes a jump to an appended trampoline block holding the bounded
safecall replacement, followed by a jump back to the instruction after
the sink.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from . import MalformedData, load_data, parse_json
from .effects import CallEffect, LibcSpec
from .frontend import BCfg, Instruction, Operand, ProgramImage, IMM, MEM, REG, SAFECALLS, TARGET
from .memstace import LIBC, TransitionLabel

MODES = ("static", "runtime")       # select_template's patch modes


class NoSinkFound(Exception):
    pass


class NoTemplate(Exception):
    pass


class SinkSite(NamedTuple):
    address: int
    function: str
    callee: str | None            # None for loop sinks
    kind: str                     # call | loop
    cwes: tuple[str, ...] = ()


class PatchTemplate(NamedTuple):
    name: str
    target: str                   # the C function being replaced
    mode: str                     # one of MODES
    replacement: str              # one of frontend.SAFECALLS


class PatchPlan:
    """A template chosen for a sink; `apply_trampolines` fills in where its
    trampoline starts and returns to."""

    __slots__ = ("template", "sink", "bound", "trampoline_label", "return_address")

    def __init__(self, template: PatchTemplate, sink: SinkSite, bound: int | None):
        self.template = template
        self.sink = sink
        self.bound = bound                  # bytes, None for runtime mode
        self.trampoline_label = ""
        self.return_address = 0


def load_templates(path: str | None = None) -> list[PatchTemplate]:
    """Bundled templates, or user templates from a JSON file or a directory
    of JSON files (user entries extend and override by name); each file is
    read once per process (see load_data)."""
    by_name = {t.name: t for t in load_data("templates.json", _parse_templates)}
    if path is not None:
        p = Path(path)
        files = sorted(p.glob("*.json")) if p.is_dir() else [p]
        for f in files:
            try:
                templates = load_data("templates.json", _parse_templates, str(f))
            except MalformedData as exc:
                raise exc if f == p else MalformedData(f"{f.name}: {exc}")
            for t in templates:
                by_name[t.name] = t
    return list(by_name.values())


def _parse_templates(data: bytes) -> list[PatchTemplate]:
    raw = parse_json(data)
    if not isinstance(raw, list) or not all(isinstance(e, dict) for e in raw):
        raise MalformedData("expected a list of template objects")
    keys = ("name", "target", "mode", "replacement")
    for e in raw:
        missing = [k for k in keys if not isinstance(e.get(k), str)]
        if missing:
            raise MalformedData(f"template {e.get('name')!r}: {', '.join(missing)} "
                                "missing or not a string")
        for key, allowed in (("mode", MODES), ("replacement", SAFECALLS)):
            if e[key] not in allowed:
                raise MalformedData(f"template {e['name']!r}: {key} {e[key]!r} is not "
                                    f"one of {', '.join(allowed)}")
    return [PatchTemplate(*(e[k] for k in keys)) for e in raw]


def locate_sink(path: list[tuple[int, TransitionLabel, int]], image: ProgramImage) -> SinkSite:
    """Walk a violation's path, its (source, label, target) transitions,
    backwards to the last library call whose function the libc database
    models (a label whose `calls` is LIBC), falling back to the loop entry
    when the violation came from a loop."""
    labels = [lbl for _, lbl, _ in reversed(path)]
    sink = next((lbl for lbl in labels if lbl.calls == LIBC),
                next((lbl for lbl in labels if lbl.kind == "loop"), None))
    if sink is None:
        raise NoSinkFound("trace has neither a library call nor a loop step")
    # a loop label names no callee
    return SinkSite(address=sink.address, function=image.owner[sink.address],
                    callee=sink.name, kind=sink.kind)


def dest_in_frame(bcfg: BCfg, call_site: int, spec: LibcSpec | None) -> bool:
    """Whether the destination register of the call at call_site holds a
    `lea reg, [rbp-x]` frame address.

    The scan runs backwards through the call's block, follows `mov reg,
    reg` copies, and when the block does not define the register climbs
    the unique-predecessor chain up to 4 blocks. Any other definition, a
    join or the end of the chain answers no (which selects the runtime
    patch mode).
    """
    reg = spec.dest if spec is not None else None
    block = bcfg.block_containing(call_site) if reg is not None else None
    before, depth = call_site, 4
    while block is not None:
        ins = next((i for i in reversed(block.instructions)
                    if i.address < before and i.mnemonic in ("mov", "lea", "pop")
                    and i.operands[0].kind == REG and i.operands[0].reg == reg), None)
        if ins is None:
            sources = bcfg.predecessors.get(block.start, [])
            if len(sources) != 1 or depth == 0:
                return False
            block = bcfg.blocks[sources[0]]
            before, depth = block.end + 1, depth - 1
            continue
        src = ins.operands[-1]
        if ins.mnemonic == "mov" and src.kind == REG:
            reg, before = src.reg, ins.address
            continue
        return ins.mnemonic == "lea" and src.kind == MEM and src.base == "rbp"
    return False


def select_template(sink: SinkSite, effect: CallEffect | None, frame_dest: bool,
                    templates: list[PatchTemplate] | None = None,
                    enable_scanf: bool = False) -> PatchPlan:
    """Static mode needs a frame-address destination (`frame_dest`, see
    dest_in_frame) with a known size and a static template for the callee;
    anything else falls back to the runtime template, and a callee without
    one raises NoTemplate."""
    if sink.kind != "call":
        raise NoTemplate(f"no template for {sink.kind} sinks")
    templates = templates if templates is not None else load_templates()
    candidates = [t for t in templates if t.target == sink.callee]
    if not candidates:
        raise NoTemplate(f"no template for callee {sink.callee!r}")
    if sink.callee == "scanf" and not enable_scanf:
        raise NoTemplate("scanf patching is disabled by default (detection only)")

    static_known = (frame_dest and effect is not None and effect.dest_size is not None
                    and effect.dest_size > 0)
    modes = MODES if static_known else ("runtime",)
    template = next((t for m in modes for t in candidates if t.mode == m), None)
    if template is None:
        raise NoTemplate(f"no runtime template for callee {sink.callee!r}")
    return PatchPlan(template, sink,
                     bound=effect.dest_size if template.mode == "static" else None)


def apply_trampolines(image: ProgramImage, plans: list[PatchPlan]) -> ProgramImage:
    """Replace each plan's sink call with a jump into its own appended
    trampoline block, in one copy of the image.

    A trampoline runs the bounded safecall and jumps back to the
    instruction after its sink; everything else is byte-for-byte the
    original image. Trampoline n starts 0x100 + n*0x40 bytes past the
    highest address so far (aligned down to 16) and is headed by the
    first free `__patch_<k>` label. A sink that is not a call, such as
    one a plan earlier in the list already patched, raises NoSinkFound.
    """
    new = ProgramImage(
        instructions=dict(image.instructions),
        order=list(image.order),
        function_headers=dict(image.function_headers),
        warnings=list(image.warnings),
    )
    top = max(image.order)
    k = 0
    for n, plan in enumerate(plans):
        sink_addr = plan.sink.address
        sink_ins = new.instructions.get(sink_addr)
        if sink_ins is None or sink_ins.mnemonic != "call":
            raise NoSinkFound(f"no call instruction at {sink_addr:#x}")
        nxt = image.next_in_function(sink_addr)
        if nxt is None:
            # sink ends its function: return to the call-return successor,
            # which for a terminal call is simply past the listing
            nxt = sink_addr + 0x10
        while f"__patch_{k}" in new.function_headers:
            k += 1
        label = f"__patch_{k}"
        base = (top + 0x100 + n * 0x40) & ~0xF
        top = base + 8                  # the jump back, now the highest address
        bound_text = f"0x{plan.bound:x}" if plan.bound is not None else "rt"
        for addr, mnemonic, op, text in [
                (sink_addr, "jmp", Operand(kind=TARGET, value=base), f"jmp 0x{base:x}"),
                (base, "safecall", Operand(kind=IMM, value=plan.bound,
                                           symbol=plan.template.replacement),
                 f"safecall {plan.template.replacement} {bound_text}"),
                (top, "jmp", Operand(kind=TARGET, value=nxt), f"jmp 0x{nxt:x}")]:
            new.instructions[addr] = Instruction(addr, mnemonic, (op,), f"{addr:x}: {text}", text)
        new.order.extend([base, top])
        new.function_headers[label] = base
        plan.trampoline_label = label
        plan.return_address = nxt
    new.index()
    return new
