"""Stack effects of indirect transitions: C library calls and loops.

Effects are computed by bounded concrete emulation. The oracle keeps one
interpreter run per analysis root and computes the effect of each library
call, safecall and loop entry at the run's first arrival there (a user
call, as `ProgramImage.callees` classifies it, is stepped into); the run
advances only as far as the furthest site asked for. Both kinds give one
record, a CallEffect (touched bytes, notes, and whether it is complete),
in one cache keyed by (root, pc, "call" | "loop"). A call's effect is the
stack diff of the interpreter's own handler for the instruction run on
a fork (it runs the LibcSpec `interp.call_spec` gives the call, a
safecall with its bound), so detection and validation share one library
model; the fork reads the call's smallest crashing stdin, derived in
closed form for patch validation. A loop's effect is the diff between a
fork's arrival at the loop entry and its exit; a fork that does not
reach the exit (iteration or step budget, an unsupported construct, or
leaving the function) gives a truncating effect, with a note saying why.
When the fork reaches the exit without halting, within the iteration
budget and without passing a site the run still has to stop at, the run
continues from the fork instead of executing the loop again. A counted
loop's iterations run in closed form inside the interpreter (see interp):
the fork counts each skipped back edge to its loop's entry as an
iteration, a skip never takes it past the iteration budget or the exit,
and the skipped back edges of an inner loop are no iterations of the
loop it emulates. When the
run halts first (clean exit, crash, step budget or an unsupported
construct), every site it did not reach gets a truncating opaque effect
with a note saying which. Touched bytes are (frame depth, byte index)
pairs, each in the shadow frame whose top is the lowest at or above its
address, so no index is negative. A shadow frame's canary slot is the
one written by the store `ProgramImage.frame` names by its listing-order
rule (never through a base other than rbp or rsp), as in the builder.
The oracle also owns the analysis's buffer-size rule.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from typing import NamedTuple

from . import MalformedData, interp, load_data, parse_json
from .frontend import BCfg, ProgramImage
from .interp import (CAUSE_OOS, CLEAN, CRASH, STEP_BUDGET, TIMEOUT, UNSUPPORTED, Halt, LibcSpec,
                     Machine, call_spec, load_libc_db)
from .memstace import Config, infer_buffer_size


def load_buffer_pins(path: str | None) -> dict[str, dict[int, int]]:
    """The buffer sizes the --buffers sidecar at `path` pins, {function:
    {rbp offset: size}}, read once per process (see load_data). No path
    pins nothing."""
    return {} if path is None else load_data(None, _parse_buffer_pins, path)


def _parse_buffer_pins(data: bytes) -> dict[str, dict[int, int]]:
    """A sidecar's pins: offsets are integer strings and sizes positive
    integers."""
    raw = parse_json(data)
    if not isinstance(raw, dict) or not all(isinstance(t, dict) for t in raw.values()):
        raise MalformedData("expected an object mapping each function to an object "
                            "of {rbp offset: size}")
    pins: dict[str, dict[int, int]] = {}
    for fn, table in raw.items():
        pins[fn] = {}
        for off, size in table.items():
            try:
                offset = int(off)
            except ValueError:
                raise MalformedData(f"{fn}: offset {off!r} is not an integer")
            if type(size) is not int or size <= 0:
                raise MalformedData(f"{fn}: size {size!r} at offset {off} is not a "
                                    "positive integer")
            pins[fn][offset] = size
    return pins


# --- call effects ----------------------------------------------------------

class CallEffect(NamedTuple):
    name: str
    notes: list[str]
    touched: tuple[tuple[int, int], ...] = ()    # (frame depth, byte index) written
    concrete_input: bytes | None = None     # the smallest crashing stdin, if derived
    opaque: bool = False
    truncating: bool = False                # incomplete: its root's space is truncated
    dest_size: int | None = None


def _opaque(name: str, note: str, truncating: bool = False) -> CallEffect:
    return CallEffect(name=name, opaque=True, truncating=truncating, notes=[note])


def emulate_call(machine: Machine, call_site: int, spec: LibcSpec,
                 buffer_size) -> CallEffect:
    """The effect of the call or safecall at call_site, which runs `spec`,
    on a machine standing there: run the interpreter's handler for the
    instruction on a fork and report the stack diff as (frame depth, byte
    index) touches.
    `buffer_size(fn, offset, has_canary)` is the analysis's buffer-size
    rule.

    The fork reads the smallest stdin that reaches a protected byte from
    the destination, or max_input_len `A`s when none is that short; a
    source string at no plausible address is max_input_len `A`s, and a
    function writing a byte count (strncpy, memset: `LibcSpec.count`)
    writes `A`s, at most max_input_len of them, since a
    zero fill over the root frame's saved rbp (0 in emulation) would not
    show in the diff. A write running past the stack or the aux area stops
    there, with a note."""
    name = spec.name
    if spec.dest is None:
        return CallEffect(name=name, notes=[])
    dest = machine.regs[spec.dest]
    if not _plausible_pointer(machine, dest):
        return _opaque(name, f"{name} at {call_site:#x}: destination unresolved",
                       truncating=True)

    dest_size = None
    frame = machine.frame_containing(dest)
    if frame is not None:
        dest_size = frame.protected_floor() - dest
        # the buffer the rule gives (a pin or a neighbouring object) caps
        # the destination below the protected floor; only the active
        # frame's layout is known here
        if frame.rbp_loc is not None and frame is machine.shadow[-1]:
            size = buffer_size(machine.image.owner[call_site],
                               dest - frame.rbp_loc, frame.canary_loc is not None)
            if 0 < size < dest_size:
                dest_size = size

    max_len = machine.cfg.max_input_len
    crash_input = _crash_input(machine, dest, max_len)
    fork = machine.fork()
    fork.stdin, fork.stdin_pos = crash_input or b"A" * max_len, 0
    counted = spec.count is not None
    if spec.src and (counted or not _plausible_pointer(machine, fork.regs[spec.src])):
        fork.aux.update(_stand_in(max_len))
        fork.regs[spec.src] = STAND_IN
    if spec.fill:
        fork.regs[spec.fill] = ord("A")
    if counted:
        fork.regs[spec.count] = min(fork.regs[spec.count], max_len)
    snap = fork.snapshot()
    clamped = False
    try:
        fork._do_call(machine.image.instructions[call_site], None)
    except Halt as h:
        if h.cause != CAUSE_OOS:
            return _opaque(name, f"{name} at {call_site:#x}: {h.cause}", truncating=True)
        clamped = True
    touched, overflow = _map_touches(machine, fork.diff_stack(snap))
    notes = [f"effect of {name} clamped at the outermost frame"] if clamped or overflow else []
    # the crash input is derived when the handler read all of it
    derived = crash_input is not None and fork.stdin_pos == len(crash_input)
    return CallEffect(name=name, touched=tuple(touched),
                      concrete_input=crash_input + b"\n" if derived else None,
                      dest_size=dest_size, notes=notes)


def _plausible_pointer(machine: Machine, addr: int) -> bool:
    return machine.in_stack(addr) or addr in machine.aux or (
        interp.ARGV_BASE <= addr < interp.ARGV_BASE + 0x10000)


# where a fork holds the max_input_len `A`s that stand in for a source
# string at no plausible address
STAND_IN = 0x600000


@cache
def _stand_in(n: int) -> dict[int, int]:
    """The aux bytes of n `A`s at STAND_IN, built once per length: callers
    only copy them."""
    return dict.fromkeys(range(STAND_IN, STAND_IN + n), ord("A"))


def _map_touches(machine: Machine, changed: list[int]):
    """Map changed addresses, ascending, to (depth from the active frame,
    byte index). An address below rsp or in no shadow frame is overflow.

    An address belongs to the frame with the lowest top at or above it
    (the earlier shadow frame on a tie, as in Machine.frame_containing);
    with the frames sorted by top, one index follows the ascending
    addresses."""
    shadow = machine.shadow
    by_top = sorted(range(len(shadow)), key=lambda k: shadow[k].top_addr)
    touched = []
    overflow = False
    i = 0
    for addr in changed:
        if addr < machine.regs["rsp"]:
            overflow = True
            continue
        while i < len(by_top) and shadow[by_top[i]].top_addr < addr:
            i += 1
        if i == len(by_top):
            return touched, True
        k = by_top[i]
        touched.append((len(shadow) - 1 - k, shadow[k].index_of(addr)))
    return touched, overflow


def _crash_input(machine: Machine, dest: int, max_len: int) -> bytes | None:
    """The smallest input line (without its newline) whose write from dest,
    payload plus terminator, changes a protected byte; None when it is
    longer than max_len.

    An input of length n writes dest..dest+n, so the first protected byte
    at or above dest fixes the minimum: over the 8-byte saved
    return-address and canary slots of every shadow frame, a slot at lo
    holds one when lo + 7 >= dest, and its first is max(lo, dest). A
    terminator landing on a byte already 0x00 there changes nothing, so
    the input is then one byte longer.
    """
    above = [max(lo, dest) for f in machine.shadow for lo in (f.ret_loc, f.canary_loc)
             if lo is not None and lo + 7 >= dest]
    first = min(above, default=None)
    if first is None:
        return None
    minimal = max(first - dest, 1) + (first > dest and machine.rd_mem(first, 1) == b"\0")
    return b"A" * minimal if minimal <= max_len else None


# --- loops ------------------------------------------------------------------

class LoopInfo(NamedTuple):
    function: str
    entry: int                      # back-edge target block address
    exit: int | None                # None: no edge leaves the body
    body: frozenset[int]
    irreducible: bool = False       # its entry does not dominate the back edge

    @property
    def summarized(self) -> bool:       # reducible and with an exit: its effect is emulated
        return not self.irreducible and self.exit is not None


def detect_loops(bcfg: BCfg, image: ProgramImage) -> list[LoopInfo]:
    """Natural loops from back-edges found by DFS ancestry, per function."""
    loops: list[LoopInfo] = []
    intra = {blk.start: blk.successors for blk in bcfg.blocks.values()}
    preds = bcfg.predecessors

    seen_edges: set[tuple[int, int]] = set()
    for fn_entry in sorted(image.functions.values()):
        for (src, tgt) in sorted(_find_back_edges(fn_entry, intra)):
            if (src, tgt) in seen_edges:
                continue
            seen_edges.add((src, tgt))
            # a back edge whose target does not dominate its source
            irreducible = _reaches_avoiding(fn_entry, src, tgt, intra)
            body = _natural_loop_body(src, tgt, preds)
            loops.append(LoopInfo(function=image.owner[fn_entry], entry=tgt,
                                  exit=_loop_exit(body, intra), body=frozenset(body),
                                  irreducible=irreducible))
    return loops


def _find_back_edges(entry: int, intra: dict[int, list[int]]) -> set[tuple[int, int]]:
    """Edges into a block on the DFS path, visiting successors in order. The
    path is an explicit stack of (block, successor iterator), so a long
    function cannot exhaust the interpreter's recursion limit."""
    back: set[tuple[int, int]] = set()
    if entry not in intra:
        return back
    on_stack: set[int] = {entry}
    seen: set[int] = {entry}
    path = [(entry, iter(intra[entry]))]
    while path:
        b, succs = path[-1]
        for t in succs:
            if t in on_stack:
                back.add((b, t))
            elif t not in seen:
                seen.add(t)
                on_stack.add(t)
                path.append((t, iter(intra.get(t, []))))
                break
        else:
            path.pop()
            on_stack.discard(b)
    return back


def _reaches_avoiding(entry: int, goal: int, avoid: int, intra) -> bool:
    """Whether a path from entry reaches goal without passing avoid: it
    does not exactly when avoid dominates goal."""
    seen = {avoid}
    work = [entry]
    while work:
        b = work.pop()
        if b in seen:
            continue
        if b == goal:
            return True
        seen.add(b)
        work.extend(intra.get(b, []))
    return False


def _natural_loop_body(src: int, tgt: int, preds) -> set[int]:
    body = {tgt, src}
    work = [src]
    while work:
        b = work.pop()
        if b == tgt:
            continue
        for p in preds.get(b, []):
            if p not in body:
                body.add(p)
                work.append(p)
    return body


def _loop_exit(body: set[int], intra) -> int | None:
    for b in sorted(body):
        for t in intra.get(b, []):
            if t not in body:
                return t
    return None


def emulate_loop(machine: Machine, loop: LoopInfo,
                 stops: set[int] | frozenset[int] = frozenset(),
                 adopt: Callable[[Machine], None] | None = None) -> CallEffect:
    """The effect of a loop on a machine standing at its entry: run a fork
    to the exit (or until the iteration budget runs out) and diff the
    stack against the arrival. A fork that does not reach the exit gives
    a truncating effect, with a note saying why.

    When the fork reaches the exit without halting, within the iteration
    budget and without passing a pc in `stops`, it stands where `machine`
    would after stepping through the loop itself; `adopt` is then called
    with that fork, its write marks widened to cover `machine`'s."""
    cfg = machine.cfg
    fork = machine.fork()
    # a counted loop's skip passes neither the exit nor a pc in stops, and
    # counts the back edges to the entry it takes in loop_left
    fork.stops, fork.loop_entry, fork.loop_exit = stops, loop.entry, loop.exit
    fork.loop_left = cfg.max_loop_iters
    snap = fork.snapshot()
    notes: list[str] = []
    reached = passed = False
    try:
        for _ in fork.dispatches():
            fork.step()
            if fork.pc == loop.exit:
                reached = True
                break
            passed = passed or fork.pc in stops
            if fork.pc == loop.entry:
                fork.loop_left -= 1
                if fork.loop_left <= 0:
                    notes.append(f"loop at {loop.entry:#x}: iteration budget "
                                 f"({cfg.max_loop_iters}) exhausted; effect may be partial")
                    break
    except Halt as h:
        notes.append({STEP_BUDGET: f"loop at {loop.entry:#x}: step budget exhausted",
                      TIMEOUT: f"loop at {loop.entry:#x}: timeout during emulation",
                      UNSUPPORTED: f"loop at {loop.entry:#x}: emulation failed: {h.cause}"}
                     .get(h.status, f"loop at {loop.entry:#x}: execution left the function"))
    touched, overflow = _map_touches(fork, fork.diff_stack(snap))
    if overflow:
        notes.append("effect of loop clamped at the outermost frame")
    if adopt is not None and reached and not passed:
        fork.loop_entry = fork.loop_exit = None
        fork._wm_lo = min(fork._wm_lo, machine._wm_lo)
        fork._wm_hi = max(fork._wm_hi, machine._wm_hi)
        adopt(fork)
    return CallEffect(name="loop", touched=tuple(touched), truncating=not reached, notes=notes)


def _unreached(name: str, site: int, root: int, h: Halt) -> CallEffect:
    """The truncating opaque effect of a call site or loop entry (named
    "loop") that the run from `root` halted before reaching."""
    note = {CLEAN: f"{name} at {site:#x} not reached from {root:#x}",
            STEP_BUDGET: f"emulation diverged before {site:#x}",
            TIMEOUT: f"timeout during emulation before {site:#x}",
            CRASH: f"crash ({h.cause}) before {site:#x}",
            UNSUPPORTED: f"emulation failed before {site:#x}: {h.cause}"}[h.status]
    return _opaque(name, note, truncating=True)


# --- the oracle used by the state-space builder ------------------------------

class EffectsOracle:
    """Per-binary cache of call and loop effects, keyed by analysis root.

    Each root has one interpreter run. A cache miss advances it to the next
    pending site (a library call or safecall with a libc spec, or the entry
    of a reducible loop with an exit) and computes that site's effect at
    this first arrival, until the requested site is cached. At a loop entry
    the run continues from the fork that computed the loop's effect when
    emulate_loop hands it over (the fork reached the exit without passing a
    pending site); otherwise it steps through the loop itself. Only the
    current root's run stays alive: set_root drops it, and a later miss for
    that root starts a fresh run, which computes only the effects not cached
    yet. A run that halts is kept as its Halt, which fixes the opaque effect
    of every site it did not reach.

    It also owns the buffer-size rule (`buffer_size`), memoized for the
    analysis, over the stack objects of each function's FrameFacts.
    """

    def __init__(self, image: ProgramImage, bcfg: BCfg, cfg: Config,
                 deadline: float | None = None):
        self.image = image
        self.bcfg = bcfg
        self.cfg = cfg
        self.deadline = deadline        # the analysis deadline every run of a root stops at
        self.libc_db = load_libc_db(cfg.libc_db_path)
        self.buffer_pins = load_buffer_pins(cfg.buffers_path)
        self._buffer_sizes: dict[tuple[str, int, bool], int] = {}
        # the analysis root emulations start from; callers set it per root
        self.root = image.order[0] if image.order else None
        self.loops = detect_loops(bcfg, image)
        self._loops_by_entry: dict[int, LoopInfo] = {}
        for lp in self.loops:
            cur = self._loops_by_entry.get(lp.entry)
            if cur is None or len(lp.body) > len(cur.body):
                self._loops_by_entry[lp.entry] = lp
        self._effects: dict[tuple[int, int, str], CallEffect] = {}   # (root, pc, call|loop)
        # where a root's run stops: library calls and safecalls with a libc
        # spec, and summarized loops' entries; no user call is among them
        self._call_sites = frozenset(a for a in image.callees if self.spec(a) is not None)
        self._sites = self._call_sites | {a for a, lp in self._loops_by_entry.items()
                                          if lp.summarized}
        self._run: Machine | None = None      # the current root's run, while alive
        self._stops: set[int] = set()         # pending sites that run has not reached
        self._halts: dict[int, Halt] = {}     # how each halted root's run ended

    def set_root(self, entry: int) -> None:
        if entry != self.root:
            self._run = None
        self.root = entry

    def buffer_size(self, fn: str, offset: int, has_canary: bool) -> int:
        """Size of the buffer at rbp offset `offset` in `fn`: its --buffers
        pin, else the gap to the next object the function addresses."""
        key = (fn, offset, has_canary)
        if key not in self._buffer_sizes:
            size = self.buffer_pins.get(fn, {}).get(offset)
            if size is None:
                size = infer_buffer_size(offset, self.image.frame(fn).objects, has_canary)
            self._buffer_sizes[key] = size
        return self._buffer_sizes[key]

    def spec(self, site: int) -> LibcSpec | None:
        """The spec the call or safecall at `site` runs (see interp.call_spec)."""
        return call_spec(self.image.callees[site], self.libc_db)

    def call_effect(self, site: int) -> CallEffect:
        """The effect of the library call or safecall at `site`."""
        spec = self.spec(site)
        if spec is None:
            name = self.image.callees[site].name
            return _opaque(name, f"unknown library function {name!r}; call treated as opaque")
        return self._effect(site, "call", spec.name)

    def loop_at(self, pc: int) -> LoopInfo | None:
        loop = self._loops_by_entry.get(pc)
        return loop if loop is not None and loop.summarized else None

    def loop_effect(self, loop: LoopInfo) -> CallEffect:
        """The effect of `loop`, which is the loop loop_at gives for its entry."""
        return self._effect(loop.entry, "loop", "loop")

    def _effect(self, pc: int, kind: str, name: str) -> CallEffect:
        """The `kind` effect at pc from the current root: run the root until
        _arrive caches it, or give the opaque effect the run's halt fixes."""
        root = self.root
        key = (root, pc, kind)
        if key not in self._effects and root not in self._halts:
            if self._run is None:
                self._run = Machine(self.image, self.cfg, stdin=b"", deadline=self.deadline)
                self._run.start(root)
                self._stops = set(self._sites)
            try:
                while key not in self._effects:
                    self._run.run_to(self._stops)
                    self._arrive(self._run)
            except Halt as h:
                self._halts[root] = h
                self._run = None
        if key not in self._effects:
            self._effects[key] = _unreached(name, pc, root, self._halts[root])
        return self._effects[key]

    def _arrive(self, machine: Machine) -> None:
        """Compute the effects at the run's first arrival at machine.pc, unless
        cached already. A loop's fork that reached the exit without passing
        a pending site becomes the run."""
        pc, effects = machine.pc, self._effects
        self._stops.discard(pc)
        if pc in self._call_sites and (self.root, pc, "call") not in effects:
            effects[self.root, pc, "call"] = emulate_call(machine, pc, self.spec(pc),
                                                          self.buffer_size)
        loop = self.loop_at(pc)
        if loop is not None and (self.root, pc, "loop") not in effects:
            effects[self.root, pc, "loop"] = emulate_loop(machine, loop, self._stops, self._adopt)

    def _adopt(self, fork: Machine) -> None:
        self._run = fork
