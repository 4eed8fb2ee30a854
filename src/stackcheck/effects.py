"""Stack effects of indirect transitions: C library calls and loops.

Effects are computed by bounded concrete emulation. The oracle keeps one
interpreter run per analysis root and computes the effect of each call
site and loop entry at the run's first arrival there; the run advances
only as far as the furthest site asked for. At a call site the callee's
write-extent rule is applied to a fork of the machine, and the stack
diff gives the touched bytes, each placed in its owning shadow frame. A
loop's effect is the diff between a fork's arrival at the loop entry and
its exit. When that fork reaches the exit without halting, within the
iteration budget and without passing a site the run still has to stop
at, the run continues from the fork instead of executing the loop
again, so the root executes that loop once. When the run
halts first (clean exit, crash, step budget or an unsupported
construct), every site it did not reach gets an opaque effect with a
note saying which. A call site's libc spec is looked up by the symbol
it names, and its arguments are read from the machine standing at the
call, never recovered from the listing. Calls that read stdin/argv
record the smallest input reaching a saved return address or canary;
that input is kept for patch validation. The write covers the input
plus its terminator, so that length is the distance from the
destination to the first protected byte at or above it (at least 1), in
closed form. The oracle also owns the analysis's buffer-size rule, which
the state-space builder and the call emulation both read.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

from . import interp, load_data
from .frontend import BCfg, ProgramImage
from .interp import CLEAN, CRASH, STACK_TOP, STEP_BUDGET, UNSUPPORTED, Halt, Machine
from .memstace import ByteOp, Config, infer_buffer_size, scan_object_boundaries

ARG_REGS = ["rdi", "rsi", "rdx", "rcx", "r8", "r9"]


class UnknownLibc(Exception):
    pass


class MalformedBuffers(Exception):
    """A --buffers sidecar that is not {function: {rbp offset: size}}."""


@dataclass(frozen=True)
class LibcSpec:
    name: str
    arity: int
    roles: tuple[str, ...]           # dest | src | format | value per argument
    input_source: bool
    extent: str                      # write-extent rule id

    def role_register(self, role: str) -> str | None:
        for i, r in enumerate(self.roles):
            if r == role:
                return ARG_REGS[i]
        return None


def load_libc_db(path: str | None = None) -> dict[str, LibcSpec]:
    return load_data("libc.json", _parse_libc_db, path)


def _parse_libc_db(text: str) -> dict[str, LibcSpec]:
    return {name: LibcSpec(name=name, arity=e["arity"], roles=tuple(e["roles"]),
                           input_source=e["input_source"], extent=e["extent"])
            for name, e in json.loads(text).items()}


def load_buffer_pins(path: str | None) -> dict[str, dict[int, int]]:
    """The buffer sizes a --buffers sidecar pins, {function: {rbp offset:
    size}}: offsets are integer strings and sizes positive integers. No
    path pins nothing."""
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:     # not JSON, or not UTF-8
            raise MalformedBuffers(f"not JSON: {exc}")
    if not isinstance(raw, dict) or not all(isinstance(t, dict) for t in raw.values()):
        raise MalformedBuffers("expected an object mapping each function to an object "
                               "of {rbp offset: size}")
    pins: dict[str, dict[int, int]] = {}
    for fn, table in raw.items():
        pins[fn] = {}
        for off, size in table.items():
            try:
                offset = int(off)
            except ValueError:
                raise MalformedBuffers(f"{fn}: offset {off!r} is not an integer")
            if type(size) is not int or size <= 0:
                raise MalformedBuffers(f"{fn}: size {size!r} at offset {off} is not a "
                                       "positive integer")
            pins[fn][offset] = size
    return pins


def lookup_libc(name: str, db: dict[str, LibcSpec] | None = None) -> LibcSpec:
    db = db or load_libc_db()
    key = name.removesuffix("@plt")
    if key not in db:
        raise UnknownLibc(name)
    return db[key]


# --- call effects ----------------------------------------------------------

@dataclass
class CallEffect:
    name: str
    site: int
    touched: tuple[tuple[int, int, ByteOp], ...] = ()
    concrete_input: bytes | None = None     # the smallest crashing stdin, if derived
    corrupting_len: int | None = None
    opaque: bool = False
    truncating: bool = False
    clamped: bool = False
    dest_size: int | None = None
    notes: list[str] = field(default_factory=list)


def _opaque(name: str, site: int, note: str, truncating: bool = False) -> CallEffect:
    return CallEffect(name=name, site=site, opaque=True, truncating=truncating,
                      notes=[note])


def emulate_call(machine: Machine, call_site: int, spec: LibcSpec,
                 buffer_size) -> CallEffect:
    """The effect of the call to `spec` at call_site on a machine standing
    there: apply the callee's write rule to a fork and report the stack
    diff as (frame depth, byte index) touches. `buffer_size(fn, offset,
    has_canary)` is the analysis's buffer-size rule."""
    name = spec.name
    cfg = machine.cfg
    if spec.extent == "none":
        return CallEffect(name=name, site=call_site)

    dest_reg = spec.role_register("dest")
    dest = machine.rd_reg(dest_reg) if dest_reg else None
    if dest is not None and not _plausible_pointer(machine, dest):
        return _opaque(name, call_site,
                       f"{name} at {call_site:#x}: destination unresolved", truncating=True)

    dest_size = None
    if dest is not None:
        frame = machine.frame_containing(dest)
        if frame is not None:
            dest_size = frame.protected_floor() - dest
            # the buffer the rule gives (a pin or a neighbouring object)
            # caps the destination below the protected floor; only the
            # active frame's layout is known here
            if frame.rbp_loc is not None and frame is machine.shadow[-1]:
                size = buffer_size(machine.image.function_of(call_site),
                                   dest - frame.rbp_loc, frame.canary_loc is not None)
                if 0 < size < dest_size:
                    dest_size = size

    try:
        payloads, search = _write_payloads(machine, spec, dest, cfg)
    except Halt as h:
        return _opaque(name, call_site, f"{name} at {call_site:#x}: {h.cause}", truncating=True)

    if search is None:
        data, at = payloads
        effect = _diff_effect(machine, name, call_site, at, data)
    else:
        effect = _input_search(machine, name, call_site, dest, cfg, search)
    effect.dest_size = dest_size
    return effect


def _plausible_pointer(machine: Machine, addr: int) -> bool:
    return machine.in_stack(addr) or addr in machine.aux or (
        interp.ARGV_BASE <= addr < interp.ARGV_BASE + 0x10000)


def _write_payloads(machine: Machine, spec: LibcSpec, dest, cfg: Config):
    """(payload bytes, write address) for non-input rules, or the search
    bound for input-source rules."""
    if spec.extent == "strlen_src_plus_1":
        data = _source_string(machine, spec, cfg)
        return (data + b"\0", dest), None
    if spec.extent == "append_src_plus_1":
        data = _source_string(machine, spec, cfg)
        dlen = len(machine.rd_cstr(dest))
        return (data + b"\0", dest + dlen), None
    if spec.extent == "format_output_plus_1":
        fmt_reg = spec.role_register("format")
        fmt = machine.rd_cstr(machine.rd_reg(fmt_reg))
        pos = ARG_REGS.index(fmt_reg)
        out = machine._render_format(fmt, ARG_REGS[pos + 1:])
        return (out + b"\0", dest), None
    if spec.extent == "bounded_format":
        n = machine.rd_reg(spec.role_register("value") or "rsi")
        fmt = machine.rd_cstr(machine.rd_reg("rdx"))
        out = machine._render_format(fmt, ["rcx", "r8", "r9"])
        return (out[:max(n - 1, 0)] + (b"\0" if n > 0 else b""), dest), None
    if spec.extent == "exactly_n":
        n = machine.rd_reg("rdx")
        n = min(n, cfg.max_input_len)
        return (b"A" * n, dest), None
    if spec.extent in ("line_plus_1", "token_plus_1"):
        return None, cfg.max_input_len
    if spec.extent == "bounded_line":
        n = machine.rd_reg("rsi")
        return None, max(min(n - 1, cfg.max_input_len), 0)
    raise UnknownLibc(f"no write-extent rule {spec.extent!r}")


def _source_string(machine: Machine, spec: LibcSpec, cfg: Config) -> bytes:
    src = machine.rd_reg(spec.role_register("src"))
    if not _plausible_pointer(machine, src):
        # unresolvable source: assume attacker-controlled up to the cap
        return b"A" * cfg.max_input_len
    return machine.rd_cstr(src)


def _apply_payload(clone: Machine, addr: int, data: bytes) -> bool:
    """Write data at addr up to the first byte outside the stack and the
    aux area; whether the write was clamped there. A write that starts in
    the stack runs in it up to STACK_TOP, so it is one write."""
    if clone.in_stack(addr):
        n = min(len(data), STACK_TOP - addr)
        clone.wr_mem(addr, data[:n])
        return n < len(data)
    for i, b in enumerate(data):
        a = addr + i
        if not (clone.in_stack(a) or a in clone.aux):
            return True
        clone.wr_mem(a, bytes([b]))
    return False


def _diff_effect(machine: Machine, name: str, site: int, at: int, data: bytes) -> CallEffect:
    clone = machine.fork()
    snap = clone.snapshot()
    clamped = _apply_payload(clone, at, data)
    touched, overflow = _map_touches(machine, clone.diff_stack(snap))
    return CallEffect(name=name, site=site, touched=tuple(touched),
                      clamped=clamped or overflow)


def _map_touches(machine: Machine, changed: dict[int, tuple[int, int]]):
    """Map changed addresses to (depth from the active frame, byte index).
    An address below rsp or in no shadow frame is overflow.

    An address belongs to the frame with the lowest top at or above it
    (the earlier shadow frame on a tie, as in Machine.frame_containing);
    with the frames sorted by top, one index follows the ascending
    addresses."""
    shadow = machine.shadow
    by_top = sorted(range(len(shadow)), key=lambda k: shadow[k].top_addr)
    touched = []
    overflow = False
    i = 0
    for addr in sorted(changed):
        if addr < machine.regs["rsp"]:
            overflow = True
            continue
        while i < len(by_top) and shadow[by_top[i]].top_addr < addr:
            i += 1
        if i == len(by_top):
            return touched, True
        k = by_top[i]
        touched.append((len(shadow) - 1 - k, shadow[k].index_of(addr), ByteOp.NRWRITE))
    return touched, overflow


def _protected_addresses(machine: Machine) -> set[int]:
    """Saved return-address and canary bytes of every shadow frame."""
    out: set[int] = set()
    for f in machine.shadow:
        out.update(range(f.ret_loc, f.ret_loc + 8))
        if f.canary_loc is not None:
            out.update(range(f.canary_loc, f.canary_loc + 8))
    return out


def _input_search(machine: Machine, name: str, site: int, dest: int,
                  cfg: Config, max_len: int) -> CallEffect:
    """The smallest input length whose write reaches protected bytes.

    An input of length n writes dest..dest+n (payload plus terminator), so
    the first protected byte at or above dest fixes the minimum.
    """
    above = [a for a in _protected_addresses(machine) if a >= dest]
    minimal = max(min(above) - dest, 1) if above else None
    if minimal is None or minimal > max_len:
        # bounded input: worst case is the full allowed extent, no crash input
        data = b"A" * max_len + (b"\0" if max_len else b"")
        return _diff_effect(machine, name, site, dest, data)

    data = b"A" * minimal + b"\0"
    effect = _diff_effect(machine, name, site, dest, data)
    effect.corrupting_len = minimal
    effect.concrete_input = b"A" * minimal + b"\n"
    return effect


# --- loops ------------------------------------------------------------------

@dataclass(frozen=True)
class LoopInfo:
    function: str
    entry: int                      # back-edge target block address
    exit: int | None
    body: frozenset[int]
    irreducible: bool = False


def detect_loops(bcfg: BCfg, image: ProgramImage) -> list[LoopInfo]:
    """Natural loops from back-edges found by DFS ancestry, per function."""
    loops: list[LoopInfo] = []
    intra: dict[int, list[int]] = {}
    for blk in bcfg.blocks.values():
        intra[blk.start] = [t for kind, t in blk.edges
                            if isinstance(t, int) and kind in ("fallthrough", "taken", "call-return")]
    preds = bcfg.predecessors

    seen_edges: set[tuple[int, int]] = set()
    for fn_entry in sorted(image.functions.values()):
        back_edges = _find_back_edges(fn_entry, intra)
        if not back_edges:
            continue
        dom = _dominators(fn_entry, intra, preds)
        for (src, tgt) in sorted(back_edges):
            if (src, tgt) in seen_edges:
                continue
            seen_edges.add((src, tgt))
            irreducible = tgt not in dom.get(src, {src})
            body = _natural_loop_body(src, tgt, preds)
            exit_addr = _loop_exit(body, intra, bcfg)
            loops.append(LoopInfo(function=image.function_of(fn_entry), entry=tgt,
                                  exit=exit_addr, body=frozenset(body),
                                  irreducible=irreducible or exit_addr is None))
    return loops


def _find_back_edges(entry: int, intra: dict[int, list[int]]) -> set[tuple[int, int]]:
    back: set[tuple[int, int]] = set()
    on_stack: set[int] = set()
    seen: set[int] = set()

    def visit(b: int) -> None:
        seen.add(b)
        on_stack.add(b)
        for t in intra.get(b, []):
            if t in on_stack:
                back.add((b, t))
            elif t not in seen:
                visit(t)
        on_stack.discard(b)

    if entry in intra:
        visit(entry)
    return back


def _dominators(entry: int, intra, preds) -> dict[int, set[int]]:
    nodes = set()
    work = [entry]
    while work:
        b = work.pop()
        if b in nodes:
            continue
        nodes.add(b)
        work.extend(intra.get(b, []))
    dom = {b: set(nodes) for b in nodes}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for b in nodes - {entry}:
            ps = [p for p in preds.get(b, []) if p in nodes]
            new = set(nodes)
            for p in ps:
                new &= dom[p]
            new |= {b}
            if not ps:
                new = {b}
            if new != dom[b]:
                dom[b] = new
                changed = True
    return dom


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


def _loop_exit(body: set[int], intra, bcfg: BCfg) -> int | None:
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
    stack against the arrival.

    When the fork reaches the exit without halting, within the iteration
    budget and without passing a pc in `stops`, it stands where `machine`
    would after stepping through the loop itself; `adopt` is then called
    with that fork, its write marks widened to cover `machine`'s."""
    cfg = machine.cfg
    fork = machine.fork()
    snap = fork.snapshot()
    iterations = 0
    notes: list[str] = []
    reached = passed = False
    try:
        while True:
            fork.step()
            if fork.pc == loop.exit:
                reached = True
                break
            passed = passed or fork.pc in stops
            if fork.pc == loop.entry:
                iterations += 1
                if iterations >= cfg.max_loop_iters:
                    notes.append(f"loop at {loop.entry:#x}: iteration budget "
                                 f"({cfg.max_loop_iters}) exhausted; effect may be partial")
                    break
    except Halt as h:
        notes.append({STEP_BUDGET: f"loop at {loop.entry:#x}: step budget exhausted",
                      UNSUPPORTED: f"loop at {loop.entry:#x}: emulation failed: {h.cause}"}
                     .get(h.status, f"loop at {loop.entry:#x}: execution left the function"))
    changed = fork.diff_stack(snap)
    touched, overflow = _map_touches(fork, changed)
    effect = CallEffect(name="loop", site=loop.entry, touched=tuple(touched),
                        clamped=overflow, notes=notes)
    if adopt is not None and reached and not passed:
        fork._wm_lo = min(fork._wm_lo, machine._wm_lo)
        fork._wm_hi = max(fork._wm_hi, machine._wm_hi)
        adopt(fork)
    return effect


def _unreached(name: str, site: int, root: int, h: Halt) -> CallEffect:
    """The opaque effect of a call site (or, named "loop", a loop entry)
    that the run from `root` halted before reaching."""
    if name == "loop":
        note = (f"emulation failed before {site:#x}: {h.cause}" if h.status == UNSUPPORTED
                else f"loop at {site:#x} not reached from {root:#x}")
    else:
        note = {CLEAN: f"{name} at {site:#x} not reached from {root:#x}",
                STEP_BUDGET: f"emulation diverged before {site:#x}",
                CRASH: f"crash ({h.cause}) before {site:#x}",
                UNSUPPORTED: f"emulation failed before {site:#x}: {h.cause}"}[h.status]
    return _opaque(name, site, note, truncating=True)


# --- the oracle used by the state-space builder ------------------------------

class EffectsOracle:
    """Per-binary cache of call and loop effects, keyed by analysis root.

    Each root has one interpreter run. A cache miss advances it to the
    next pending site (a library call with a libc spec, or the entry of a
    reducible loop) and computes that site's effect at this first
    arrival, until the requested site is cached. At a loop entry the run
    continues from the fork that computed the loop's effect when
    emulate_loop hands it over (the fork reached the exit without
    passing a pending site); otherwise it steps through the loop itself.
    Only the current root's run stays alive: set_root drops it, and a
    later miss for that root starts a fresh run, which computes only the
    effects not cached yet. A run that halts is kept as its Halt, which
    fixes the opaque effect of every site it did not reach.

    It also owns the buffer-size rule (`buffer_size`), memoized for the
    analysis.
    """

    def __init__(self, image: ProgramImage, bcfg: BCfg, cfg: Config,
                 libc_db: dict[str, LibcSpec] | None = None):
        self.image = image
        self.bcfg = bcfg
        self.cfg = cfg
        self.libc_db = libc_db or load_libc_db(cfg.libc_db_path)
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
        self._call_cache: dict[tuple[int, int], CallEffect] = {}
        self._loop_cache: dict[tuple[int, int], CallEffect] = {}
        self._call_sites: frozenset[int] | None = None
        self._sites: frozenset[int] | None = None     # call sites and loop entries
        self._run: Machine | None = None      # the current root's run, while alive
        self._stops: set[int] = set()         # pending sites that run has not reached
        self._halts: dict[int, Halt] = {}     # how each halted root's run ended

    def set_root(self, entry: int) -> None:
        if entry != self.root:
            self._run = None
        self.root = entry

    def libc_names(self) -> set[str]:
        return set(self.libc_db)

    def buffer_size(self, fn: str, offset: int, has_canary: bool) -> int:
        """Size of the buffer at rbp offset `offset` in `fn`: its --buffers
        pin, else the gap to the next object the function addresses."""
        key = (fn, offset, has_canary)
        if key not in self._buffer_sizes:
            pinned = self.buffer_pins.get(fn, {}).get(offset)
            self._buffer_sizes[key] = pinned if pinned is not None else infer_buffer_size(
                offset, scan_object_boundaries(self.image.function_body(fn)), has_canary)
        return self._buffer_sizes[key]

    def spec(self, site: int) -> LibcSpec | None:
        """The libc spec of the function the call at `site` names, if any."""
        try:
            return lookup_libc(self.image.instructions[site].target_symbol() or "",
                               self.libc_db)
        except UnknownLibc:
            return None

    def call_effect(self, site: int) -> CallEffect:
        key = (self.root, site)
        if key not in self._call_cache:
            spec = self.spec(site)
            if spec is None:
                ins = self.image.instructions[site]
                name = (ins.target_symbol() or f"sub_{ins.target():x}").removesuffix("@plt")
                self._call_cache[key] = _opaque(
                    name, site, f"unknown library function {name!r}; call treated as opaque")
            else:
                self._advance(self._call_cache, key, spec.name)
        return self._call_cache[key]

    def loop_at(self, pc: int) -> LoopInfo | None:
        loop = self._loops_by_entry.get(pc)
        if loop is None or loop.irreducible:
            return None
        return loop

    def loop_effect(self, loop: LoopInfo) -> CallEffect:
        """The effect of `loop`, which is the loop loop_at gives for its entry."""
        key = (self.root, loop.entry)
        if key not in self._loop_cache:
            self._advance(self._loop_cache, key, "loop")
        return self._loop_cache[key]

    def _advance(self, cache: dict, key: tuple[int, int], name: str) -> None:
        """Run the current root until `key` is in `cache`, or store the
        opaque effect its halt gives."""
        root = self.root
        if root not in self._halts:
            if self._run is None:
                self._run = Machine(self.image, self.cfg, stdin=b"")
                self._run.start(root)
                self._stops = self._pending()
            try:
                while key not in cache:
                    self._run.run_to(*self._stops)
                    self._arrive(self._run)
            except Halt as h:
                self._halts[root] = h
                self._run = None
        if key not in cache:
            cache[key] = _unreached(name, key[1], root, self._halts[root])

    def _pending(self) -> set[int]:
        """Call sites with a libc spec and reducible loop entries: where a
        root's run stops. _arrive skips a site whose effect from the root
        is cached already."""
        if self._sites is None:
            self._call_sites = frozenset(
                a for a, ins in self.image.instructions.items()
                if ins.mnemonic == "call" and self.spec(a) is not None)
            self._sites = self._call_sites | {
                a for a, lp in self._loops_by_entry.items() if not lp.irreducible}
        return set(self._sites)

    def _arrive(self, machine: Machine) -> None:
        """Compute the effects at the run's first arrival at machine.pc. A
        loop's fork that reached the exit without passing a pending site
        becomes the run."""
        pc = machine.pc
        self._stops.discard(pc)
        key = (self.root, pc)
        if pc in self._call_sites and key not in self._call_cache:
            self._call_cache[key] = emulate_call(machine, pc, self.spec(pc), self.buffer_size)
        loop = self.loop_at(pc)
        if loop is not None and key not in self._loop_cache:
            self._loop_cache[key] = emulate_loop(machine, loop, self._stops, self._adopt)

    def _adopt(self, fork: Machine) -> None:
        self._run = fork
