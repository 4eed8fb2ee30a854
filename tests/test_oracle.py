"""The effects oracle's single run per root against a replay per site,
and how its interpreter work grows with program size."""

from __future__ import annotations

import random
from collections import Counter

from conftest import CORPUS_DIR, FIXTURE_DIR
from test_compiled import STATE
from test_fuzz import MUTANT_CONFIG, MUTANTS, SEED, _mutate, write_mutants

from stackcheck.cli import analyze, analyze_image
from stackcheck.effects import EffectsOracle, _unreached, emulate_call, emulate_loop
from stackcheck.frontend import MalformedLine, build_bcfg, parse_disassembly
from stackcheck.interp import CLEAN, CRASH, STEP_BUDGET, UNSUPPORTED, Halt, Machine
from stackcheck.memstace import Config
from stackcheck.validator import run


def _replay(oracle: EffectsOracle, root: int, site: int):
    """A fresh machine run from root to site, or the Halt that ends it first."""
    machine = Machine(oracle.image, oracle.cfg)
    machine.start(root)
    try:
        machine.run_to({site})
    except Halt as h:
        return h
    return machine


def _check_against_replay(text: str, cfg: Config, rng: random.Random) -> Counter:
    """Ask the oracle for every root x site in a shuffled order, so that runs
    are dropped and restarted, and compare each effect with a replay. The
    count of replays by how they ended: reached, or a Halt status."""
    image = parse_disassembly(text)
    bcfg = build_bcfg(image)
    oracle = EffectsOracle(image, bcfg, cfg)
    calls = [a for a, ins in image.instructions.items()
             if ins.mnemonic == "call" and oracle.spec(a) is not None]
    loops = {lp.entry: oracle.loop_at(lp.entry) for lp in oracle.loops if oracle.loop_at(lp.entry)}
    asks = [(root, site, None) for root in image.functions.values() for site in calls]
    asks += [(root, lp.entry, lp) for root in image.functions.values() for lp in loops.values()]
    rng.shuffle(asks)
    ends = Counter()
    for root, site, loop in asks:
        oracle.set_root(root)
        effect = oracle.loop_effect(loop) if loop else oracle.call_effect(site)
        ref = _replay(oracle, root, site)
        name = "loop" if loop else oracle.spec(site).name
        ends[ref.status if isinstance(ref, Halt) else "reached"] += 1
        if isinstance(ref, Halt):
            expected = _unreached(name, site, root, ref)
        else:
            expected = (emulate_loop(ref, loop) if loop else
                        emulate_call(ref, site, oracle.spec(site), oracle.buffer_size))
        assert effect == expected, (hex(root), hex(site), name)
    return ends


def test_one_run_per_root_matches_a_replay_per_site():
    rng = random.Random(SEED)
    sources = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    ends = Counter()
    for path in sources:
        ends += _check_against_replay(path.read_text(), Config(), rng)
    mutant_cfg = Config(max_states=2000, step_budget=20000)
    for _ in range(MUTANTS):
        text = _mutate(rng, rng.choice(sources).read_text())
        try:
            ends += _check_against_replay(text, mutant_cfg, rng)
        except MalformedLine:
            pass
    # the mutants make every kind of run end happen before some site
    assert set(ends) == {"reached", CLEAN, CRASH, STEP_BUDGET, UNSUPPORTED}, ends


def _chain(n: int) -> str:
    """main calls n leaves; each fills a source buffer in a loop, strcpy's
    it into a 16-byte buffer and puts the result."""
    lines, entries, pc = [], [], 0x401100
    for k in range(n):
        entries.append(pc)
        body = ["push rbp", "mov rbp, rsp", "sub rsp, 0x40", "lea rax, [rbp-0x40]",
                "mov rcx, 0x0",
                "mov byte [rax], 0x78",        # loop entry, body line 5
                "add rax, 0x1", "add rcx, 0x1", f"cmp rcx, {4 + k % 8:#x}",
                f"jne {pc + 4 * 5:#x}",
                "mov byte [rax], 0x0", "lea rsi, [rbp-0x40]", "lea rdi, [rbp-0x10]",
                "call 0x401030 <strcpy@plt>", "lea rdi, [rbp-0x10]",
                "call 0x4010a0 <puts@plt>", "add rsp, 0x40", "pop rbp", "ret"]
        lines.append(f"leaf_{k}:")
        lines += [f"{pc + 4 * i:x}: {text}" for i, text in enumerate(body)]
        pc += 4 * len(body) + 0x10
    body = ["push rbp", "mov rbp, rsp"] + [f"call {a:#x} <leaf_{k}>"
                                           for k, a in enumerate(entries)] + ["pop rbp", "ret"]
    lines.append("main:")
    lines += [f"{pc + 4 * i:x}: {text}" for i, text in enumerate(body)]
    return "\n".join(lines) + "\n"


def test_instructions_of_one_form_share_one_handler():
    """After a whole analysis of a chain listing, every instruction of one
    (mnemonic, operands) form that no counted loop closes runs one handler
    object, compiled once into the image's form table, which is much
    smaller than its code table. The handler takes its next pc from the
    code entry: two `add rax, 0x1` each go on to the instruction after
    their own."""
    image = parse_disassembly(_chain(8))
    analyze_image(image, "chain_8", Config(), patch=True, validate=True)
    handlers: dict = {}
    for pc, (handler, ins, nxt) in image.code.items():
        assert ins is image.instructions[pc] and nxt == image.next_pc[pc]
        if handler.__name__ != "back_edge":
            handlers.setdefault((ins.mnemonic, ins.operands), set()).add(handler)
    assert all(len(h) == 1 for h in handlers.values())
    assert {form: h.pop() for form, h in handlers.items()} == image.forms
    assert len(image.forms) * 3 < len(image.code), (len(image.forms), len(image.code))
    adds = [pc for pc, ins in image.instructions.items()
            if ins.raw_text.endswith("add rax, 0x1")]
    assert len(adds) == 8
    machine = Machine(image, Config())
    for pc in adds[:2]:
        machine.pc = pc
        machine.step()
        assert machine.pc == image.next_pc[pc] == pc + 4


def test_interpreter_steps_grow_linearly_with_chain_length(tmp_path, monkeypatch):
    steps = [0]
    step = Machine.step

    def counted(self):
        steps[0] += 1
        return step(self)

    monkeypatch.setattr(Machine, "step", counted)
    counts = []
    for n in (8, 16, 32):
        path = tmp_path / f"chain_{n}.s"
        path.write_text(_chain(n))
        steps[0] = 0
        report = analyze([str(path)], Config())[0]
        assert report.status == "clean", report.error
        counts.append(steps[0])
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1], counts


def test_root_runs_do_not_reexecute_loop_iterations(tmp_path, monkeypatch):
    """A root's run continues from the fork that computed a loop's effect
    instead of stepping through the loop again: on chain listings, the
    oracle's steps, forks included, stay within one whole run per root
    (a second pass over every fill loop exceeds that)."""
    steps = [0]
    step = Machine.step

    def counted(self):
        steps[0] += 1
        return step(self)

    monkeypatch.setattr(Machine, "step", counted)
    for n in (8, 16, 32):
        path = tmp_path / f"chain_{n}.s"
        path.write_text(_chain(n))
        steps[0] = 0
        report = analyze([str(path)], Config())[0]
        assert report.status == "clean", report.error
        emulated = steps[0]
        image = parse_disassembly(_chain(n))
        whole = sum(run(image, entry=entry).steps for entry in image.functions.values())
        assert emulated <= whole, (n, emulated, whole)


def test_loop_hand_off_equals_stepping_through_the_loop(tmp_path, monkeypatch):
    """Wherever the oracle's run continues from a loop's fork, the fork is
    the machine the run itself reaches by stepping on from the loop entry
    to the exit, in every field a step can change, and no site the run
    must stop at lies on the way. The corpus, the fixtures, chain listings
    and the fuzz mutants."""
    arrive = EffectsOracle._arrive
    ends = Counter()
    mismatches: list[str] = []

    def checked(self, machine):
        pc = machine.pc
        loop = self.loop_at(pc)
        if loop is None or (self.root, pc, "loop") in self._effects:
            return arrive(self, machine)
        stops = self._stops - {pc}
        ref = machine.fork()
        arrive(self, machine)
        if self._run is machine:
            ends["kept"] += 1
            return
        ends["handed off"] += 1
        try:
            ref.step()
            while ref.pc != loop.exit and ref.pc not in stops:
                ref.step()
        except Halt as h:
            mismatches.append(f"loop {pc:#x}: the run halts ({h}) before its exit")
            return
        differ = [f for f in STATE if getattr(self._run, f) != getattr(ref, f)]
        if differ:
            mismatches.append(f"loop {pc:#x}: state differs in {differ}")

    monkeypatch.setattr(EffectsOracle, "_arrive", checked)
    listings = [str(p) for p in sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))]
    for n in (4, 8):
        path = tmp_path / f"chain_{n}.s"
        path.write_text(_chain(n))
        listings.append(str(path))
    analyze(listings, Config())
    analyze(write_mutants(tmp_path), MUTANT_CONFIG)
    assert not mismatches, mismatches[:3]
    assert ends["handed off"] > 80 and ends["kept"] > 10, ends
