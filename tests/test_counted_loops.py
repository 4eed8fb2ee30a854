"""A counted loop's skip equals stepping: every run of the pipeline, with
the back edges of counted single-block loops compiled to their closed-form
skip and with them compiled as plain branches, leaves identical machines,
effects and halts. Covers the corpus, the fixtures, the fuzz mutants,
chain listings and listings that end a skip at each of its limits."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from conftest import CORPUS_DIR, FIXTURE_DIR
from test_compiled import STATE
from test_fuzz import MUTANT_CONFIG, MUTANTS, SEED, _mutate
from test_oracle import _chain

from stackcheck import interp
from stackcheck.effects import EffectsOracle
from stackcheck.frontend import MalformedLine, build_bcfg, parse_disassembly
from stackcheck.interp import CRASH, STEP_BUDGET, Halt, Machine
from stackcheck.memstace import Config
from stackcheck.validator import run

# listings that stop a skip at each of its limits
EDGES = {
    # the fill walks up out of the stack: stepping reaches the crash there
    "out_of_stack": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: lea rax, [rbp-0x10]
40100c: mov rcx, 0x0
401010: mov byte [rax], 0x41
401014: add rax, 0x1
401018: add rcx, 0x1
40101c: cmp rcx, 0x2000
401020: jne 0x401010
401024: pop rbp
401028: ret
""",
    # a page-sized stride walks down out of the stack
    "under_stack": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: lea rax, [rbp-0x10]
40100c: mov rcx, 0x0
401010: mov qword [rax], 0x41
401014: sub rax, 0x1000
401018: add rcx, 0x1
40101c: cmp rcx, 0x100
401020: jne 0x401010
401024: pop rbp
401028: ret
""",
    # rcx steps by 2 and never meets 0x11: the run ends at the step budget
    "never_meets": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: mov rcx, 0x0
40100c: mov qword [rbp-0x8], 0x7
401010: add rcx, 0x2
401014: cmp rcx, 0x11
401018: jne 0x40100c
40101c: pop rbp
401020: ret
""",
    # signed and unsigned conditions, negative and overshooting strides,
    # overlapping stores and a store that does not move
    "conditions": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x100
40100c: mov rcx, 0x20
401010: lea rax, [rbp-0x8]
401014: mov qword [rax], 0x1122334455667788
401018: sub rax, 0x8
40101c: sub rcx, 0x1
401020: cmp rcx, 0x10
401024: jg 0x401014
401028: lea rdx, [rbp-0x100]
40102c: mov r10, 0x0
401030: mov word [rdx], 0x4142
401034: mov byte [rdx+0x1], 0x43
401038: mov byte [rbp-0x90], 0x44
40103c: add rdx, 0x3
401040: add r10, 0x1
401044: cmp r10, 0x20
401048: jne 0x401030
40104c: mov rsi, 0x5
401050: sub rsi, 0x1
401054: cmp rsi, 0x0
401058: jns 0x401050
40105c: mov rdi, 0x0
401060: add rdi, 0x7
401064: cmp rdi, 0x40
401068: jb 0x401060
40106c: mov r8, 0x0
401070: add r8, 0x1
401074: cmp r8, 0x30
401078: jle 0x401070
40107c: mov r9, 0x2
401080: add r9, 0x1
401084: cmp r9, 0x3
401088: je 0x401080
40108c: add rsp, 0x100
401090: pop rbp
401094: ret
""",
    # two back edges to one header: the inner one is counted, and its
    # skipped back edges reach the header the outer loop's budget counts
    "shared_header": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x40
40100c: lea rax, [rbp-0x40]
401010: mov rcx, 0x0
401014: mov rdx, 0x0
401018: mov byte [rax], 0x61
40101c: add rax, 0x1
401020: add rcx, 0x1
401024: cmp rcx, 0x8
401028: jne 0x401018
40102c: mov rcx, 0x0
401030: add rdx, 0x1
401034: cmp rdx, 0x3
401038: jne 0x401018
40103c: add rsp, 0x40
401040: pop rbp
401044: ret
""",
    # entered after the add that clears rdx's canary mark: the skip clears it
    "mid_entry": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x20
40100c: mov rdx, fs:0x28
401010: mov rcx, 0x0
401014: jmp 0x40101c
401018: add rdx, 0x1
40101c: add rcx, 0x1
401020: cmp rcx, 0x10
401024: jne 0x401018
401028: mov [rbp-0x8], rdx
40102c: add rsp, 0x20
401030: pop rbp
401034: ret
""",
    # a jump lands on the back edge with flags of another cmp: the back
    # edge is taken once, though the body's own cmp never takes it
    "jump_to_back_edge": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: mov rcx, 0x5
40100c: cmp rcx, 0x0
401010: jmp 0x40101c
401014: mov byte [rbp-0x8], 0x1
401018: cmp rcx, 0x5
40101c: jne 0x401014
401020: pop rbp
401024: ret
""",
    # the exit of the loop at 0x401018 (0x401034, by its never-taken je)
    # lies in the counted loop's body, which its fork enters after it
    "exit_in_body": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x40
40100c: lea rax, [rbp-0x40]
401010: mov rcx, 0x0
401014: mov rdx, 0x0
401018: add rdx, 0x1
40101c: cmp rdx, 0x7f
401020: je 0x401034
401024: cmp rdx, 0x2
401028: jne 0x401018
40102c: jmp 0x401038
401030: mov byte [rax], 0x41
401034: add rax, 0x1
401038: add rcx, 0x1
40103c: cmp rcx, 0x8
401040: jne 0x401030
401044: add rsp, 0x40
401048: pop rbp
40104c: ret
""",
    # the loop at 0x401038 has its entry inside the counted loop's body:
    # each counted iteration is one of its iterations
    "entry_in_body": """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x80
40100c: lea rax, [rbp-0x80]
401010: mov rcx, 0x0
401014: mov rdx, 0x0
401018: jmp 0x401034
40101c: add rdx, 0x1
401020: cmp rdx, 0x7f
401024: je 0x401050
401028: mov rcx, 0x0
40102c: cmp rdx, 0x3
401030: jne 0x401038
401034: mov byte [rax], 0x41
401038: add rax, 0x1
40103c: add rcx, 0x1
401040: cmp rcx, 0x6
401044: jne 0x401034
401048: jmp 0x40101c
40104c: nop
401050: add rsp, 0x80
401054: pop rbp
401058: ret
""",
}

# a budget that ends inside strcpy_rip_vuln's fill loop, one that ends a
# loop fork below the trip counts, and the mutants' configuration
CONFIGS = [Config(), Config(step_budget=300), Config(step_budget=1001),
           Config(max_loop_iters=2), Config(max_loop_iters=8), MUTANT_CONFIG]


def _state(m: Machine) -> tuple:
    return tuple(getattr(m, f) for f in STATE)


def _observe(text: str, cfg: Config, ends: Counter) -> list:
    """Every whole run from each function entry, and every effect the oracle
    gives from each root (with its run's state after each), in one order."""
    image = parse_disassembly(text)
    seen = []
    # a run_to that stops at about one pc in five, stepping on from each,
    # within a step budget that keeps runs of a loop that never ends short
    stops = {pc for pc in image.instructions if pc % 20 == 4}
    short = cfg._replace(step_budget=min(cfg.step_budget, 5000))
    for entry in image.functions.values():
        m = Machine(image, cfg)
        m.start(entry)
        try:
            m.run()
        except Halt as h:
            seen.append((h.status, h.cause, _state(m)))
            ends[h.status, h.cause] += 1
        m = Machine(image, short)
        m.start(entry)
        try:
            while True:
                m.run_to(stops)
                seen.append((m.pc, m.steps))
                m.step()
        except Halt as h:
            seen.append((h.status, h.cause, _state(m)))
    oracle = EffectsOracle(image, build_bcfg(image), cfg)
    loops = [oracle.loop_at(lp.entry) for lp in oracle.loops if oracle.loop_at(lp.entry)]
    calls = [a for a, ins in image.instructions.items()
             if ins.mnemonic in ("call", "safecall") and oracle.spec(a) is not None]
    for root in image.functions.values():
        oracle.set_root(root)
        for lp in loops:
            effect = oracle.loop_effect(lp)
            ends.update(n.partition(": ")[2] for n in effect.notes)
            seen.append((effect, oracle._run and _state(oracle._run)))
        for site in calls:
            seen.append((oracle.call_effect(site), oracle._run and _state(oracle._run)))
    return seen


def _listings() -> list[tuple[str, str]]:
    sources = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    listings = [(p.stem, p.read_text()) for p in sources]
    listings += [(f"chain_{n}", _chain(n)) for n in (4, 9)]
    listings += list(EDGES.items())
    rng = random.Random(SEED)
    listings += [(f"mutant_{k}", _mutate(rng, rng.choice(sources).read_text()))
                 for k in range(MUTANTS)]
    return listings


def _difference(text: str, cfg: Config, ends: Counter) -> str | None:
    """The first observation that differs between runs with the skip and
    runs with every back edge compiled as a plain branch."""
    got = _observe(text, cfg, ends)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interp, "compile_counted_loop", lambda *args: None)
        want = _observe(text, cfg, Counter())
    if got == want:
        return None
    k = next(k for k, (a, b) in enumerate(zip(got, want)) if a != b)
    return f"{cfg}: observation {k}: {got[k]} vs {want[k]}"


def test_skip_equals_stepping():
    ends: Counter = Counter()
    mismatches = []
    for name, text in _listings():
        for cfg in CONFIGS[-1:] if name.startswith("mutant") else CONFIGS[:-1]:
            try:
                diff = _difference(text, cfg, ends)
            except MalformedLine:
                break
            if diff:
                mismatches.append(f"{name} {diff}")
    # every step budget that ends inside the first iterations of a loop
    for name, text in EDGES.items():
        for budget in range(1, 120):
            diff = _difference(text, Config(step_budget=budget), ends)
            if diff:
                mismatches.append(f"{name} {diff}")
    assert not mismatches, mismatches[:2]
    # each limit of a skip was met
    assert ends[CRASH, interp.CAUSE_OOS] and ends[STEP_BUDGET, None], ends
    assert ends["iteration budget (2) exhausted; effect may be partial"], ends
    assert ends["step budget exhausted"], ends


def test_a_fill_loop_is_one_dispatch(monkeypatch):
    """The 255-trip fill loop of strcpy_rip_vuln retires its iterations in
    one back edge: a whole run dispatches a few dozen instructions and
    retires over a thousand."""
    dispatches = [0]
    step = Machine.step

    def counted(self):
        dispatches[0] += 1
        return step(self)

    monkeypatch.setattr(Machine, "step", counted)
    outcome = run(parse_disassembly((CORPUS_DIR / "strcpy_rip_vuln.s").read_text()))
    assert outcome.status == CRASH and outcome.steps > 1000, outcome
    assert dispatches[0] < 50, dispatches
