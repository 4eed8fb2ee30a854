"""Deterministic listing generators for the `chain` and `fanout` workloads.

Each generator returns the listing text and its known answer, derived from
how the listing is built, never from running stackcheck:

    {"vulnerable": bool, "violated": [property names, sorted],
     "status": "vulnerable" | "clean"}

The same (seed, size, index) always gives byte-identical text. Sizes whose
largest analysis root would need more states than stackcheck's default
state budget are rejected, because a truncated root turns the verdict
inconclusive and the known answer would no longer apply.
"""

from __future__ import annotations

import random

# stackcheck's default Config.max_states; the worker checks that they agree.
MAX_STATES = 4096

STRCPY = "call 0x401030 <strcpy@plt>"
GETS = "call 0x401060 <gets@plt>"
PUTS = "call 0x4010a0 <puts@plt>"

RIP = "RIP Integrity"
RBP = "RBP Integrity"
BY_ONE = "No Buffer Overflow by one"
NO_GETS = "No gets() Usage"


class _Listing:
    """Accumulates functions at consecutive 4-byte addresses."""

    def __init__(self, comment: str, base: int = 0x401100):
        self.lines = [f"# {comment}"]
        self.pc = base

    def function(self, name: str, body: list[str]) -> int:
        """Append `name:` and its body. A body line may hold `{@k}`, which is
        replaced by the address of body line k."""
        start = self.pc
        addrs = [start + 4 * k for k in range(len(body))]
        self.lines.append(f"{name}:")
        for addr, text in zip(addrs, body):
            text = text.format(**{f"@{k}": f"{a:#x}" for k, a in enumerate(addrs)})
            self.lines.append(f"{addr:x}: {text}")
        self.pc = start + 4 * len(body) + 0x10
        return start

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


# --- chain-N -------------------------------------------------------------------
#
# main calls N leaves in turn. Every leaf fills a 48-byte source buffer in a
# loop, strcpy's it into a 16-byte buffer whose upper neighbour is an 8-byte
# variable, and puts the result. Frame of a leaf, offsets from rbp:
#
#   -0x60 .. -0x31  src    (fill loop writes `fill` bytes plus a NUL)
#   -0x30 .. -0x21  line   (gets target, `gets` leaves only)
#   -0x20 .. -0x11  dest   (strcpy target)
#   -0x10 .. -0x09  guard  (qword set at entry)
#
# Leaf kinds:
#   ok     fill 4..15: strcpy writes at most 16 bytes; nothing is violated.
#   over   fill 16..27: strcpy writes 17..28 bytes, running into `guard` and
#          the free bytes above it but never reaching the saved base
#          register, so the only violation is the one-byte overflow of
#          `dest`. The concrete run does not crash, so a listing's emulation
#          work does not depend on where its overflowing leaves sit.
#   gets   an `ok` leaf that then reads a line into `line`. stackcheck's
#          input-length search finds the line that reaches the return
#          address: gets usage, RIP, RBP and the one-byte overflow of `line`
#          into `dest` are violated.
#
# Fill lengths follow a fixed pattern (an `over` leaf adds 12), and the seed
# only places the `over` and `gets` leaves, so the interpreter work of a
# listing hardly depends on the seed.

CHAIN_PROFILES = ("clean", "over", "gets")


def _chain_leaf(kind: str, fill: int) -> list[str]:
    body = [
        "push rbp",
        "mov rbp, rsp",
        "sub rsp, 0x60",
        "mov qword [rbp-0x10], 0x7",
        "lea rax, [rbp-0x60]",
        "mov rcx, 0x0",
        "mov byte [rax], 0x78",           # line 6: loop entry
        "add rax, 0x1",
        "add rcx, 0x1",
        f"cmp rcx, {fill:#x}",
        "jne {@6}",
        "mov byte [rax], 0x0",
        "lea rsi, [rbp-0x60]",
        "lea rdi, [rbp-0x20]",
        STRCPY,
        "lea rdi, [rbp-0x20]",
        PUTS,
    ]
    if kind == "gets":
        body += ["lea rdi, [rbp-0x30]", GETS]
    return body + ["add rsp, 0x60", "pop rbp", "ret"]


def chain_states_bound(n: int) -> int:
    """Upper bound on the states of the largest root (main): at most 16
    per leaf walked below main's frame, plus main's own. At n=40 main has
    486 states."""
    return 16 * n + 16


def chain(n: int, seed: int, index: int) -> tuple[str, dict]:
    """Listing `index` of size `n` for `seed`. Listings cycle through three
    profiles by index: `clean`, every leaf `ok`; `over`, one leaf in eight
    (at least one) `over`; `gets`, that plus one `gets` leaf. The seed
    picks where the `over` and `gets` leaves sit."""
    if n < 2:
        raise ValueError("chain needs at least two leaves")
    if chain_states_bound(n) >= MAX_STATES:
        raise ValueError(f"chain n={n} may exceed {MAX_STATES} states per root")
    rng = random.Random(f"chain:{seed}:{n}:{index}")
    profile = CHAIN_PROFILES[index % len(CHAIN_PROFILES)]
    kinds = ["ok"] * n
    if profile != "clean":
        placed = rng.sample(range(n), max(1, n // 8) + 1)
        for pos in placed[1:]:
            kinds[pos] = "over"
        if profile == "gets":
            kinds[placed[0]] = "gets"

    listing = _Listing(f"chain n={n} seed={seed} index={index}: {' '.join(kinds)}")
    entries = []
    for k, kind in enumerate(kinds):
        fill = 4 + (7 * k) % 12 + (12 if kind == "over" else 0)
        entries.append(listing.function(f"leaf_{k}", _chain_leaf(kind, fill)))
    calls = [f"call {addr:#x} <leaf_{k}>" for k, addr in enumerate(entries)]
    listing.function("main", ["endbr64", "push rbp", "mov rbp, rsp", *calls,
                              "pop rbp", "ret"])

    violated = {"clean": set(), "over": {BY_ONE}, "gets": {NO_GETS, RIP, RBP, BY_ONE}}
    return listing.text(), _answer(violated[profile])


# --- fanout F x D ---------------------------------------------------------------
#
# main calls F functions. Each holds D independent if/else diamonds whose two
# arms write different bytes of a 32-byte local area, so the states of one
# function double with every diamond. No library call and no loop appears, so
# no emulation runs. A `planted` listing replaces one arm of one diamond by a
# qword store onto the saved return address, which violates RIP Integrity
# only: the store is direct, so the by-one properties (which key on loop and
# libc transitions) do not apply.

def fanout_states_bound(f: int, d: int) -> int:
    """Upper bound on the states of the largest root (main): each function
    adds at most 2^(d+1) diamond states and a few prologue and epilogue
    states. At 4x8 main has 2,070 states; at 2x10 the bound is 4,128 and
    main is truncated."""
    return f * (2 ** (d + 1) + 8) + 16


def fanout(f: int, d: int, seed: int, index: int) -> tuple[str, dict]:
    """Listing `index` of shape f x d for `seed`; odd indices are planted."""
    if f < 1 or not 1 <= d <= 16:
        raise ValueError("fanout needs f >= 1 and 1 <= d <= 16")
    if fanout_states_bound(f, d) >= MAX_STATES:
        raise ValueError(f"fanout {f}x{d} may exceed {MAX_STATES} states per root")
    rng = random.Random(f"fanout:{seed}:{f}:{d}:{index}")
    planted = index % 2 == 1
    site = (rng.randrange(f), rng.randrange(d), rng.randrange(2)) if planted else None

    listing = _Listing(f"fanout {f}x{d} seed={seed} index={index}"
                       + (f": planted at fan_{site[0]} diamond {site[1]}" if planted else ""))
    entries = []
    for k in range(f):
        # a diamond is 5 lines: cmp, jne, arm A, jmp, arm B
        body = ["push rbp", "mov rbp, rsp", "sub rsp, 0x20"]
        for j in range(d):
            first = len(body)
            arms = [f"mov byte [rbp-{2 * j + 1:#x}], {rng.randrange(0x41, 0x5b):#x}",
                    f"mov byte [rbp-{2 * j + 2:#x}], {rng.randrange(0x41, 0x5b):#x}"]
            if site is not None and site[:2] == (k, j):
                arms[site[2]] = "mov qword [rbp+0x8], 0x41414141"
            body += [f"cmp rdi, {rng.randrange(0x100):#x}",
                     f"jne {{@{first + 4}}}",
                     arms[0],
                     f"jmp {{@{first + 5}}}",
                     arms[1]]
        body += ["add rsp, 0x20", "pop rbp", "ret"]
        entries.append(listing.function(f"fan_{k}", body))
    calls = []
    for k, addr in enumerate(entries):
        calls += [f"mov rdi, {rng.randrange(0x100):#x}", f"call {addr:#x} <fan_{k}>"]
    listing.function("main", ["endbr64", "push rbp", "mov rbp, rsp", *calls,
                              "pop rbp", "ret"])
    return listing.text(), _answer({RIP} if planted else set())


def _answer(violated: set[str]) -> dict:
    return {"vulnerable": bool(violated), "violated": sorted(violated),
            "status": "vulnerable" if violated else "clean"}
