"""Layout-metamorphic oracle: rewriting a listing in ways that keep its
program (function order, function names, addresses, comments) keeps every
listing's status and violated properties (Chen, Cheung and Yiu, 1998)."""

from __future__ import annotations

import re

import pytest

from conftest import CORPUS_DIR, FIXTURE_DIR

from stackcheck.cli import analyze_image
from stackcheck.frontend import USER, Callee, parse_disassembly
from stackcheck.memstace import Config

LISTINGS = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
SHIFT = 0x10000

_HEADER = re.compile(r"^([A-Za-z_.$][\w.$@]*):$")
_LINE = re.compile(r"^([0-9a-f]+):(\s.*)$")
_TARGET = re.compile(r"\b0x([0-9a-f]+)\b")


def _blocks(text: str) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """The lines before the first header, and each function as (name, its
    header line and the lines up to the next header)."""
    prefix: list[str] = []
    functions: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        m = _HEADER.match(line.strip())
        if m:
            functions.append((m.group(1), [line]))
        elif functions:
            functions[-1][1].append(line)
        else:
            prefix.append(line)
    assert functions and not any(_LINE.match(line) for line in prefix)
    return prefix, functions


def reversed_functions(text: str) -> str:
    prefix, functions = _blocks(text)
    return "\n".join(prefix + [line for _, lines in reversed(functions) for line in lines]) + "\n"


def renamed(text: str, first: str | None = None) -> str:
    """Every function but main renamed, in calls too: the first to `first`
    when given, each other one to a fresh name."""
    _, functions = _blocks(text)
    others = [name for name, _ in functions if name != "main"]
    names = {name: f"renamed_{k}" for k, name in enumerate(others)}
    if first is not None and others:
        names[others[0]] = first
    for old, new in names.items():
        text = re.sub(rf"^{re.escape(old)}:$", f"{new}:", text, flags=re.M)
        text = text.replace(f"<{old}>", f"<{new}>")
    return text


def shifted(text: str) -> str:
    """Every instruction address, and every branch or call target that is
    one, moved up by SHIFT; targets outside the listing stay."""
    addrs = {int(m.group(1), 16) for m in map(_LINE.match, text.splitlines()) if m}

    def target(m: re.Match) -> str:
        value = int(m.group(1), 16)
        return f"0x{value + SHIFT:x}" if value in addrs else m.group(0)

    out = []
    for line in text.splitlines():
        m = _LINE.match(line)
        if m:
            rest = m.group(2)
            if rest.split()[0].startswith(("call", "j")):     # call, jmp or a jcc
                rest = _TARGET.sub(target, rest)
            line = f"{int(m.group(1), 16) + SHIFT:x}:{rest}"
        out.append(line)
    return "\n".join(out) + "\n"


def commented(text: str) -> str:
    return "\n".join(f"{line}  # trailing comment" if line.strip() else line
                     for line in text.splitlines()) + "\n"


VARIANTS = {
    "reversed": reversed_functions,
    "renamed": renamed,
    "renamed_puts": lambda text: renamed(text, "puts"),
    "renamed_gets": lambda text: renamed(text, "gets"),
    "renamed_strcpy": lambda text: renamed(text, "strcpy"),
    "shifted": shifted,
    "commented": commented,
}


def _verdict(text: str) -> tuple[str, list[str]]:
    report = analyze_image(parse_disassembly(text), "variant", Config())
    return report.status, sorted(p.name for p in report.properties if p.status == "violated")


@pytest.mark.parametrize("path", LISTINGS, ids=[p.stem for p in LISTINGS])
def test_layout_variants_keep_the_verdict(path):
    text = path.read_text(encoding="utf-8")
    want = _verdict(text)
    for name, variant in VARIANTS.items():
        assert _verdict(variant(text)) == want, name


def test_the_variants_change_what_they_claim():
    text = (CORPUS_DIR / "strcpy_rip_vuln.s").read_text(encoding="utf-8")
    assert [f for f in parse_disassembly(reversed_functions(text)).function_headers] == \
        ["main", "copy"]
    for name in ("puts", "gets", "strcpy"):
        image = parse_disassembly(renamed(text, name))
        assert set(image.function_headers) == {"main", name}
        assert image.callees[0x401164] == Callee(USER, name, 0x401100)     # main's call
    image = parse_disassembly(shifted(text))
    assert image.functions == {"copy": 0x411100, "main": 0x411130}
    assert image.instructions[0x411164].target() == 0x411100  # call copy
    assert image.instructions[0x411118].target() == 0x401030  # strcpy's stub stays
    assert image.instructions[0x411158].target() == 0x411148  # jne
    assert commented(text).count("# trailing comment") == len(text.splitlines())
