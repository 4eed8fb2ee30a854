"""Loop detection's closed form: a CFG that is not `cyclic` (no jump to its
own address or below) has no cycle, so detect_loops returns [] without a
search, and the blocks are built only when something reads them. The
closed form is checked against the full search on the corpus, the
fixtures, the fuzz mutants and hand listings that stress it."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from conftest import CORPUS_DIR, FIXTURE_DIR, corpus_path
from test_fuzz import write_mutants
from test_patch_golden import GOLDEN

from stackcheck import cli
from stackcheck.effects import _search_loops, detect_loops
from stackcheck.frontend import DuplicateFunction, MalformedLine, build_bcfg, parse_disassembly

# a jump to its own address
SELF_JUMP = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: jmp 0x401008
"""

# a forward jump into another function, whose body jumps back into the first
ACROSS_FUNCTIONS = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: cmp rdi, 0x0
40100c: jne 0x401100
401010: pop rbp
401014: ret
helper:
401100: add rdi, 0x1
401104: jmp 0x401008
"""

# a backward jump to an address outside the image
BACK_OUT_OF_IMAGE = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: cmp rdi, 0x0
40100c: jne 0x400000
401010: pop rbp
401014: ret
"""

HAND_LISTINGS = {"self-jump": SELF_JUMP, "across-functions": ACROSS_FUNCTIONS,
                 "back-out-of-image": BACK_OUT_OF_IMAGE}


def assert_loops_exact(texts) -> int:
    """For each listing that parses: detect_loops equals the full search,
    and when the CFG is not cyclic every block edge raises the address, so
    the CFG has no cycle. Returns how many listings were checked."""
    checked = 0
    for text in texts:
        try:
            image = parse_disassembly(text)
        except (MalformedLine, DuplicateFunction):
            continue
        bcfg = build_bcfg(image)
        assert detect_loops(bcfg, image) == _search_loops(bcfg, image), text
        if not bcfg.cyclic:
            assert all(t > blk.start for blk in bcfg.blocks.values()
                       for t in blk.successors), text
        checked += 1
    return checked


def test_closed_form_agrees_with_the_search_on_every_bundled_listing(tmp_path):
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    texts = [p.read_text(encoding="utf-8") for p in paths]
    texts += [Path(p).read_text(encoding="utf-8") for p in write_mutants(tmp_path)]
    assert assert_loops_exact(texts) > len(paths)


@pytest.mark.parametrize("name", sorted(HAND_LISTINGS))
def test_closed_form_agrees_with_the_search_on_hand_listings(name):
    text = HAND_LISTINGS[name]
    assert assert_loops_exact([text]) == 1
    image = parse_disassembly(text)
    bcfg = build_bcfg(image)
    assert bcfg.cyclic
    loops = detect_loops(bcfg, image)
    assert bool(loops) == (name != "back-out-of-image")
    if name == "back-out-of-image":
        assert bcfg.warnings == ["dangling branch at 0x40100c to 0x400000, "
                                 "routed to external sink"]


def _recorded_cfgs(monkeypatch) -> list:
    """Make cli.analyze keep each CFG it builds in the returned list."""
    built = []

    def recording(image):
        built.append(build_bcfg(image))
        return built[-1]

    monkeypatch.setattr(cli, "build_bcfg", recording)
    return built


def test_a_loop_free_listing_without_flags_builds_no_blocks(monkeypatch):
    built = _recorded_cfgs(monkeypatch)
    [report] = cli.analyze([str(corpus_path("gets_rip_vuln"))])
    assert report.vulnerable
    [bcfg] = built
    assert not bcfg.cyclic and "blocks" not in vars(bcfg)


@pytest.mark.parametrize("name", ["gets_rip_vuln", "sprintf_rbp_vuln"])
def test_patching_a_loop_free_listing_builds_blocks_and_plans_as_before(monkeypatch, name):
    """The patcher's dest_in_frame reads the blocks; the plan is static and
    the patched listing is the one test_patch_golden pins."""
    built = _recorded_cfgs(monkeypatch)
    [report] = cli.analyze([str(corpus_path(name))], patch=True, validate=True)
    [bcfg] = built
    assert not bcfg.cyclic and "blocks" in vars(bcfg)
    assert [p["mode"] for p in report.patches] == ["static"]
    assert all(v["success"] for v in report.validations)
    digest = hashlib.sha256(report.patched_image.emit().encode()).hexdigest()
    assert digest == GOLDEN[name]
