"""The state space keeps only the frame bytes a property can read, and that
changes no verdict: each listing is analysed twice, once as the pipeline
builds its spaces and once with every byte kept, and both analyses must
agree on status, the violated and inconclusive sets, every counterexample's
length, the sinks, the patches and the validation outcomes."""

from __future__ import annotations

import random

import pytest
from conftest import CORPUS_DIR, FIXTURE_DIR
from test_fuzz import MUTANT_CONFIG, MUTANTS, SEED, _mutate
from test_ltl_codegen import _chain, _fanout

from stackcheck import ltl
from stackcheck.checker import INCONCLUSIVE, VIOLATED
from stackcheck.cli import analyze_image, build_root_spaces
from stackcheck.effects import EffectsOracle
from stackcheck.frontend import DuplicateFunction, MalformedLine, build_bcfg, parse_disassembly
from stackcheck.memstace import Config, memstace_to_json

FLAGS = {"patch": True, "validate": True}


def _outcome(report) -> dict:
    return {
        "status": report.status,
        "error": report.error,
        "violated": {p.name: len(p.trace.steps) for p in report.properties
                     if p.status == VIOLATED},
        "inconclusive": {p.name for p in report.properties if p.status == INCONCLUSIVE},
        "sinks": report.sinks,
        "patches": report.patches,
        "validations": report.validations,
    }


def _analyses(text: str, cfg: Config, **flags):
    """The reports of `text` with the projection and with every byte kept,
    or None for a listing that does not parse."""
    try:
        image = parse_disassembly(text)
    except (MalformedLine, DuplicateFunction):
        return None
    projected = analyze_image(image, "listing", cfg, **flags)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ltl, "frame_horizon", lambda monitors: None)
        whole = analyze_image(parse_disassembly(text), "listing", cfg, **flags)
    return projected, whole


def assert_projection_exact(texts, cfg: Config = Config(), flags: dict = FLAGS) -> int:
    """Every listing of `texts` gets the same outcome with the projection as
    with every byte kept, under the analysis flags `flags`; the number of
    listings that parse."""
    analysed = 0
    for k, text in enumerate(texts):
        reports = _analyses(text, cfg, **flags)
        if reports is None:
            continue
        projected, whole = map(_outcome, reports)
        assert projected == whole, f"listing {k}:\n{text}"
        analysed += 1
    return analysed


def _bundled() -> list[str]:
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    return [p.read_text() for p in paths]


def _generated() -> list[str]:
    return [_chain(["ok", "over", "gets", "ok"]), _chain(["ok"] * 5), _chain(["gets", "over"]),
            _fanout(4, 6, planted=False), _fanout(4, 6, planted=True),
            _fanout(4, 8, planted=True), _fanout(3, 3, planted=True, whole=True)]


def _mutants() -> list[str]:
    rng = random.Random(SEED)
    sources = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    return [_mutate(rng, rng.choice(sources).read_text()) for _ in range(MUTANTS)]


def test_bundled_and_generated_listings_keep_their_outcomes():
    assert assert_projection_exact(_bundled() + _generated()) == 32 + len(_generated())


def test_fuzz_mutants_keep_their_outcomes():
    assert assert_projection_exact(_mutants(), MUTANT_CONFIG) > MUTANTS // 2


def _root_states(text: str, cfg: Config = Config()) -> dict[str, int]:
    image = parse_disassembly(text)
    oracle = EffectsOracle(image, build_bcfg(image), cfg)
    return {fn: len(space.states) for fn, space in build_root_spaces(image, oracle, cfg).items()}


def test_fanout_grows_linearly():
    """The arms of a diamond write locals no property reads, so they no
    longer double the states: fanout 4x8 had 2,070 states."""
    counts = [_root_states(_fanout(4, d, planted=False))["main"] for d in (4, 6, 8)]
    assert counts[2] <= 100
    assert counts[2] - counts[1] == counts[1] - counts[0]
    # a frame that registers a buffer keeps every byte, so its diamonds do double
    assert _root_states(_fanout(4, 6, planted=False, whole=True))["main"] > 512


# --- property files ----------------------------------------------------------

DEEP = """
property "Deep Local" {
  ltl: G (forall_stack f . byte(30, stack(f)) != Modified)
}
"""

# a buffer's start read on every frame, not only on the buffer's own
UNBOUNDED = """
property "Foreign Buffer" {
  ltl: G (!(exists_stack f . exists_buffer b in f .
             exists_stack g . byte(start(b) + 1, stack(g)) = Modified))
}
"""


def test_horizon_of_the_bundled_properties():
    """Indices 0-15 of every frame; the canary bytes and the bytes next to
    a buffer are read only on frames kept whole."""
    assert ltl.frame_horizon(ltl.load_bundled_monitors()) == 16


@pytest.mark.parametrize("text, horizon", [
    ("G (forall_stack f . all i in 4..41 : byte(i, stack(f)) = Free)", 42),
    ("G (forall_stack f . has_canary(f) -> byte(90, stack(f)) = Free)", 0),
    ("G (forall_stack f . exists_stack g . has_canary(g) -> byte(90, stack(f)) = Free)", 91),
    ("G (forall_stack f . forall_buffer b in f . byte(end(b) - 3, stack(f)) = Free)", 0),
    ("G (forall_stack f . forall_buffer b in f . exists_stack f . "
     "byte(end(b), stack(f)) = Free)", None),
    ("G (previous_transition != call_gets)", 0),
])
def test_horizon_of_one_body(text, horizon):
    """A guard or a buffer counts only on its own frame binding, not on
    another frame, nor on a frame variable that shadows it."""
    assert ltl.frame_horizon([ltl.compile_monitor(ltl.parse_property(text))]) == horizon


@pytest.mark.parametrize("props, horizon", [(DEEP, 31), (UNBOUNDED, None)])
def test_property_files_keep_their_outcomes(tmp_path, props, horizon):
    """A --props file that reads index 30 raises the horizon; one whose
    index has no static bound turns the projection off."""
    path = tmp_path / "extra.props"
    path.write_text(props)
    cfg = Config(properties_path=str(path))
    assert ltl.frame_horizon(ltl.load_monitors(cfg.properties_path)) == horizon
    assert assert_projection_exact(_bundled() + _generated(), cfg) == 32 + len(_generated())
    if horizon is None:
        assert _root_states(_fanout(4, 6, planted=False), cfg)["main"] > 512


# --- frames the projection cuts but a canary or a buffer reaches --------------

_JUMPS_INTO = """\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x40
40100c: jmp 0x401100
helper:
401100: {line}
401104: mov [rbp-0x28], rax
401108: add rsp, 0x40
40110c: pop rbp
401110: ret
"""


def _spaces_json(text: str, horizon: bool) -> list[dict]:
    """The JSON of every root's space, projected or with every byte kept."""
    image = parse_disassembly(text)
    oracle = EffectsOracle(image, build_bcfg(image), Config())
    with pytest.MonkeyPatch.context() as mp:
        if not horizon:
            mp.setattr(ltl, "frame_horizon", lambda monitors: None)
        spaces = build_root_spaces(image, oracle, Config())
    return [memstace_to_json(space) for space in spaces.values()]


def _assert_built_whole(text: str) -> None:
    assert _spaces_json(text, horizon=True) == _spaces_json(text, horizon=False)
    reports = _analyses(text, Config(), **FLAGS)
    assert reports[0].to_json() | {"timings": {}} == reports[1].to_json() | {"timings": {}}


@pytest.mark.parametrize("line", ["mov rax, fs:0x28", "lea rax, [rbp-0x30]"])
def test_a_cut_frame_that_meets_a_canary_or_a_buffer_is_built_whole(line):
    """main keeps 16 bytes, but jumps into code that stores the canary, or
    registers a buffer, in main's frame: the root is built again with every
    byte, so its space and report are those of an analysis that keeps them."""
    _assert_built_whole(_JUMPS_INTO.format(line=line))


def test_a_canary_store_that_runs_into_a_cut_caller_is_built_whole():
    """A canary store past the top frame reaches the caller's cut bytes."""
    _assert_built_whole("""\
main:
401000: push rbp
401004: mov rbp, rsp
401008: sub rsp, 0x40
40100c: call 0x401100 <leaf>
401010: add rsp, 0x40
401014: pop rbp
401018: ret
leaf:
401100: push rbp
401104: mov rbp, rsp
401108: mov rax, fs:0x28
40110c: mov [rbp+0x18], rax
401110: pop rbp
401114: ret
""")
