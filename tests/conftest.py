from __future__ import annotations

import json
from pathlib import Path

import pytest

from stackcheck.effects import EffectsOracle
from stackcheck.frontend import build_bcfg, parse_disassembly
from stackcheck.memstace import Config, build_memstace

CORPUS_DIR = Path(__file__).resolve().parents[1] / "src" / "stackcheck" / "corpus"
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def corpus_path(name: str) -> Path:
    return CORPUS_DIR / f"{name}.s"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.s"


def load_image(path: Path):
    return parse_disassembly(path.read_text(encoding="utf-8"))


def pipeline(path: Path, cfg: Config | None = None):
    """(image, bcfg, oracle) for a listing on disk."""
    cfg = cfg or Config()
    image = load_image(path)
    bcfg = build_bcfg(image)
    oracle = EffectsOracle(image, bcfg, cfg)
    return image, bcfg, oracle


def space_for(path: Path, root: str, cfg: Config | None = None):
    cfg = cfg or Config()
    image, bcfg, oracle = pipeline(path, cfg)
    entry = image.functions[root]
    oracle.set_root(entry)
    return build_memstace(image, oracle, cfg, entry), oracle


@pytest.fixture(scope="session")
def ground_truth() -> dict:
    return json.loads((CORPUS_DIR / "ground_truth.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def corpus_paths(ground_truth) -> list[Path]:
    return [corpus_path(name) for name in sorted(ground_truth)]
