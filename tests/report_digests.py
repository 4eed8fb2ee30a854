"""Digest of every report in the comparison set, for telling whether a change
to the pipeline changes any report.

    python tests/report_digests.py > digests.json

prints one JSON object, {"<flags>|<config>|<listing>": sha256[:16]}, of the
JSON reports with `timings` removed. The listings are the corpus and the
fixtures, chain N = 5/10/20 (seed 1, indices 0-2) and fanout 4x6 (seeds
0-5, indices 0-1) from perfbench/generate.py, which is only read, each
under the default Config, max_loop_iters=8 and step_budget=300, plus the
test_fuzz mutants under their MUTANT_CONFIG. Every listing runs with no
flags, with --patch --validate and with --patch-all --validate. Two
checkouts give equal output exactly when every report is byte-identical
apart from its timings; so do two runs under different PYTHONHASHSEEDs.
The file is no test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import generate  # noqa: E402
from conftest import CORPUS_DIR, FIXTURE_DIR  # noqa: E402
from test_fuzz import MUTANT_CONFIG, write_mutants  # noqa: E402

from stackcheck.cli import analyze  # noqa: E402
from stackcheck.memstace import Config  # noqa: E402

FLAGS = {"none": {}, "patch-validate": {"patch": True, "validate": True},
         "patch-all-validate": {"patch_all": True, "validate": True}}
CONFIGS = {"default": Config(), "loop-iters-8": Config(max_loop_iters=8),
           "step-budget-300": Config(step_budget=300)}


def _generated(out: Path) -> list[str]:
    """The chain and fanout listings, written under `out`; their paths."""
    texts = {f"chain{n}_s1_i{i}": generate.chain(n, 1, i)[0]
             for n in (5, 10, 20) for i in range(3)}
    texts |= {f"fanout4x6_s{s}_i{i}": generate.fanout(4, 6, s, i)[0]
              for s in range(6) for i in range(2)}
    paths = []
    for name, text in texts.items():
        path = out / f"{name}.s"
        path.write_text(text)
        paths.append(str(path))
    return paths


def digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        listings = [str(p) for p in sorted(CORPUS_DIR.glob("*.s"))
                    + sorted(FIXTURE_DIR.glob("*.s"))]
        listings += _generated(out)
        runs = [(name, cfg, listings) for name, cfg in CONFIGS.items()]
        runs.append(("mutant", MUTANT_CONFIG, write_mutants(out)))
        found = {}
        for flag_name, flags in FLAGS.items():
            for cfg_name, cfg, paths in runs:
                for report in analyze(paths, cfg, **flags):
                    doc = report.to_json()
                    doc.pop("timings")
                    text = json.dumps(doc, sort_keys=True).encode()
                    found[f"{flag_name}|{cfg_name}|{report.binary}"] = \
                        hashlib.sha256(text).hexdigest()[:16]
    return found


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    print()
