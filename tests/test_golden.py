"""Reports stay byte-identical across commits.

Each digest is the sha256 of one listing's canonical report (the JSON
report minus `timings`, serialized with sorted keys) from
`analyze(..., patch_all=True, validate=True)`. A change that alters any
verdict, trace, note, patch or validation shows up here by listing name.
Regenerate a digest only when a report is meant to change, and say why.
"""

from __future__ import annotations

import hashlib
import json

from stackcheck.cli import analyze

from conftest import CORPUS_DIR, FIXTURE_DIR

GOLDEN = {
    "arm_defined_reg":
        "b78be31d94cf3f8af0fb93e75ca262f6dac4d8bef42784e426861bb300c1229e",
    "diamond":
        "e30a7aefa4c2d542c250ca8159c81add5d3b4925f0e759b32cff61a0d1c41720",
    "direct_write":
        "660ca7051d7473abc51e5261aa1d56fe7395e0443d174f4e5ab755b95124bd7f",
    "gets_rip_ok":
        "0416c0c0a511bbdbdbdf94269cd28eae6f6b036c70304a45675c7a0121617603",
    "gets_rip_vuln":
        "0a178ad3a6bb36758ee05004e1a28d2f64b02314df43a1c00cedc6110f203ae7",
    "gets_wide_ok":
        "533280520d29d9a98ac93a3da771d63dc7aea965fb296edb839a84c3761c92ab",
    "gets_wide_vuln":
        "463403f4d16ce6f6eb162eb1c9fd8586125ae718a2865a22111d8e07e821f06a",
    "loop_offbyone_ok":
        "65bddbf4c62f376b3888aa99441e9c09b946d0fd5ca1c5a139a67a1bbf24eebe",
    "loop_offbyone_vuln":
        "4c8bfb67d80693420bc670a4ee5c7fd4b5f41e1106430f2e7f5b44159e2253de",
    "loop_overflow_one_ok":
        "f58f03ce2f719a285d79c38b0d65fd7d9bfd8e1a0db76b5efe29effe90b72ef0",
    "loop_overflow_one_vuln":
        "02eef2986550b4358908bbf500215d456cf523e80bcb52c989ea08ef573c98c5",
    "loop_underflow_ok":
        "7e5b96dfa2c7b6dcc319eca929743af274b8fd86819b11cbacb4e607186ccaa4",
    "loop_underflow_vuln":
        "a70a3a96d24370dada06393b8267fe7f922ba7df53c8bd714e25898d96b76602",
    "nested_loops":
        "7d75dfae1b6969cadd01849f70ac6d75362114c064fbebfcc4f4dff935663af8",
    "no_prologue":
        "d4044690302f021c49bf216ffd6027f66c5e489a2e2ac6374209eb62791ce6b0",
    "scanf_vuln":
        "20eca46f879fb872e57b8998570b582a853101fa686d9d0396c2b5e6d2785795",
    "sprintf_rbp_ok":
        "5afedabd135bf1bd150daf1ab1787d864ad8a2a4c8b024755f2b70d71800c61f",
    "sprintf_rbp_vuln":
        "caab829774e31326d9e7cd1cd1a1aa43debfbb92794b2302e650de2391edb21a",
    "sprintf_rip_ok":
        "9e458a140c4f5958bbfa90d712f5459daa2ccf5927f25a4bc68ce813c36c45f4",
    "sprintf_rip_vuln":
        "90c278de4ade100c8aef23cf71c13e507b7c8a1d99ea944c7d04427daaaa6d6f",
    "sprintf_trunc":
        "98c8173330ce4280f1551a6cbbcebfdeee59601d2604fe20fccccf8041376a42",
    "strcat_canary_ok":
        "2f3643c9e90d2efe441e18358290e5bc93702350fd3c265bf5ff83c915d19c7e",
    "strcat_canary_vuln":
        "d1be9c6f605f315f6deb1d77f6ae00903362d4013cd27ac7c2fecd0040eff91b",
    "strcat_rbp_ok":
        "fd2f56a0b0c20c10395f18e2ed66166ca42a7fa607b9c81f78a9a48d88cd1abd",
    "strcat_rbp_vuln":
        "591e122753b4f07b1c30807d5bde871c39d2c4d4dff6ee4ffbfd62692e0a146d",
    "strcpy_canary_ok":
        "280567707b7bb11e27554fe23b7c1371b9e9d9320925fd4c1ab1adf00b0f04d7",
    "strcpy_canary_vuln":
        "e0e03eded6f95549641aca05a52e653029191e46c6d5bd9fb8fb2bc7503c4abe",
    "strcpy_rip_ok":
        "5503e7eea3dc1b9e4cad480db4c738c73bb65ef2cfc1aa59b1b54578c2a389c1",
    "strcpy_rip_vuln":
        "41f037c4026e0ceda85f42c477fed55804aa96bb777fcaa22d78f264be677690",
    "strcpy_runtime_ok":
        "29aa169929e9308bd73250cdd5c54526cfdf3e3893e4c1fb9084e54280b6f184",
    "strcpy_runtime_vuln":
        "31556d6463fe1de4bf64327fa0b974498cf07f485cb27091777758ee7fe3a303",
    "two_sinks":
        "32114d29a6e02e5ccece8ad12cc14905da6ccee31b2521ab5ba3f28c01405afb",
}


def _digest(report) -> str:
    doc = report.to_json()
    doc.pop("timings")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_reports_match_golden_digests():
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    reports = analyze([str(p) for p in paths], patch_all=True, validate=True)
    digests = {r.binary: _digest(r) for r in reports}
    assert sorted(digests) == sorted(GOLDEN)
    changed = sorted(name for name, d in digests.items() if d != GOLDEN[name])
    assert not changed, f"reports changed for: {', '.join(changed)}"
