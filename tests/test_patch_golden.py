"""Emitted patched listings stay identical across commits.

Each digest is the sha256 of one listing's `report.patched_image.emit()`
from `analyze(..., patch_all=True)`; `None` pins a listing that gets no
patch. Report digests see a trampoline's label and return address but
not its base address, so these are what pin where trampolines are
placed. Regenerate a digest only when a patched listing is meant to
change, and say why.
"""

from __future__ import annotations

import hashlib

from stackcheck.cli import analyze

from conftest import CORPUS_DIR, FIXTURE_DIR

GOLDEN = {
    "arm_defined_reg":
        "8c80f72987f0f3ecc8bf41077d1c79e4cec5c56847b39685a593321fabd80592",
    "diamond":
        None,
    "direct_write":
        None,
    "gets_rip_ok":
        None,
    "gets_rip_vuln":
        "e42ae28902bac1ce940624499fa03ed44ba06c159f5ab73ca317e00fe6795c3f",
    "gets_wide_ok":
        None,
    "gets_wide_vuln":
        "9c56a077193896a7dd9fd9ca9958626c0042db397f76deff6463ccafb84bed34",
    "loop_offbyone_ok":
        None,
    "loop_offbyone_vuln":
        None,
    "loop_overflow_one_ok":
        None,
    "loop_overflow_one_vuln":
        None,
    "loop_underflow_ok":
        None,
    "loop_underflow_vuln":
        None,
    "nested_loops":
        None,
    "no_prologue":
        None,
    "scanf_vuln":
        None,
    "sprintf_rbp_ok":
        "8a30c7034fc5e149fb8b31a5aa696e61e94c4502c19181e26e5b4164a9172f0b",
    "sprintf_rbp_vuln":
        "46c3d0c94e01880a27325aa981827bfb4104146b74b2d915f9ed9a1db10e5f9c",
    "sprintf_rip_ok":
        "bfaa083375239852e39d33ec123bda4bb0f45d85b98b197d9ee07f0c04a661fc",
    "sprintf_rip_vuln":
        "09cc4df6545d74a8e4fbaa36b0adbe5d08eca685b4e28a968b5300c54e733a6e",
    "sprintf_trunc":
        "675eef4e5ff43d1b9bbc1e0b9c571aa0936b297441571697df929bbad04187dd",
    "strcat_canary_ok":
        "576fb2ce57bd5b89462d2e2b42154f9112712ab26f54d6516c8871cad9102ef7",
    "strcat_canary_vuln":
        "d06238cceef1102aa56c3947ec331dafc818b577ff7e4b6ba58a9c08b8a800c9",
    "strcat_rbp_ok":
        "1825c14af6547c4d604baa691a071cdb7918b3ec411029b69b7515934e2f7fb0",
    "strcat_rbp_vuln":
        "5cf3214dca1faa19c60bfd169b3b1ea6fa3faa6cbcbfb6c94a8820daffe9e923",
    "strcpy_canary_ok":
        "1d31fb87285bd1ea5d67abd8913d69731b13ba5934bc3767409e4875f625e876",
    "strcpy_canary_vuln":
        "6941b793ac9ae489c19866864ff672d0423884060e285406478bbd908fd2c5b4",
    "strcpy_rip_ok":
        "fd5ea692ccd26294fe340b6b89cfcd41685de0cc51401732eb1daaa67f02e15e",
    "strcpy_rip_vuln":
        "f44bab67c28ae8dd055b45da5b112cabd32a35fc2e1c33412e6396706b381aec",
    "strcpy_runtime_ok":
        "3aa33f3145db78d0f0c091836e3f73a8bc8fd68a0eb5fe0b1e9f0cffdc8d4160",
    "strcpy_runtime_vuln":
        "2aae06d4efbc979ca0cb27b0c119d2f6f383215de238edbe76d4db4f1f6435ab",
    "two_sinks":
        "9b4041bbc633c180ac124e8a0eef5181484a117eb1daf5dd92502731fb41c9b4",
}


def test_patched_listings_match_golden_digests():
    paths = sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s"))
    reports = analyze([str(p) for p in paths], patch_all=True)
    digests = {r.binary: None if r.patched_image is None
               else hashlib.sha256(r.patched_image.emit().encode()).hexdigest()
               for r in reports}
    assert sorted(digests) == sorted(GOLDEN)
    changed = sorted(name for name, d in digests.items() if d != GOLDEN[name])
    assert not changed, f"patched listings changed for: {', '.join(changed)}"
