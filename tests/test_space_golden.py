"""State spaces stay identical across commits.

Each digest is the sha256 of one root's `memstace_to_json(space)` plus
`space.notes` (serialized together with sorted keys), built as
`analyze_image` builds it: one effects oracle per listing, and the roots
and spaces of `build_root_spaces`. Report digests see states only through traces; these also pin
state ids, edge order, labels and notes. One table per configuration:
the default, and one transition per written byte (`atomic_writes`).
Regenerate a digest only when a state space is meant to change, and say
why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from stackcheck.cli import build_root_spaces
from stackcheck.memstace import Config, memstace_to_json

from conftest import CORPUS_DIR, FIXTURE_DIR, pipeline

GOLDEN_DEFAULT = {
    "arm_defined_reg:main":
        "1cfc0b8d4f3915433345237d1db9c16e74d85d7c38671607ebadc8fc5ef7208c",
    "diamond:main":
        "a42ca9ace8bf23396e50d34b52184c7850959dab949b90a72728d9bcaab6af7a",
    "direct_write:main":
        "df9edb4965068b56a4ab6dd453bd5caa4223ae02ea93c9ffb819ca0e664a7589",
    "gets_rip_ok:main":
        "efd14e9145e27521fdb072f888ad8fae533a52dff25e7cca4814d7304262f5e7",
    "gets_rip_vuln:main":
        "08ec575fe31c911b4bbd1f337c2c5b863591cb6b1f1856f9604d0b79419937d5",
    "gets_wide_ok:main":
        "dd8d21601436839f0fe96a7b501fae81302b2670f729c4d482c3809b57784f8f",
    "gets_wide_vuln:main":
        "f11f398bdf5e0fa4d6831aa4d43188888d6f97c5744dffb556d928c3f1844ffd",
    "loop_offbyone_ok:main":
        "bf1ed8a5a2111b2491c47e049d4e3be542e924cade81081428bfc8380a08ee97",
    "loop_offbyone_vuln:main":
        "dfa0f3f30f32c9931e82b71f48ddc986242604fae55526cc6c2606e5dd26d64b",
    "loop_overflow_one_ok:main":
        "2c84c3f412e30a6afe8edc1da62e0deb9d18888096cd6c8301a950a7dc55ce8b",
    "loop_overflow_one_vuln:main":
        "714a6055bdd87457a2f191cf5776eb0dbcd15ed437b4b08564453cca542792fa",
    "loop_underflow_ok:main":
        "7c363a35d254b4a5e34743aceb858e2ecde96a54d78ac9eda5054aca77b5bdec",
    "loop_underflow_vuln:main":
        "fc067952e3780883c5e82294f3dfe5fa3af78bffaf46272917b09cd5bcd10ecc",
    "nested_loops:main":
        "79928c40bf0bac92645f559e70dfc568302968f29bd09e617f0d8b0e7c838f6f",
    "no_prologue:main":
        "ca4464b35c9b5dd653930d8e7ac89fadf1ae37b31eb087890ef5b6c3566de4f1",
    "scanf_vuln:main":
        "ae759f10ac3d334fa2f9c61b5ec6abf37a9d28195203e60ccd8f0b904895c54e",
    "sprintf_rbp_ok:main":
        "f05153af584c5bf2755b562adb321b807e7aec1875d2112066e670639c993586",
    "sprintf_rbp_vuln:main":
        "5ab87653bd2c0aa24b86bbb5ca8ce6907c103aded1bbbe9c1a28001dd98607f2",
    "sprintf_rip_ok:main":
        "7b1126445abd35c2bdb9be4b5dd3408f8623fde5e393b4f7a9fa758d3c0341f9",
    "sprintf_rip_vuln:main":
        "ffdb433a0f4847d5d969722d5168ca282e69a2451e40eb57f0f34ffbaab21293",
    "sprintf_trunc:main":
        "9583b58f4be225871d46fa9bef400097d54b758d9535ce79320613363c5ca625",
    "strcat_canary_ok:main":
        "b55ebd1154b7b274f75384321471747db44e6123f55e8c8bd15d9035430d2475",
    "strcat_canary_vuln:main":
        "e0994e95b56eca5bb58166744933655e7c44594877edc2104a8c2453e4f6ad11",
    "strcat_rbp_ok:main":
        "6f222d7ae5908a271456359a3b5056c7decfa462eb41392f66046bbb737d935c",
    "strcat_rbp_vuln:main":
        "8fa246edbaf1befe80d8404404e70290f06023f9375daf756c5514de08e7348f",
    "strcpy_canary_ok:main":
        "435e5a85e6824415af8da807dc6546572f614ab6223a58ce1f979fc80b966087",
    "strcpy_canary_vuln:main":
        "720f5b2610b5230bd804b63a3cc419d8374aeed9126ae83cb7f070029b22dc28",
    "strcpy_rip_ok:main":
        "75b11159088eb49ac4613162f9ee1eb42285d690b0a623ea0e6ef5ef54a0ea89",
    "strcpy_rip_vuln:copy":
        "75f6f22aee343e65bf0f5c1884de0a04df3db31475e8135021a291e916822031",
    "strcpy_rip_vuln:main":
        "9cadf36d374e6f8b05eaf1d2ca5c5300d7d15bc7ba1eae0bb8c8bd820033fe33",
    "strcpy_runtime_ok:main":
        "5e5e79d3277a4d071b99b35fa0ab04bbf0d1e59e7bfaf4be8d59b3e7f384247f",
    "strcpy_runtime_vuln:main":
        "518dd4b235c2dd16baaf51fd090ab78ea652370f208bf40a8b1a4b001fbd0987",
    "two_sinks:main":
        "aa5c455bd08ddb7953e7cd810eef6009a48819d0747422f66df2ad2ad4469607",
}

GOLDEN_ATOMIC = {
    "arm_defined_reg:main":
        "1cfc0b8d4f3915433345237d1db9c16e74d85d7c38671607ebadc8fc5ef7208c",
    "diamond:main":
        "a42ca9ace8bf23396e50d34b52184c7850959dab949b90a72728d9bcaab6af7a",
    "direct_write:main":
        "507b7a9133f0760968d97f685b33f39b4e3247f317eab4f1d1a0bf8ab3852469",
    "gets_rip_ok:main":
        "efd14e9145e27521fdb072f888ad8fae533a52dff25e7cca4814d7304262f5e7",
    "gets_rip_vuln:main":
        "08ec575fe31c911b4bbd1f337c2c5b863591cb6b1f1856f9604d0b79419937d5",
    "gets_wide_ok:main":
        "dd8d21601436839f0fe96a7b501fae81302b2670f729c4d482c3809b57784f8f",
    "gets_wide_vuln:main":
        "f11f398bdf5e0fa4d6831aa4d43188888d6f97c5744dffb556d928c3f1844ffd",
    "loop_offbyone_ok:main":
        "bf1ed8a5a2111b2491c47e049d4e3be542e924cade81081428bfc8380a08ee97",
    "loop_offbyone_vuln:main":
        "dfa0f3f30f32c9931e82b71f48ddc986242604fae55526cc6c2606e5dd26d64b",
    "loop_overflow_one_ok:main":
        "48c6c1a573fb8cafe6b34905b7e00b035258f9bce0a4f645dadb842143b4a446",
    "loop_overflow_one_vuln:main":
        "612b299a24790214383065ce05ca36613297d59de68db0f8606a39014b96be48",
    "loop_underflow_ok:main":
        "7c363a35d254b4a5e34743aceb858e2ecde96a54d78ac9eda5054aca77b5bdec",
    "loop_underflow_vuln:main":
        "fc067952e3780883c5e82294f3dfe5fa3af78bffaf46272917b09cd5bcd10ecc",
    "nested_loops:main":
        "79928c40bf0bac92645f559e70dfc568302968f29bd09e617f0d8b0e7c838f6f",
    "no_prologue:main":
        "ca4464b35c9b5dd653930d8e7ac89fadf1ae37b31eb087890ef5b6c3566de4f1",
    "scanf_vuln:main":
        "ae759f10ac3d334fa2f9c61b5ec6abf37a9d28195203e60ccd8f0b904895c54e",
    "sprintf_rbp_ok:main":
        "f05153af584c5bf2755b562adb321b807e7aec1875d2112066e670639c993586",
    "sprintf_rbp_vuln:main":
        "5ab87653bd2c0aa24b86bbb5ca8ce6907c103aded1bbbe9c1a28001dd98607f2",
    "sprintf_rip_ok:main":
        "7b1126445abd35c2bdb9be4b5dd3408f8623fde5e393b4f7a9fa758d3c0341f9",
    "sprintf_rip_vuln:main":
        "ffdb433a0f4847d5d969722d5168ca282e69a2451e40eb57f0f34ffbaab21293",
    "sprintf_trunc:main":
        "9583b58f4be225871d46fa9bef400097d54b758d9535ce79320613363c5ca625",
    "strcat_canary_ok:main":
        "2a892bbd5c19dbe0f4c16f1f691d7d66ff186eb5ab1aa49861831eec924e96ea",
    "strcat_canary_vuln:main":
        "110b473796f8978af89e2b90934ad1f9d39a5bcb8c9336c14ced9ffd934f6c99",
    "strcat_rbp_ok:main":
        "6f222d7ae5908a271456359a3b5056c7decfa462eb41392f66046bbb737d935c",
    "strcat_rbp_vuln:main":
        "8fa246edbaf1befe80d8404404e70290f06023f9375daf756c5514de08e7348f",
    "strcpy_canary_ok:main":
        "fa2c87fd2132a51433bc31dba2289e3fe9df69c74985a109a92d51583f2e8c4c",
    "strcpy_canary_vuln:main":
        "85eed182301d0869df4bb63bdcf10490f32f3e44a0310912f0eff556f243caed",
    "strcpy_rip_ok:main":
        "75b11159088eb49ac4613162f9ee1eb42285d690b0a623ea0e6ef5ef54a0ea89",
    "strcpy_rip_vuln:copy":
        "10974f2c300064a45091bc8e697dd1401673911c26c3053f6738e19b6a8382a5",
    "strcpy_rip_vuln:main":
        "f71a918f4a44c8f0f937af32bd56dfc6db6d1337750cb9fb3618196700f6e639",
    "strcpy_runtime_ok:main":
        "75bd9d6f64eaf62b96d519ae3fbc116f7f679caa3d9146cb7bed388badcf4c4a",
    "strcpy_runtime_vuln:main":
        "5328fcc350c8d14280891f1793043f0886c92b7fc0f4565f91098d4b380a0b20",
    "two_sinks:main":
        "aa5c455bd08ddb7953e7cd810eef6009a48819d0747422f66df2ad2ad4469607",
}


def _digests(cfg: Config) -> dict[str, str]:
    out = {}
    for path in sorted(CORPUS_DIR.glob("*.s")) + sorted(FIXTURE_DIR.glob("*.s")):
        image, bcfg, oracle = pipeline(path, cfg)
        for fn, space in build_root_spaces(image, oracle, cfg).items():
            doc = {"space": memstace_to_json(space), "notes": space.notes}
            out[f"{path.stem}:{fn}"] = hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return out


@pytest.mark.parametrize("cfg, golden", [(Config(), GOLDEN_DEFAULT),
                                         (Config(atomic_writes=True), GOLDEN_ATOMIC)],
                         ids=["default", "atomic_writes"])
def test_state_spaces_match_golden_digests(cfg, golden):
    digests = _digests(cfg)
    assert sorted(digests) == sorted(golden)
    changed = sorted(key for key, d in digests.items() if d != golden[key])
    assert not changed, f"state spaces changed for: {', '.join(changed)}"
