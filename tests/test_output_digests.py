"""Every file ``banditsgd compare`` writes for ``configs/quick.cfg``, against frozen sha256 digests.

perfbench digests only its own three workloads, and its compare-sgd pool is
not pinned. This freezes ``quick.cfg`` as it is, and with ``pool_seed = 3``,
whose pinned pool takes ``run_comparison``'s one-gap-report branch and gives
the regret tables their bound columns. ``--out`` is relative to the working
directory, so ``summary.json``'s ``out_dir`` is the same on every machine.
The digests are keyed by numpy version, as ``perfbench/digests.json`` is,
and the test skips when the installed numpy has none. Run this file as a
script to print the table for the installed numpy.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import numpy as np
import pytest

from banditsgd.cli import main

QUICK_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "quick.cfg")
VARIANTS = {"unpinned": "", "pinned": "pool_seed = 3\n"}

# printed by running this file as a script, before a trace's rounds and member offsets moved to RoundSchedule
FROZEN = {
    "numpy 2.4.6": {
        "unpinned": {
            "employments_cmab-plain.csv": "1cd4de0279deaa05b706f9c32f07e7a62e530b12e4d53cf2b14028e9d5c9a005",
            "employments_cmab-scaled.csv": "f3943e23c798cc603942aa1bc8f3eb73c1b2b9a5f8463347ca018b7146578707",
            "employments_optimal.csv": "b631c1518f46e238243422659a090af086888d9bb7e954a5840ba294f7dd4140",
            "error_curve_adaptive-ksync.csv": "e9eab68a272be334e1840bed1a5df9382be8b0774647d7769f2442b0a62e1c86",
            "error_curve_cmab-plain.csv": "5a29cb449d72b6c80715adb32b79933c205da759fa688e20c3d1e3c799fa0893",
            "error_curve_cmab-scaled.csv": "17d57a76a06b35de78feb30b600077c97ad0078e9a67c64a4cbd019e3dda6130",
            "error_curve_optimal.csv": "bb0dcdb8674ea071e1c8ffd2fe2feae05b239827bbe654c530fbd411494b81f7",
            "regret_cmab-plain.csv": "99ab0b91cba735b80f37082312a7c3b557ef0ae63e16a0a0c4216a33941f8127",
            "regret_cmab-scaled.csv": "d4af679b3db450e2ab4185dd6d82fd0a04ddfbbb6f203c5ff3fbbe42cbdd5f2f",
            "summary.json": "2472ff3565d5e1c0922fc772da21607c1a137765a2167d2ad876cc3acd89a9ee",
            "trace_adaptive-ksync_0.csv": "5cb1efd0ffa2379025872c0cfb69086d0dabfbf4e2b7b3c169272a120ee891bf",
            "trace_adaptive-ksync_1.csv": "312695ad5888b225d8e7e01ad90950918a8b85ef7638d56eda16f561eb27cfaf",
            "trace_adaptive-ksync_2.csv": "20501758105fcf2ff14ffa342fe5b7a735702e8f5c5bfb9d96ad92797a180e3d",
            "trace_cmab-plain_0.csv": "9072551d3d58fa1e12aede472a7a3bbc9f125f7326a2de725857d6fe8d56fc8f",
            "trace_cmab-plain_1.csv": "ff5d239e1d7a4e3b4cf37f39ddd509eada5a2a417840759a1ccb8c34ea86bb90",
            "trace_cmab-plain_2.csv": "8acaa148c643ade42a135da1e981b7be38bb9b75d6844fa2fd778335d628948c",
            "trace_cmab-scaled_0.csv": "92c5b433b1069bbc0d2fa65c21d865e6bd86198aa0a564a92be5bed84c826ebf",
            "trace_cmab-scaled_1.csv": "ad37d24f24f661e7dd704bde339cef3329c49fab3e54001c0abccdfe30f361b1",
            "trace_cmab-scaled_2.csv": "030307984039ae425f1393015c9271ed4c993e84394556e02b40e3b348044067",
            "trace_optimal_0.csv": "fc279398ea3cbd258406884dafea05e6a8d1173880e5c4928f6abde3e3fc52e4",
            "trace_optimal_1.csv": "52c62abe8411074fe4e007e98b3e9213523c0cb38c0c32844a560d67cfa88bb9",
            "trace_optimal_2.csv": "02e08d95c5d701a06d15a10834f601ef3c61afaab6b52f055fdce5eb1f468c59",
        },
        "pinned": {
            "employments_cmab-plain.csv": "c02eacf340d3875f7056554072a7d2fd2cb35f006e6ab9fa01f3218e4d7d9e37",
            "employments_cmab-scaled.csv": "95a65b62ec738d274be4c1569d1b0f4b0017e3c7cb607730a7cdff21d19c4c31",
            "employments_optimal.csv": "b631c1518f46e238243422659a090af086888d9bb7e954a5840ba294f7dd4140",
            "error_curve_adaptive-ksync.csv": "0a1562f8c2d375ada991c6e86a9a39ccfbced75848b5011d63ce604916261187",
            "error_curve_cmab-plain.csv": "1b94ba2d960bf3882c6cd423a32e519618e57ad3e30e359c088f2f73e9a7b5aa",
            "error_curve_cmab-scaled.csv": "38d9001c28c305a9dc9c287674364fe1e00edd0113a84445bc7bae1c1add10b1",
            "error_curve_optimal.csv": "2a82091c3cd08e0fe3f4e56863c214b77a0dc7306a438c47d4326ef59ade7a11",
            "regret_cmab-plain.csv": "75fc9a142073fc21a7ae9f4456359490e09c2eea1b6a5ac4fb5cd177978baa28",
            "regret_cmab-scaled.csv": "334609f210c7d5a1d1baf4ac5d819406e04df6938cf32651a83ce17eec111bf1",
            "summary.json": "8c9d4a4ea326fe5de03a003ae5a8f4e0bafe78ef0f911015bc291fb6e37bd254",
            "trace_adaptive-ksync_0.csv": "7561105b47c0b30b93111d8c255bb540e3e47073907b1438967b104a741a7664",
            "trace_adaptive-ksync_1.csv": "923f20378a35318f7907a93cae4b1e5b0e98eb55e8267b9032f88f09335dd32e",
            "trace_adaptive-ksync_2.csv": "f211cbefb0cc8e31218299b21b2b38c9c16ae2ebadd8d2cb0e9ea5cd5c1748c8",
            "trace_cmab-plain_0.csv": "f91ca3c7d4ff0f4967a6f6c16e6a3edaa84e83794d67c683186e681523fc9189",
            "trace_cmab-plain_1.csv": "12b401dabe17d395e9fc2d81617acd5be2c17e8a6b1350bba236704c97b5e696",
            "trace_cmab-plain_2.csv": "d6aa3b22f62bbc146b4724f2860deb75b178943dc66cfa332bafd65a3ae901a2",
            "trace_cmab-scaled_0.csv": "e5f754249123b582d8dd3e7e730d6bafce1d5b8eb6596523e109da2d1e5a9ddd",
            "trace_cmab-scaled_1.csv": "534f40f1c02142d60eda9cf250664be7584889c7d4ee21f39aee3cf4b5687158",
            "trace_cmab-scaled_2.csv": "ee72c34914a62219cce4bcc029a70ab70a9ff625141f8d1fce8b58b54bc5fb8c",
            "trace_optimal_0.csv": "aeca7f4efc8a0cc5f0475067224084f2398d21e809fb3e70c863f132521cfacc",
            "trace_optimal_1.csv": "55482c7c81f2762eecb260355ab6cb39b8c4c7485b4f29638fefedafb5c48e33",
            "trace_optimal_2.csv": "1bcb9e7280097f1d8b871762e2ccaf44aba2a53e0c9012b7e617b4c957ab8200",
        },
    },
}


def compare_digests(workdir, variant: str) -> dict:
    """Run ``compare`` on ``quick.cfg`` plus the variant's lines in ``workdir``; the sha256 of each file written."""
    with open(QUICK_CFG, encoding="utf-8") as fh:
        text = fh.read()
    config = os.path.join(workdir, f"{variant}.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(text + VARIANTS[variant])
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["compare", "--config", config, "--out", variant])
    finally:
        os.chdir(cwd)
    if rc != 0:
        raise RuntimeError(f"compare on the {variant} config exited {rc}")
    out = os.path.join(workdir, variant)
    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_compare_outputs_match_frozen_digests(variant, tmp_path):
    frozen = FROZEN.get(f"numpy {np.__version__}", {}).get(variant)
    if frozen is None:
        pytest.skip(f"no {variant} compare digests for numpy {np.__version__}")
    assert len(frozen) == 22
    assert compare_digests(str(tmp_path), variant) == frozen
    for policy in ("cmab-plain", "cmab-scaled"):
        with open(tmp_path / variant / f"regret_{policy}.csv", encoding="utf-8") as fh:
            header = fh.readline().strip()
        bounds = ",bound_log_iter,bound_log_truncated,bound_tighter" if variant == "pinned" else ""
        assert header == "iter,mean_regret" + bounds


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        table = {variant: compare_digests(workdir, variant) for variant in VARIANTS}
    json.dump({f"numpy {np.__version__}": table}, sys.stdout, indent=1, sort_keys=True)
    print()
