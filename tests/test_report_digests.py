"""Golden digests of the CLI's deterministic reports.

Pins the SHA-256 of the JSON bytes of a small criterion-8 sweep and of
``classify`` and ``replay`` on a handful of fixed state files, one per tail
branch, and of the csv and human ``classify`` reports of one of them.  A refactor that must not move any report keeps these digests; a
change that alters reports on purpose updates them and says so in
CHANGES.md, together with what moved and why.
"""

import hashlib
import json
import math

import pytest

from boolefock.cli import main

# 1/sqrt(20) is correctly rounded, so the wide state's amplitudes are exact
# on every platform
_A = 1 / math.sqrt(20)
_PHASES = ([_A, 0.0], [0.0, _A], [-_A, 0.0], [0.0, -_A])

STATES = {
    "vacuum": {"gamma": 1.0, "T": {"eigenpairs": [{"weight": 1.0, "vector": {"#": [1.0, 0.0]}}]}},
    "expected_vacuum_eigenvalue": {
        "gamma": 0.6,
        "T": {"eigenpairs": [
            {"weight": 0.5, "vector": {"#": [1.0, 0.0]}},
            {"weight": 0.3, "vector": {"1": [0.6, 0.0], "2": [0.0, 0.8]}},
            {"weight": 0.2, "vector": {"1": [0.8, 0.0], "2": [0.0, -0.6]}},
        ]},
    },
    "expected_vacuum_in_kernel": {
        "gamma": 0.35,
        "T": {"eigenpairs": [
            {"weight": 0.7, "vector": {"2": [0.6, 0.0], "5": [0.0, 0.8]}},
            {"weight": 0.3, "vector": {"7": [1.0, 0.0]}},
        ]},
    },
    "nonexpected": {
        "gamma": 0.8,
        "T": {"eigenpairs": [
            {"weight": 0.6, "vector": {"#": [0.6, 0.0], "1": [0.8, 0.0]}},
            {"weight": 0.4, "vector": {"#": [0.8, 0.0], "1": [-0.6, 0.0]}},
        ]},
    },
    "near_vacuum_singular": {
        "gamma": 0.5,
        "T": {"eigenpairs": [{"weight": 0.99999999991, "vector": {"#": [0.999999999955, 0.0]}}]},
    },
    "wide_20_sites": {
        "gamma": 0.9,
        "T": {"eigenpairs": [
            {"weight": 0.4, "vector": {"#": [1.0, 0.0]}},
            {"weight": 0.6, "vector": {str(9 + k): _PHASES[k % 4] for k in range(20)}},
        ]},
    },
}

SWEEP_DIGEST = "cbb2d34c42fd8a867d9254b85f2b962111b14f0da7d989725d23c1aa6814e04f"

CLASSIFY_DIGESTS = {
    "expected_vacuum_eigenvalue": "8a7cef5f4a7cdd6be6645b80e59df248b8bd1ca26f2086e587f2f403896e3cf7",
    "expected_vacuum_in_kernel": "82a3ec139e6b204bbe1c0319dd095580155134327f0cb35d55b35dcc7086aa12",
    "near_vacuum_singular": "1edafeefcb99969c2ba072f7406bcc9caeb9f822ae6e3737703897c34b6cfabc",
    "nonexpected": "ee128a8eb213ab95bc8434b5dd275697ba4ac29595e694eff84798df7f50537e",
    "vacuum": "95d1a5e4f59715d6b9b6768ebac9f36a62f4f5e3e3855817efa18b5d95fe0323",
    "wide_20_sites": "572c56b067439ec3cd8e937c17a81f2513fcc7224c00af14f33dbcad66b2bc63",
}

#: The csv and human classify reports of one state; the human one renders
#: every witness through ``jsonutil.dumps``, nested under its check line.
TEXT_CLASSIFY_DIGESTS = {
    "csv": "c6d89ee2d8cb3a5e26418c027c0079cda2768be528578341b10ecd501ebc8a08",
    "human": "576eb790a0ef6ad9841316077861f442493cdc62f30f3f90fcce8164e55654f9",
}

# the vacuum and the near-vacuum state store no witness: their replays agree
REPLAY_DIGESTS = {
    "expected_vacuum_eigenvalue": "e7c830cacfe276a6eff8107ca3d1804dff66fe038125d2aa8d31e30edb222b49",
    "expected_vacuum_in_kernel": "60da88e429ad0ce2ad0146d856609791f23a92743d8731d9de4f7fe3ea988bc7",
    "near_vacuum_singular": "7a8df13699c33f101272cf9a69d60c90cc48c53ff99eadaf2b6876d469462e71",
    "nonexpected": "c423f7d34a5c266bc0d8b6bed8354b1db6b3376a55bf56cbb8851ff5e907e3d8",
    "vacuum": "7a8df13699c33f101272cf9a69d60c90cc48c53ff99eadaf2b6876d469462e71",
    "wide_20_sites": "f1526ec65f2570770c4ac62638e64f9a58acb839ce65fe62f9cfa02159c3a207",
}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_report_digest(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--seed", "42", "--samples", "100", "--max-rank", "6", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == 0
    assert digest(out) == SWEEP_DIGEST


@pytest.mark.parametrize("name", sorted(STATES))
def test_classify_and_replay_digests(tmp_path, name):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(STATES[name]))
    report, replay = tmp_path / "report.json", tmp_path / "replay.json"
    argv = ["classify", "--state", str(state), "--seed", "5", "--samples", "60", "--format", "json"]
    assert main(argv + ["--out", str(report)]) == 0
    assert main(["replay", "--witness", str(report), "--seed", "0", "--format", "json", "--out", str(replay)]) == 0
    assert (digest(report), digest(replay)) == (CLASSIFY_DIGESTS[name], REPLAY_DIGESTS[name])


@pytest.mark.parametrize("output_format", sorted(TEXT_CLASSIFY_DIGESTS))
def test_classify_text_format_digests(tmp_path, output_format):
    state = tmp_path / "state.json"
    state.write_text(json.dumps(STATES["expected_vacuum_in_kernel"]))
    report = tmp_path / "report.txt"
    argv = ["classify", "--state", str(state), "--seed", "5", "--samples", "60", "--format", output_format]
    assert main(argv + ["--out", str(report)]) == 0
    assert digest(report) == TEXT_CLASSIFY_DIGESTS[output_format]
