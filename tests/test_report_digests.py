"""Golden digests of the CLI's deterministic reports.

Pins the SHA-256 of the JSON bytes of a small criterion-8 sweep and of
``classify`` and ``replay`` on a handful of fixed state files, one per tail
branch, and of the csv and human ``classify`` reports of one of them.  A refactor that must not move any report keeps these digests; a
change that alters reports on purpose updates them and says so in
CHANGES.md, together with what moved and why.
"""

import hashlib
import importlib.util
import json
import math
import pathlib

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

SWEEP_DIGEST = "a51132922114c5100f5c955523d60647147ccc055dd3111215d64a0f107dd0b5"

CLASSIFY_DIGESTS = {
    "expected_vacuum_eigenvalue": "5a88e4167f93f978ec04c4497879f9e8071eaf1466027f90c42cf0c4bdc8cb80",
    "expected_vacuum_in_kernel": "58e13fce4b1a9131d0c3f310fda99c14fee02b0a630d83b702b414b0af1f79fe",
    "near_vacuum_singular": "0a13e4d531ecb3596fc213c0c979b92ac74f2567d417fac4f9207cf37877b3df",
    "nonexpected": "c9383a987f64f30b8614f62c40f1880642ac2eb443511b50cde287fdc796b674",
    "vacuum": "c73f9480cbf26bb23bbe21fa8aaf0dff73633c7f6df248b2f9891f6ec024ea80",
    "wide_20_sites": "c27588924f79de30833e96757211d02c72e452e7a74bb5bfb21d920b8aad270f",
}

#: The csv and human classify reports of one state; the human one renders
#: every witness through ``jsonutil.dumps``, nested under its check line.
TEXT_CLASSIFY_DIGESTS = {
    "csv": "ec4543f83c6d96e76e139660d4663bd32bdad897643befc1228ecd6319fdb81d",
    "human": "71cb2f78192090e9623e86ac5285847e0c915dbdf7e6cd38e9dfcdf24955c780",
}

# the vacuum and the near-vacuum state store no witness: their replays agree
REPLAY_DIGESTS = {
    "expected_vacuum_eigenvalue": "a766bb88a1b907a9c0a5e1484470cbd143b7b076179e5d2fb86240edf36c42bf",
    "expected_vacuum_in_kernel": "7369cb326c1005bf0fae674fe774a293998bb3c84153cde8804c061b51696a1b",
    "near_vacuum_singular": "7a8df13699c33f101272cf9a69d60c90cc48c53ff99eadaf2b6876d469462e71",
    "nonexpected": "ca4fa2ee08194556f300946556c23c6c1af0a1e4e30ce3dd289763ca017d67b4",
    "vacuum": "7a8df13699c33f101272cf9a69d60c90cc48c53ff99eadaf2b6876d469462e71",
    "wide_20_sites": "e803ee7ead7d07453c74f350b64e5ad4edb1e98633cde7e0bd9ddd375a9e37dd",
}


#: One digest over the JSON classify reports of the first three generated
#: inputs of each classify workload at benchmark seed 1, classified as the
#: benchmark classifies them: ranks 16, 11 and 19 over 22 to 24 sites, and
#: rank 2 over 20 to 33 sites.  These pin T's entries at rank >= 8, the
#: loader's orthonormality check over many eigenpairs, and the echo of a
#: state of several hundred amplitudes.
BENCHMARK_INPUTS_DIGEST = "eaf21917e1f15b991499b560d9879a48818772fa62d55138476d0daebba41060"

BENCHMARK_INPUTS = [(workload, index) for workload in ("classify-deep", "classify-wide") for index in range(3)]


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


def test_benchmark_input_reports_digest(tmp_path):
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_inputs", root / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    total = hashlib.sha256()
    for workload, index in BENCHMARK_INPUTS:
        obj, _ = inputs.make_state(workload, 1, index)
        state, report = tmp_path / "state.json", tmp_path / "report.json"
        state.write_text(json.dumps(obj))
        argv = ["classify", "--state", str(state), "--seed", str(1000 + index), "--tolerance", "1e-9",
                "--samples", "100", "--max-word-len", "5", "--format", "json", "--out", str(report)]
        assert main(argv) == 0
        total.update(report.read_bytes())
    assert total.hexdigest() == BENCHMARK_INPUTS_DIGEST
