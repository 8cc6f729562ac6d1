import json
import math

import pytest

from boolefock import jsonutil
from boolefock.algebra import FockVector, site_vector, vacuum_vector
from boolefock.cli import SWEEP_CSV_HEADER, main
from boolefock.states import BooleanState, TraceClassOperator, vacuum_state


def write_state(tmp_path, state, name="state.json"):
    path = tmp_path / name
    path.write_text(jsonutil.dumps(state.to_json()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_relations_pass(capsys):
    code, out, _ = run(capsys, ["relations", "--seed", "7", "--samples", "100", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 3
    assert all(r["passed"] for r in payload["reports"])


def test_relations_honours_tolerance(capsys):
    # the random relations deviate by rounding (about 1e-16), the matrix-unit
    # dictionary holds exactly
    code, out, _ = run(
        capsys, ["relations", "--samples", "50", "--tolerance", "1e-300", "--format", "json"]
    )
    assert code == 1
    passed = {r["name"]: r["passed"] for r in json.loads(out)["reports"]}
    assert passed == {
        "boolean_relations": False,
        "matrix_unit_dictionary": True,
        "embedding_homomorphism": False,
    }


def test_relations_rejects_zero_samples(capsys):
    code, _, err = run(capsys, ["relations", "--samples", "0"])
    assert code == 2
    assert "samples" in err


def test_classify_vacuum_state(tmp_path, capsys):
    path = write_state(tmp_path, vacuum_state())
    code, out, _ = run(
        capsys, ["classify", "--state", path, "--seed", "3", "--samples", "40", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    verdict = payload["classification"]
    assert verdict == {
        "symmetric": True,
        "expected": True,
        "iid": True,
        "consistent": True,
        "max_deviation": 0.0,
    }


def test_classify_nonexpected_prints_ratio(tmp_path, capsys):
    s = 1 / math.sqrt(2)
    state = BooleanState(1.0, TraceClassOperator.rank_one(FockVector(s, {1: s})))
    path = write_state(tmp_path, state)
    code, out, _ = run(
        capsys, ["classify", "--state", path, "--seed", "3", "--samples", "40", "--format", "json"]
    )
    assert code == 0  # non-symmetric but consistent
    payload = json.loads(out)
    assert payload["classification"]["symmetric"] is False
    assert payload["classification"]["iid"] is False
    witness = next(
        r["witness"] for r in payload["reports"] if r["name"] == "preserving_expectation_exists"
    )
    assert witness["kind"] == "expectation_ratio"
    assert witness["ratio"] < 1.0
    assert "element" in witness


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"gamma": 0.5, "T": {"eigenpairs": [')
    code, _, err = run(capsys, ["classify", "--state", str(path)])
    assert code == 2
    assert "parse" in err


def test_classify_invariant_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = {
        "gamma": 1.0,
        "T": {"eigenpairs": [{"weight": 0.5, "vector": {"#": [1.0, 0.0]}}]},
    }
    path.write_text(jsonutil.dumps(payload))
    code, _, err = run(capsys, ["classify", "--state", str(path)])
    assert code == 2
    assert "sum to 1" in err


NON_FINITE_STATES = (
    '{"gamma": 1.0, "T": {"eigenpairs": [{"weight": 1.0, "vector": {"#": [NaN, 0.0]}}]}}',
    '{"gamma": 1.0, "T": {"eigenpairs": [{"weight": NaN, "vector": {"3": [1.0, 0.0]}}]}}',
)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("text", NON_FINITE_STATES)
def test_classify_rejects_non_finite_state(tmp_path, capsys, text, output_format):
    path = tmp_path / "nan.json"
    path.write_text(text)
    code, out, err = run(capsys, ["classify", "--state", str(path), "--format", output_format])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "finite" in err


@pytest.mark.parametrize(
    "key, message",
    [(k, "canonical") for k in ("01", " 1", "+1", "1 ", "1.0", "\u0661")] + [("1", "duplicate")],
)
def test_classify_rejects_aliased_site_key(tmp_path, capsys, key, message):
    # each key would otherwise name site 1 again and silently replace its amplitude
    path = tmp_path / "alias.json"
    vector = '{"1": [1.0, 0.0], %s: [0.0, 1.0]}' % json.dumps(key)
    path.write_text('{"gamma": 1.0, "T": {"eigenpairs": [{"weight": 1.0, "vector": %s}]}}' % vector)
    code, out, err = run(capsys, ["classify", "--state", str(path), "--format", "json"])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_rejects_non_finite_tolerance(capsys, tolerance):
    code, _, err = run(capsys, ["relations", "--tolerance", tolerance])
    assert code == 2
    assert len(err.splitlines()) == 1
    assert "tolerance" in err


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, ["classify", "--state", "/nonexistent/state.json"])
    assert code == 2
    assert "not found" in err


def test_sweep_csv_header_and_exit(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        ["sweep", "--seed", "1", "--samples", "15", "--format", "csv", "--out", str(out_file)],
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 16


def test_sweep_json_consistency(capsys):
    code, out, _ = run(capsys, ["sweep", "--seed", "5", "--samples", "10", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_consistent"] is True
    assert len(payload["rows"]) == 10
    assert set(payload["rows"][0]) >= {
        "gamma",
        "rank",
        "symmetric",
        "expected",
        "iid",
        "consistent",
        "max_deviation",
    }


def test_sweep_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(
            capsys,
            ["sweep", "--seed", "42", "--samples", "12", "--format", "json", "--out", str(path)],
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    out1 = tmp_path / "env.json"
    out2 = tmp_path / "flag.json"
    monkeypatch.setenv("BOOLEFOCK_SEED", "9")
    code, _, _ = run(capsys, ["sweep", "--samples", "6", "--format", "json", "--out", str(out1)])
    assert code == 0
    monkeypatch.delenv("BOOLEFOCK_SEED")
    code, _, _ = run(
        capsys, ["sweep", "--seed", "9", "--samples", "6", "--format", "json", "--out", str(out2)]
    )
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("BOOLEFOCK_SEED", "not-a-number")
    code, _, err = run(capsys, ["relations"])
    assert code == 2
    assert "BOOLEFOCK_SEED" in err


def test_replay_reproduces_witnesses(tmp_path, capsys):
    state = BooleanState(
        1.0,
        TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))),
    )
    state_path = write_state(tmp_path, state)
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys,
        [
            "classify",
            "--state",
            state_path,
            "--seed",
            "3",
            "--samples",
            "40",
            "--format",
            "json",
            "--out",
            str(report_path),
        ],
    )
    assert code == 0
    code, out, _ = run(capsys, ["replay", "--witness", str(report_path)])
    assert code == 0
    assert "reproduced" in out
    assert "NOT reproduced" not in out

    # the same phi stored as a site-only density, as older reports did
    payload = json.loads(report_path.read_text())
    site_only = {"kind": "normal", "S": {"eigenpairs": [{"weight": 1.0, "vector": {"2": [1.0, 0.0]}}]}}
    witnesses = [r["witness"] for r in payload["reports"] if r["witness"] and "phi" in r["witness"]]
    assert witnesses
    for witness in witnesses:
        witness["phi"] = site_only
    report_path.write_text(jsonutil.dumps(payload))
    code, out, _ = run(capsys, ["replay", "--witness", str(report_path)])
    assert code == 0
    assert "identical_distribution [identical_distribution]" in out
    assert "NOT reproduced" not in out


def _fractional_word_site(witness):
    witness["word"][0][0] += 0.9


def _fractional_permutation_site(witness):
    mapping = witness["permutation"]["map"]
    mapping[next(iter(mapping))] += 0.9


def _non_canonical_permutation_key(witness):
    mapping = witness["permutation"]["map"]
    witness["permutation"]["map"] = {"0" + k: v for k, v in mapping.items()}


def _permutation_map_list(witness):
    witness["permutation"]["map"] = []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # a fractional site would otherwise be truncated to a neighbouring site
        (_fractional_word_site, "site"),
        (_fractional_permutation_site, "site"),
        (_non_canonical_permutation_key, "canonical"),
        (_permutation_map_list, "permutation"),
    ],
)
def test_replay_rejects_malformed_exchangeability_witness(tmp_path, capsys, corrupt, message):
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    report_path = tmp_path / "report.json"
    argv = ["classify", "--state", write_state(tmp_path, state), "--seed", "3", "--samples", "40"]
    code, _, _ = run(capsys, argv + ["--format", "json", "--out", str(report_path)])
    assert code == 0
    code, out, _ = run(capsys, ["replay", "--witness", str(report_path)])
    assert code == 0 and "NOT reproduced" not in out
    payload = json.loads(report_path.read_text())
    corrupt(next(r["witness"] for r in payload["reports"] if r["name"] == "exchangeability"))
    report_path.write_text(json.dumps(payload))
    code, out, err = run(capsys, ["replay", "--witness", str(report_path)])
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert message in err


def test_replay_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["replay", "--witness", str(path)])
    assert code == 2
    assert "parse" in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2
