import ast
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import boolefock.cli
from boolefock import jsonutil
from boolefock.algebra import BooleanElement, FockVector, site_vector, vacuum_vector
from boolefock.cli import SWEEP_CSV_HEADER, main
from boolefock.states import BooleanState, TraceClassOperator, vacuum_state
from boolefock.tail import preserving_phi
from boolefock.verify import check_nfold_factorization, site_pool

from test_verify import ONE_ULP_STATE


def write_state(tmp_path, state, name="state.json"):
    path = tmp_path / name
    path.write_text(jsonutil.dumps(state.to_json()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rejected(result, message):
    """Exit 2 with one line on stderr naming ``message`` and nothing on stdout."""
    code, out, err = result
    assert (code, out, len(err.splitlines())) == (2, "", 1), result
    assert message in err


def saved_report(tmp_path, capsys, state):
    """The path of the JSON classify report of ``state``."""
    path = tmp_path / "report.json"
    argv = ["classify", "--state", write_state(tmp_path, state), "--seed", "3", "--samples", "40"]
    code, _, _ = run(capsys, argv + ["--format", "json", "--out", str(path)])
    assert code == 0
    return path


def run_formats(capsys, argv):
    """``{format: stdout}`` of one run per format; the exit codes agree."""
    runs = {f: run(capsys, argv + ["--format", f]) for f in ("json", "csv", "human")}
    assert len({code for code, _, _ in runs.values()}) == 1
    return {f: out for f, (_, out, _) in runs.items()}


def json_tokens(text):
    """The JSON report with every number kept as its printed text."""
    return json.loads(text, parse_float=str, parse_int=str)


def cells(row, header):
    return [{True: "true", False: "false", None: "null"}.get(row[key], row[key]) for key in header]


def report_lines(text):
    """The human lines of each report in a JSON report, built from its tokens."""
    lines = []
    for report, parsed in zip(json_tokens(text)["reports"], json.loads(text)["reports"]):
        verdict = "PASS" if report["passed"] else "FAIL"
        lines.append(
            f"{report['name']}: {verdict} "
            f"(max_deviation={report['max_deviation']}, samples={report['samples_run']})"
        )
        if parsed["witness"] is not None:
            # the witness JSON starts on the check's line and nests under it
            first, *rest = jsonutil.dumps(parsed["witness"]).strip().splitlines()
            lines += ["  witness: " + first, *("  " + line for line in rest)]
    return lines


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


@pytest.mark.parametrize("tolerance", ["1e-9", "1e-300"])
def test_relations_formats_render_the_json_report(capsys, tolerance):
    outs = run_formats(capsys, ["relations", "--seed", "7", "--samples", "30", "--tolerance", tolerance])
    header = ["name", "passed", "max_deviation", "samples_run"]
    rows = json_tokens(outs["json"])["reports"]
    assert outs["csv"].splitlines() == [",".join(header)] + [",".join(cells(r, header)) for r in rows]
    assert outs["human"] == "\n".join(report_lines(outs["json"])) + "\n"


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


def test_classify_nonexpected_prints_coherence_witness(tmp_path, capsys):
    # T_1# = 0.5: the witness eps(#, 1) has psi 0.5 and F_phi of it is 0
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
    assert witness == {"kind": "coherence", "site": 1, "lhs": [0.5000000000000001, 0.0], "rhs": [0.0, 0.0]}


@pytest.mark.parametrize(
    "tolerance, verdicts",
    [("1e-3", [False, False, False, True]), ("0.5", [False, True, False, True]), ("0.7", [True, True, True, True])],
)
def test_classify_tolerance_decides_every_verdict(tmp_path, capsys, tolerance, verdicts):
    # T = |xi><xi| with xi = 0.6 e_# + 0.8 e_1: the coherence gamma * |T_1#|
    # is 0.48 and the diagonal gamma * T_11 is 0.64, so --tolerance moves
    # expected as it moves symmetric and iid
    state = BooleanState(1.0, TraceClassOperator.rank_one(FockVector(0.6, {1: 0.8})))
    argv = ["classify", "--state", write_state(tmp_path, state), "--tolerance", tolerance, "--format", "json"]
    code, out, _ = run(capsys, argv)
    verdict = json.loads(out)["classification"]
    assert (code, [verdict[k] for k in ("symmetric", "expected", "iid", "consistent")]) == (0, verdicts)


def test_coherence_witness_reproduces_up_to_its_deviation(tmp_path, capsys):
    # the state above, not expected at 1e-3: the witness's sides differ by
    # the report's deviation bit for bit, and it reproduces at every
    # tolerance below that but not at it, nor at a site beyond T's support
    state = BooleanState(1.0, TraceClassOperator.rank_one(FockVector(0.6, {1: 0.8})))
    report_path = tmp_path / "report.json"
    argv = ["classify", "--state", write_state(tmp_path, state), "--tolerance", "1e-3", "--format", "json"]
    assert run(capsys, argv + ["--out", str(report_path)])[0] == 0
    payload = json.loads(report_path.read_text())
    report = next(r for r in payload["reports"] if r["name"] == "preserving_expectation_exists")
    witness = report["witness"]
    lhs, rhs = (jsonutil.decode_complex(witness[side]) for side in ("lhs", "rhs"))
    deviation = abs(lhs - rhs)
    assert deviation == report["max_deviation"] and abs(deviation - 0.48) <= 1e-15

    def coherence_row(tolerance):
        code, out, err = run(capsys, ["replay", "--witness", str(report_path), "--tolerance", tolerance, "--format", "json"])
        assert err == ""
        row = next(r for r in json.loads(out)["rows"] if r["kind"] == "coherence")
        return code, row

    code, row = coherence_row(repr(math.nextafter(deviation, 0.0)))
    assert (code, row["reproduced"], row["lhs"], row["rhs"]) == (0, True, deviation, 0)
    code, row = coherence_row(repr(deviation))
    assert (code, row["reproduced"], row["lhs"], row["rhs"]) == (1, False, deviation, 0)
    # an integer site of any size is a site, off T's rows like the fresh one
    for site in (site_pool(state)[-1], 10 ** 400):
        witness["site"] = site
        report_path.write_text(jsonutil.dumps(payload))
        code, row = coherence_row("1e-3")
        assert (code, row["reproduced"], row["lhs"], row["rhs"]) == (1, False, 0, 0)


@pytest.mark.parametrize("gamma", [1.0, 0.4])
def test_classify_formats_render_the_json_report(tmp_path, capsys, gamma):
    state = BooleanState(gamma, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))))
    argv = ["classify", "--state", write_state(tmp_path, state), "--seed", "3", "--samples", "40"]
    outs = run_formats(capsys, argv)
    verdict = json_tokens(outs["json"])["classification"]
    header = ["symmetric", "expected", "iid", "consistent", "max_deviation"]
    assert outs["csv"].splitlines() == [",".join(header), ",".join(cells(verdict, header))]
    human = [f"{key + ':':<11} {cell}" for key, cell in zip(header, cells(verdict, header))]
    assert outs["human"] == "\n".join(human + report_lines(outs["json"])) + "\n"


def test_human_witness_lines_nest_under_their_check_line(tmp_path, capsys):
    # each witness opens on the line below its check, closes two spaces in,
    # and every line between is indented deeper than both
    state = BooleanState(0.4, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))))
    argv = ["classify", "--state", write_state(tmp_path, state), "--seed", "3", "--samples", "40"]
    outs = run_formats(capsys, argv)
    reports = {r["name"]: r for r in json.loads(outs["json"])["reports"]}
    lines = outs["human"].splitlines()
    witnesses = {}
    k = 0
    while k < len(lines):
        line = lines[k]
        k += 1
        if not line.startswith(" "):
            continue
        assert line == "  witness: {", line
        name = lines[k - 2].split(":")[0]
        end = lines.index("  }", k)
        assert all(inner.startswith("    ") for inner in lines[k:end])
        witnesses[name] = json.loads("{" + "\n".join(lines[k:end]) + "}")
        k = end + 1
    assert witnesses == {name: r["witness"] for name, r in reports.items() if r["witness"] is not None}
    assert len(witnesses) >= 2


#: Eigenpair lists of the wrong shape; each used to surface a raw Python error.
MALFORMED_EIGENPAIRS = ("null", "3", '"ab"', '{"a": 1}', "[[1, 2]]", '[{"weight": 1}]', '[{"vector": {}}]')


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"gamma": 0.5, "T": {"eigenpairs": [')
    code, _, err = run(capsys, ["classify", "--state", str(path)])
    assert code == 2
    assert "parse" in err
    for eigenpairs in MALFORMED_EIGENPAIRS:
        path.write_text('{"gamma": 0.5, "T": {"eigenpairs": %s}}' % eigenpairs)
        result = run(capsys, ["classify", "--state", str(path)])
        assert_rejected(result, "expected a list of eigenpairs, each an object with weight and vector")
        assert "Traceback" not in result[2]


#: The longest stderr line a rejected input may produce: a loaded value is
#: shown with at most 40 characters.
MESSAGE_BOUND = 200

HUGE = list(range(100_000))
LONG_KEY = "x" * 100_000
#: Finite amplitudes whose cross inner product has a modulus beyond the
#: float range.
OVERFLOWING_GRAM = {"gamma": 1.0, "T": {"eigenpairs": [
    {"weight": 0.5, "vector": {"1": [1.0, 0.0]}},
    {"weight": 0.5, "vector": {"1": [1.5e308, 1.5e308]}},
]}}
REPEATED_ENTRY = {"scalar": [0.0, 0.0], "compact": [{"row": 1, "col": 1, "amp": [1.0, 0.0]}] * 100_000}


def _eigenvector(vector):
    return {"gamma": 1.0, "T": {"eigenpairs": [{"weight": 1.0, "vector": vector}]}}


@pytest.mark.parametrize(
    "text, message",
    [
        (json.dumps({"gamma": 1.0, "T": list(range(200_000))}), "expected an object with eigenpairs"),
        (json.dumps(_eigenvector(HUGE)), "expected a vector object"),
        (json.dumps(_eigenvector({"#": HUGE})), "expected a [re, im] pair"),
        (json.dumps(_eigenvector({"#": [1.0, 0.0], LONG_KEY: [0.0, 0.0]})), "canonical site integer key"),
        (json.dumps(_eigenvector({"#": [1.0, 0.0], "1" * 100_000: [0.0, 0.0]})), "cannot parse state file"),
        # more digits than int() converts, but fewer than the JSON reader's limit
        (json.dumps(_eigenvector({"#": [1.0, 0.0], "1" * 5000: [0.0, 0.0]})), "canonical site integer key"),
        (json.dumps(HUGE), "expected an object with gamma and T"),
        ('{"%s": 1, "%s": 2}' % (LONG_KEY, LONG_KEY), "duplicate object key"),
        (json.dumps(OVERFLOWING_GRAM), "eigenvectors must be orthonormal"),
    ],
    ids=[
        "T-list", "vector-list", "amplitude-list", "site-key", "digit-key", "long-digit-key", "top-level-list",
        "repeated-key", "overflowing-gram",
    ],
)
def test_classify_shows_a_huge_rejected_value_in_one_short_line(tmp_path, capsys, text, message):
    path = tmp_path / "huge.json"
    path.write_text(text)
    result = run(capsys, ["classify", "--state", str(path)])
    assert_rejected(result, message)
    assert len(result[2]) <= MESSAGE_BOUND, result[2][:200]


def _exchangeability_witness(**fields):
    element = {k: [0.0, 0.0] for k in ("a", "b", "c", "d", "beta")}
    return {"kind": "exchangeability", "word": [[1, element]], "permutation": {"map": {}}, **fields}


def _nfold_witness(**fields):
    factor = BooleanElement({(1, 1): 1.0}).to_json()
    return {"kind": "nfold_factorization", "factors": [factor, factor], "step": "product -> fully_factored",
            **fields}


@pytest.mark.parametrize(
    "witness, message",
    [
        ({"kind": LONG_KEY}, "unknown witness kind"),
        (_nfold_witness(step=HUGE), "step must be a string"),
        (_nfold_witness(factors=[HUGE, HUGE]), "expected an element object"),
        (_nfold_witness(factors=[{"scalar": [0.0, 0.0], "compact": {"row": 1}}] * 2), "expected compact"),
        (_nfold_witness(factors=[{"scalar": [0.0, 0.0], "compact": [{"row": 1}]}] * 2), "expected compact"),
        (_nfold_witness(factors=[REPEATED_ENTRY, REPEATED_ENTRY]), "repeated compact entry"),
        (_exchangeability_witness(word=[[LONG_KEY, {}]]), "site labels are integers"),
        (_exchangeability_witness(word=[[1, HUGE]]), "expected a/b/c/d/beta fields"),
        (_exchangeability_witness(permutation=HUGE), "expected a permutation object"),
        (_exchangeability_witness(permutation={"map": {LONG_KEY: 1}}), "canonical site integer key"),
    ],
    ids=[
        "kind", "step", "factor", "compact-object", "compact-item", "compact-repeat", "word-site", "word-element",
        "permutation", "permutation-key",
    ],
)
def test_replay_shows_a_huge_rejected_value_in_one_short_line(tmp_path, capsys, witness, message):
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"state": state.to_json(), "reports": [{"name": "x", "witness": witness}]}))
    result = run(capsys, ["replay", "--witness", str(path)])
    assert_rejected(result, message)
    assert len(result[2]) <= MESSAGE_BOUND, result[2][:200]


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


#: Valid state files within ORTHO_TOL of the vacuum-overlap boundary: a
#: vacuum amplitude of exactly 1e-10, and a vacuum-only density whose
#: vacuum weight falls 1.8e-10 short of 1.
NEAR_VACUUM_STATES = {
    "amplitude-1e-10": '{"gamma": 1.0, "T": {"eigenpairs": [{"weight": 1.00000000009, '
    '"vector": {"#": [1e-10, 0.0], "1": [1.0, 0.0]}}]}}',
    "amplitude-1e-10-half": '{"gamma": 0.5, "T": {"eigenpairs": [{"weight": 1.00000000009, '
    '"vector": {"#": [1e-10, 0.0], "1": [1.0, 0.0]}}]}}',
    "vacuum-only": '{"gamma": 1.0, "T": {"eigenpairs": [{"weight": 0.99999999991, '
    '"vector": {"#": [0.999999999955, 0.0]}}]}}',
}


@pytest.mark.parametrize("text", NEAR_VACUUM_STATES.values(), ids=NEAR_VACUUM_STATES.keys())
def test_classify_and_replay_near_the_vacuum_boundary(tmp_path, capsys, text):
    state = tmp_path / "state.json"
    state.write_text(text)
    report = tmp_path / "report.json"
    code, _, err = run(capsys, ["classify", "--state", str(state), "--format", "json", "--out", str(report)])
    assert (code, err) == (0, "")
    assert json.loads(report.read_text())["classification"]["consistent"] is True
    code, _, err = run(capsys, ["replay", "--witness", str(report)])
    assert (code, err) == (0, "")


def test_classify_and_replay_a_state_one_ulp_from_the_tolerance(tmp_path, capsys):
    # gamma * T_55 rounds one ulp above 1e-9: every verdict reads that one
    # float, so the state is consistently neither symmetric nor iid, and both
    # failing deciding reports' witnesses reproduce
    gamma, w, s = ONE_ULP_STATE
    state = BooleanState(gamma, TraceClassOperator(((1 - w, vacuum_vector()), (w, site_vector(s)))))
    report = tmp_path / "report.json"
    argv = ["classify", "--state", write_state(tmp_path, state), "--format", "json", "--out", str(report)]
    assert run(capsys, argv) == (0, "", "")
    payload = json.loads(report.read_text())
    verdict = payload["classification"]
    assert [verdict[k] for k in ("symmetric", "expected", "iid", "consistent")] == [False, True, False, True]
    code, out, err = run(capsys, ["replay", "--witness", str(report), "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert sorted(r["kind"] for r in rows if r["reproduced"]) == ["exchangeability", "identical_distribution"]


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


def test_classify_state_directory(tmp_path, capsys):
    assert_rejected(run(capsys, ["classify", "--state", str(tmp_path)]), "cannot read state file")


def test_unwritable_out(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.txt"
    result = run(capsys, ["relations", "--samples", "5", "--out", str(missing)])
    assert_rejected(result, "cannot write output file")


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


def test_sweep_rank_is_limited_by_the_site_pool(capsys):
    # the sampled densities live on the 8-site pool, which holds at most
    # eight orthonormal site vectors
    argv = ["sweep", "--seed", "1", "--samples", "10", "--format", "csv"]
    code, out, err = run(capsys, argv + ["--max-rank", "8"])
    assert (code, err, len(out.splitlines())) == (0, "", 11)
    for rank in ("9", "0"):
        assert_rejected(run(capsys, argv + ["--max-rank", rank]), "max rank")


@pytest.mark.parametrize("tolerance", ["1e-9", "1e-17"])
def test_sweep_formats_render_the_json_table(capsys, tolerance):
    outs = run_formats(capsys, ["sweep", "--seed", "3", "--samples", "12", "--tolerance", tolerance])
    table = json_tokens(outs["json"])
    header = SWEEP_CSV_HEADER.split(",")
    csv = [SWEEP_CSV_HEADER] + [",".join(cells(row, header)) for row in table["rows"]]
    assert outs["csv"].splitlines() == csv
    summary = f"all consistent: {cells(table, ['all_consistent'])[0]} ({len(table['rows'])} states)"
    assert outs["human"].splitlines() == [line.replace(",", "  ") for line in csv] + [summary]


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


def test_sweep_stores_the_state_and_reports_of_an_inconsistent_row(tmp_path, capsys, monkeypatch):
    # a counterexample to the theorem shows only as an inconsistent row,
    # which carries what replay needs; state 3 fails its checks with witnesses
    classify = boolefock.cli.classify_definetti
    calls = []

    def flagged(state, **kwargs):
        result = classify(state, **kwargs)
        calls.append(state)
        return dataclasses.replace(result, consistent=False) if len(calls) == 4 else result

    monkeypatch.setattr(boolefock.cli, "classify_definetti", flagged)
    path = tmp_path / "sweep.json"
    code, _, _ = run(capsys, ["sweep", "--seed", "5", "--samples", "10", "--format", "json", "--out", str(path)])
    assert code == 1
    payload = json.loads(path.read_text())
    assert payload["all_consistent"] is False
    assert [("state" in row, "reports" in row) for row in payload["rows"]] == [(k == 3, k == 3) for k in range(10)]
    row = payload["rows"][3]
    assert BooleanState.from_json(row["state"]) == calls[3]
    witnesses = [(r["name"], r["witness"]["kind"]) for r in row["reports"] if r["witness"] is not None]
    assert witnesses
    code, out, _ = run(capsys, ["replay", "--witness", str(path), "--format", "json"])
    replayed = json.loads(out)["rows"]
    assert code == 0
    assert [(r["report"], r["kind"]) for r in replayed] == witnesses
    assert all(r["reproduced"] for r in replayed)


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


def test_main_calls_in_one_process_are_independent(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; no flag or default leaks between calls
    argv = ["classify", "--state", write_state(tmp_path, vacuum_state()), "--format", "json"]
    configs = []
    for extra, env_seed in (
        (["--seed", "3", "--samples", "40", "--tolerance", "1e-8", "--max-rank", "2"], None),
        ([], "11"),
        (["--samples", "50"], None),
    ):
        if env_seed is None:
            monkeypatch.delenv("BOOLEFOCK_SEED", raising=False)
        else:
            monkeypatch.setenv("BOOLEFOCK_SEED", env_seed)
        code, out, err = run(capsys, argv + extra)
        assert (code, err) == (0, "")
        configs.append(json.loads(out)["config"])
    defaults = {"tolerance": 1e-9, "n_samples": 200, "max_word_len": 5, "max_rank": 4, "output_format": "json"}
    assert configs == [
        {**defaults, "seed": 3, "n_samples": 40, "tolerance": 1e-8, "max_rank": 2},
        {**defaults, "seed": 11},
        {**defaults, "seed": 0, "n_samples": 50},
    ]


def test_a_warm_parser_still_exits_on_help_and_unknown_input(capsys):
    assert main(["relations", "--samples", "5"]) == 0
    capsys.readouterr()
    assert main(["-h"]) == 0
    assert "classify" in capsys.readouterr().out
    assert main(["classify", "-h"]) == 0
    assert "--state" in capsys.readouterr().out
    for argv in (["relations", "--frobnicate"], ["frobnicate"], [], ["classify"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
    assert boolefock.cli.build_parser.cache_info().currsize == 1


def test_importing_the_cli_builds_no_parser():
    src = pathlib.Path(boolefock.cli.__file__).parents[1]
    probe = "import boolefock.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == "0\n"


def test_the_package_runs_without_numpy(tmp_path):
    # numpy is a test dependency only: importing the package and the CLI,
    # and classifying a state whose site scans have distinct values to
    # compare, load no numpy
    src = pathlib.Path(boolefock.cli.__file__).parents[1]
    state = write_state(tmp_path, expected_two_point())
    probe = (
        "import sys, boolefock, boolefock.cli; "
        "code = boolefock.cli.main(['classify', '--state', sys.argv[1], '--out', sys.argv[2]]); "
        "print(code, 'numpy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, state, str(tmp_path / "report.txt")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "0 False\n"


def test_no_module_of_the_package_imports_numpy():
    package = pathlib.Path(boolefock.cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
        assert not [m for m in modules if m.split(".")[0] == "numpy"], path.name


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("BOOLEFOCK_SEED", "not-a-number")
    code, _, err = run(capsys, ["relations"])
    assert code == 2
    assert "BOOLEFOCK_SEED" in err


@pytest.mark.parametrize(
    "env_seed, flags, message",
    [
        ("x" * 3000, [], "BOOLEFOCK_SEED must be an integer"),
        ("1" * 5000, [], "BOOLEFOCK_SEED must be an integer"),
        (None, ["--max-rank", "9" * 3000], "max rank must be between 1 and 8"),
        (None, ["--samples", "-" + "9" * 3000], "samples must be at least 1"),
        (None, ["--max-word-len", "-" + "9" * 3000], "max word length must be at least 1"),
    ],
    ids=["env-seed", "env-seed-digits", "max-rank", "samples", "max-word-len"],
)
def test_a_config_error_shows_a_huge_value_in_one_short_line(capsys, monkeypatch, env_seed, flags, message):
    if env_seed is not None:
        monkeypatch.setenv("BOOLEFOCK_SEED", env_seed)
    result = run(capsys, ["relations", *flags])
    assert_rejected(result, "config error: " + message)
    assert len(result[2]) <= MESSAGE_BOUND, result[2][:200]


def test_classify_rejects_a_state_whose_fresh_site_has_too_many_digits(tmp_path, capsys):
    # a site key of as many digits as int() converts is read, but the
    # fresh site beyond an all-9 key has one digit more, which no report can
    # write; one digit fewer classifies
    limit = sys.get_int_max_str_digits()
    for digits, code in ((limit, 2), (limit - 1, 0)):
        vector = {"9" * digits: [1.0, 0.0]}
        state = {"gamma": 1.0, "T": {"eigenpairs": [
            {"weight": 0.5, "vector": {"#": [1.0, 0.0]}}, {"weight": 0.5, "vector": vector},
        ]}}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state))
        result = run(capsys, ["classify", "--state", str(path), "--samples", "10", "--format", "json"])
        if code == 2:
            assert_rejected(result, f"cannot classify state file: its fresh site has more than {limit} digits")
            assert len(result[2]) <= MESSAGE_BOUND
        else:
            assert (result[0], result[2]) == (0, ""), result[2][:200]
            assert json.loads(result[1])["classification"]["consistent"] is True


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

    # older reports stored phi in the tail witnesses, as the full density or
    # as a site-only one; replay ignores it
    assert "identical_distribution [identical_distribution]" in out
    payload = json.loads(report_path.read_text())
    tail_kinds = {"identical_distribution", "pair_independence", "nfold_factorization"}
    witnesses = [r["witness"] for r in payload["reports"] if r["name"] in tail_kinds and r["witness"]]
    assert witnesses
    site_only = {"kind": "normal", "S": {"eigenpairs": [{"weight": 1.0, "vector": {"2": [1.0, 0.0]}}]}}
    for phi in ({"kind": "normal", "S": payload["state"]["T"]}, site_only):
        for witness in witnesses:
            witness["phi"] = phi
        report_path.write_text(jsonutil.dumps(payload))
        assert run(capsys, ["replay", "--witness", str(report_path)]) == (0, out, "")


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


def _word_number(witness):
    witness["word"] = 5


def _word_triple(witness):
    witness["word"] = [[1, witness["word"][0][1], 3]]


def _word_object(witness):
    witness["word"] = {"1": witness["word"][0][1]}


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # a fractional site would otherwise be truncated to a neighbouring site
        (_fractional_word_site, "site"),
        (_fractional_permutation_site, "site"),
        (_non_canonical_permutation_key, "canonical"),
        (_permutation_map_list, "permutation"),
        (_word_number, "list of [site, element] pairs, got 5"),
        (_word_triple, "list of [site, element] pairs, got [[1, {"),
        (_word_object, "list of [site, element] pairs, got {'1': {"),
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


def test_replay_not_reproduced_on_another_state(tmp_path, capsys):
    state = BooleanState(1.0, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))))
    report_path = saved_report(tmp_path, capsys, state)
    payload = json.loads(report_path.read_text())
    payload["state"] = vacuum_state().to_json()
    report_path.write_text(jsonutil.dumps(payload))
    code, out, err = run(capsys, ["replay", "--witness", str(report_path)])
    assert code == 1
    assert err == ""
    # the vacuum is exchangeable, and identically distributed under its own phi
    assert "exchangeability [exchangeability]: lhs=0 rhs=0 NOT reproduced" in out.splitlines()
    ident = [line for line in out.splitlines() if line.startswith("identical_distribution")]
    assert len(ident) == 1 and ident[0].endswith(" NOT reproduced")


def rotated_nonexpected():
    """Not expected: the vacuum is split across two orthogonal eigenvectors."""
    u = FockVector(0.6, {2: 0.8})
    v = FockVector(0.8, {2: -0.6})
    return BooleanState(1.0, TraceClassOperator(((0.6, u), (0.4, v))))


def expected_two_point():
    return BooleanState(1.0, TraceClassOperator(((0.5, vacuum_vector()), (0.5, site_vector(2)))))


def test_replay_coherence_witness_on_an_expected_state(tmp_path, capsys):
    # the coherence identity is posed on every state: on an expected one
    # its sides agree within tol, so it reads NOT reproduced with numeric
    # sides, and the payload is not malformed
    report_path = saved_report(tmp_path, capsys, rotated_nonexpected())
    payload = json.loads(report_path.read_text())
    payload["state"] = expected_two_point().to_json()
    report_path.write_text(jsonutil.dumps(payload))
    code, out, err = run(capsys, ["replay", "--witness", str(report_path)])
    assert (code, err) == (1, "")
    line = "preserving_expectation_exists [coherence]: lhs=0 rhs=0 NOT reproduced"
    assert line in out.splitlines()


def test_replay_coherence_witness_on_a_state_with_gamma_zero(tmp_path, capsys):
    # gamma = 0 makes the state expected whatever T is: it reads no compact,
    # so both sides of the witness are 0
    s = 1 / math.sqrt(2)
    density = TraceClassOperator.rank_one(FockVector(s, {1: s}))
    report_path = saved_report(tmp_path, capsys, BooleanState(1.0, density))
    payload = json.loads(report_path.read_text())
    payload["state"] = BooleanState(0.0, density).to_json()
    report_path.write_text(jsonutil.dumps(payload))
    code, out, err = run(capsys, ["replay", "--witness", str(report_path)])
    assert (code, err) == (1, "")
    line = "preserving_expectation_exists [coherence]: lhs=0 rhs=0 NOT reproduced"
    assert line in out.splitlines()


#: JSON numbers that are not finite floats, by test id.
NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e999": "1e999", "int-400-digits": "1" + "0" * 400}
NON_FINITE_NUMBERS = pytest.mark.parametrize("number", list(NON_FINITE.values()), ids=list(NON_FINITE))


@NON_FINITE_NUMBERS
@pytest.mark.parametrize("field", ["gamma", "weight", "amplitude"])
def test_classify_rejects_non_finite_number(tmp_path, capsys, field, number):
    # an integer too large for a float counts as non-finite where a float is read
    values = {"gamma": "1.0", "weight": "1.0", "amplitude": "1.0", field: number}
    text = (
        '{"gamma": %(gamma)s, "T": {"eigenpairs": '
        '[{"weight": %(weight)s, "vector": {"#": [%(amplitude)s, 0.0]}}]}}'
    )
    path = tmp_path / "state.json"
    path.write_text(text % values)
    result = run(capsys, ["classify", "--state", str(path)])
    assert_rejected(result, "finite")
    assert len(result[2].strip()) < 120  # the rejected value is shortened


@pytest.mark.parametrize(
    "kind, number",
    [pytest.param("exchangeability", number, id=f"exchangeability-{name}") for name, number in NON_FINITE.items()]
    # an integer of any size is a site label, so a site is corrupted only by the float forms
    + [pytest.param("coherence", number, id=f"coherence-{name}") for name, number in NON_FINITE.items() if "int" not in name],
)
def test_replay_rejects_non_finite_number(tmp_path, capsys, kind, number):
    state = expected_two_point() if kind == "exchangeability" else rotated_nonexpected()
    payload = json.loads(saved_report(tmp_path, capsys, state).read_text())
    witness = {r["witness"]["kind"]: r["witness"] for r in payload["reports"] if r["witness"]}[kind]
    if kind == "exchangeability":
        witness["word"][0][1]["a"][0] = "NUMBER"
    else:
        witness["site"] = "NUMBER"
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(payload).replace('"NUMBER"', number))
    result = run(capsys, ["replay", "--witness", str(path)])
    assert_rejected(result, "finite")
    assert len(result[2].strip()) < 120


@pytest.mark.parametrize("d, length", [([1e300, 0.0], 2), ([1.5e308, 1.5e308], 1)], ids=["inf", "magnitude"])
def test_replay_rejects_a_witness_that_overflows(tmp_path, capsys, d, length):
    # finite amplitudes whose moment overflows, or whose moment has finite
    # parts but too large a magnitude: the message names the witness
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    payload = json.loads(saved_report(tmp_path, capsys, state).read_text())
    witness = next(r["witness"] for r in payload["reports"] if r["name"] == "exchangeability")
    huge = {"a": d, "b": [0.0, 0.0], "c": [0.0, 0.0], "d": d, "beta": [0.0, 0.0]}
    witness["word"] = [[1, huge]] * length
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(payload))
    assert_rejected(run(capsys, ["replay", "--witness", str(path)]), "exchangeability witness")


def nfold_payload(tmp_path, state, site, amp, count=2, step="product -> fully_factored"):
    """A saved n-fold witness on ``state`` whose ``count`` factors are
    ``amp * eps(site, site)``, so a product of k of them reads ``amp**k``
    there."""
    factor = BooleanElement({(site, site): amp}).to_json()
    witness = {
        "kind": "nfold_factorization",
        "blocks": [[site]] * count,
        "factors": [factor] * count,
        "step": step,
        "lhs": [0.0, 0.0],
        "rhs": [0.0, 0.0],
    }
    report = {"name": "pair_independence", "witness": witness}
    path = tmp_path / "nfold.json"
    path.write_text(jsonutil.dumps({"state": state.to_json(), "reports": [report]}))
    return path


def test_replay_rejects_an_nfold_witness_that_overflows_on_the_rows(tmp_path, capsys):
    # T has a row at site 1, where the product of the factors overflows
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    path = nfold_payload(tmp_path, state, 1, 1e200)
    assert_rejected(run(capsys, ["replay", "--witness", str(path)]), "nfold_factorization witness")


def test_replay_reads_an_overflow_off_the_rows_as_zero(tmp_path, capsys):
    # T has no row at site 5: neither psi nor phi reads the overflowing
    # entry there, so it counts as the zero of T it meets, and both sides
    # are 0 on every line; three factors form the suffix x_2 x_3, whose
    # conditional expectation feeds stage 1
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    for count, step in (
        (2, "product -> fully_factored"),
        (3, "product -> stage1_factorized"),
        (3, "stage1_factorized -> fully_factored"),
    ):
        path = nfold_payload(tmp_path, state, 5, 1e200, count, step)
        code, out, err = run(capsys, ["replay", "--witness", str(path), "--format", "json"])
        assert (code, err) == (1, ""), (count, step)
        assert json.loads(out)["rows"] == [{
            "report": "pair_independence", "kind": "nfold_factorization", "lhs": 0, "rhs": 0, "reproduced": False,
        }]


def test_replay_rejects_an_nfold_step_that_names_a_removed_line(tmp_path, capsys):
    # the n-fold chain once had stage{t}_preserved lines; a witness naming
    # one is malformed
    xi = FockVector(0j, {2: 2 ** -0.5, 3: 2 ** -0.5})
    state = BooleanState(0.6, TraceClassOperator(((0.3, vacuum_vector()), (0.7, xi))))
    witness = check_nfold_factorization(preserving_phi(state), n=3, seed=1).witness
    path = tmp_path / "nfold.json"
    for step, code in ((witness["step"], 0), ("stage1_factorized -> stage1_preserved", 2)):
        report = {"name": "nfold_factorization", "witness": dict(witness, step=step)}
        path.write_text(jsonutil.dumps({"state": state.to_json(), "reports": [report]}))
        result = run(capsys, ["replay", "--witness", str(path)])
        assert result[0] == code, result
    assert_rejected(result, "stage1_preserved")


@pytest.mark.parametrize("tolerance", ["1e-9", "1e-300"])
def test_replay_formats_render_the_json_rows(tmp_path, capsys, tolerance):
    # a genuine report, and a coherence witness replayed on an expected state
    records = []
    for state in (expected_two_point(), rotated_nonexpected()):
        records.append(json.loads(saved_report(tmp_path, capsys, state).read_text()))
    records[1]["state"] = expected_two_point().to_json()
    path = tmp_path / "rows.json"
    path.write_text(jsonutil.dumps({"rows": records}))
    outs = run_formats(capsys, ["replay", "--witness", str(path), "--tolerance", tolerance])
    table = json_tokens(outs["json"])
    header = ["report", "kind", "lhs", "rhs", "reproduced"]
    rows = [cells(row, header) for row in table["rows"]]
    assert len(rows) == 4 and table["all_reproduced"] is False
    assert outs["csv"].splitlines() == [",".join(header)] + [",".join(row) for row in rows]
    verdict = {"true": "reproduced", "false": "NOT reproduced"}
    human = [
        f"{report} [{kind}]: lhs={lhs} rhs={rhs} {verdict[ok]}" for report, kind, lhs, rhs, ok in rows
    ]
    assert outs["human"].splitlines() == human


def _report_witness(payload, value):
    payload["reports"][0]["witness"] = value
    return payload


@pytest.mark.parametrize(
    "reshape, message",
    [
        (lambda payload: 5, "object"),
        (lambda payload: [payload], "object"),
        (lambda payload: {"rows": 5}, "rows"),
        (lambda payload: {"rows": [5]}, "rows"),
        (lambda payload: {"rows": [dict(payload, reports=3)]}, "reports"),
        (lambda payload: dict(payload, reports=[3]), "reports"),
        (lambda payload: dict(payload, reports="abc"), "reports"),
        (lambda payload: _report_witness(payload, [1]), "witness"),
        (lambda payload: _report_witness(payload, dict(payload["reports"][0]["witness"], kind=[1])), "kind"),
        (lambda payload: dict(payload, state=OVERFLOWING_GRAM), "eigenvectors must be orthonormal"),
    ],
    ids=[
        "payload-int", "payload-list", "rows-int", "row-int", "row-reports-int", "report-int",
        "reports-str", "witness-list", "witness-kind-list", "overflowing-gram",
    ],
)
def test_replay_rejects_malformed_payload_shape(tmp_path, capsys, reshape, message):
    state = BooleanState(1.0, TraceClassOperator.rank_one(site_vector(1)))
    report_path = saved_report(tmp_path, capsys, state)
    report_path.write_text(json.dumps(reshape(json.loads(report_path.read_text()))))
    result = run(capsys, ["replay", "--witness", str(report_path)])
    assert_rejected(result, "malformed witness payload")
    assert message in result[2]


def test_replay_witness_directory(tmp_path, capsys):
    assert_rejected(run(capsys, ["replay", "--witness", str(tmp_path)]), "cannot read witness file")


def test_replay_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["replay", "--witness", str(path)])
    assert code == 2
    assert "parse" in err


@pytest.mark.parametrize("command, flag", [("classify", "--state"), ("replay", "--witness")])
def test_rejects_deeply_nested_json(tmp_path, capsys, command, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert_rejected(run(capsys, [command, flag, str(path)]), "cannot parse")


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_cli_imports_no_checker_math():
    # the CLI parses, dispatches and renders; identities live in verify
    tree = ast.parse(pathlib.Path(boolefock.cli.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import starts in the package
            base = ".".join(filter(None, ["boolefock" if node.level else "", node.module]))
            modules += [f"{base}.{a.name}" for a in node.names] if base == "boolefock" else [base]
    imported = {m.split(".")[1] for m in modules if m.startswith("boolefock.")}
    assert imported <= {"jsonutil", "sampling", "states", "verify"}, imported


#: Parsers that check every field themselves and then wrap the checked
#: values canonically; ``test_serialization.py`` holds each to what the
#: validating constructor builds and rejects.
SELF_CHECKING_PARSERS = {"algebra.py:FockVector.from_json"}


def test_outside_input_never_skips_validation():
    # the canonical constructors trust their fields; whatever parses input
    # from outside the program must go through the validating ones, or
    # check each field itself and be named in SELF_CHECKING_PARSERS
    package = pathlib.Path(boolefock.cli.__file__).parent
    boundaries = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name in ("cli.py", "jsonutil.py"):
            boundaries.append((path.name, tree))
        owners = {
            method: f"{node.name}." for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for method in node.body
        }
        boundaries += [
            (f"{path.name}:{owners.get(node, '')}{node.name}", node)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name.endswith("from_json")
        ]
    assert len(boundaries) > 2  # the two modules and at least one parser
    canonical = set()
    for where, tree in boundaries:
        names = {
            node.attr if isinstance(node, ast.Attribute) else node.id
            for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))
        }
        if "_canonical" in names:
            canonical.add(where)
    assert canonical == SELF_CHECKING_PARSERS


def test_replay_rejects_a_saved_pair_witness(tmp_path, capsys):
    # older reports stored the pair witness as sites_x, sites_y, x and y under
    # its own kind; replay no longer reads that form, on either tail branch
    xi = FockVector(0j, {2: 2 ** -0.5, 3: 2 ** -0.5})
    state = BooleanState(1.0, TraceClassOperator(((0.3, vacuum_vector()), (0.7, xi))))
    path = saved_report(tmp_path, capsys, state)
    payload = json.loads(path.read_text())
    report = next(r for r in payload["reports"] if r["name"] == "pair_independence")
    witness = report["witness"]
    (sites_x, sites_y), (x, y) = witness["blocks"], witness["factors"]
    report["witness"] = {
        "kind": "pair_independence",
        "sites_x": sites_x,
        "sites_y": sites_y,
        "x": x,
        "y": y,
        "lhs": witness["lhs"],
        "rhs": witness["rhs"],
    }
    for saved in (state, rotated_nonexpected()):
        payload["state"] = saved.to_json()
        path.write_text(jsonutil.dumps(payload))
        assert_rejected(run(capsys, ["replay", "--witness", str(path)]), "unknown witness kind 'pair_independence'")


def test_replay_rejects_a_saved_ratio_witness(tmp_path, capsys):
    # older reports witnessed the non-expected branch by a contraction ratio
    # under its own kind, as stored here for this state; replay no longer
    # reads that form
    path = saved_report(tmp_path, capsys, rotated_nonexpected())
    payload = json.loads(path.read_text())
    report = next(r for r in payload["reports"] if r["name"] == "preserving_expectation_exists")
    element = BooleanElement({("#", "#"): 0.6, ("#", 2): 0.8})
    report["witness"] = {"kind": "expectation_ratio", "ratio": 0.7866666666666668, "element": element.to_json()}
    path.write_text(jsonutil.dumps(payload))
    assert_rejected(run(capsys, ["replay", "--witness", str(path)]), "unknown witness kind 'expectation_ratio'")


@pytest.mark.parametrize("what", ["state", "witness"])
def test_an_integer_beyond_the_digit_limit_is_rejected(tmp_path, capsys, what):
    # 5001 digits, more than int() converts from text: the message shows the
    # literal cut short and names no interpreter setting
    digits = "1" * 5001
    if what == "state":
        path = tmp_path / "state.json"
        path.write_text(jsonutil.dumps(vacuum_state().to_json()).replace('"gamma": 1', '"gamma": ' + digits))
        argv = ["classify", "--state", str(path)]
    else:
        path = saved_report(tmp_path, capsys, rotated_nonexpected())
        payload = json.loads(path.read_text())
        report = next(r for r in payload["reports"] if r["name"] == "preserving_expectation_exists")
        assert report["witness"]["kind"] == "coherence"
        report["witness"]["site"] = 7654321
        path.write_text(jsonutil.dumps(payload).replace('"site": 7654321', '"site": ' + digits))
        argv = ["replay", "--witness", str(path)]
    assert digits in path.read_text()
    result = run(capsys, argv)
    assert_rejected(result, f"cannot parse {what} file: integer literal with too many digits: '111")
    assert "set_int_max_str_digits" not in result[2]
    assert len(result[2]) <= MESSAGE_BOUND


def test_replay_rejects_a_malformed_tail_witness_on_either_branch(tmp_path, capsys):
    # a bad site, unknown step labels, a step with no arrow and a single
    # factor are parse errors whether or not the state poses tail identities,
    # and so is a coherence site that is not an integer >= 1 (its non-finite
    # forms fail to parse; see test_replay_rejects_non_finite_number)
    xi = FockVector(0j, {2: 2 ** -0.5, 3: 2 ** -0.5})
    expected = BooleanState(0.6, TraceClassOperator(((0.3, vacuum_vector()), (0.7, xi))))
    nfold = check_nfold_factorization(preserving_phi(expected), n=3, seed=1).witness
    element = {"a": [1.0, 0.0], "b": [0.0, 0.0], "c": [0.0, 0.0], "d": [0.0, 0.0], "beta": [0.0, 0.0]}
    malformed = [
        {"kind": "identical_distribution", "site_i": 0, "site_k": 1, "element": element},
        dict(nfold, step="foo -> bar"),
        dict(nfold, step="product"),
        dict(nfold, factors=nfold["factors"][:1], step="product -> fully_factored"),
        *({"kind": "coherence", "site": site, "lhs": [0.0, 0.0], "rhs": [0.0, 0.0]} for site in (0, -1, True, 1.5, "1", "#")),
    ]
    path = tmp_path / "malformed.json"
    for state in (expected, rotated_nonexpected()):
        for witness in malformed:
            report = {"name": witness["kind"], "witness": witness}
            path.write_text(jsonutil.dumps({"state": state.to_json(), "reports": [report]}))
            result = run(capsys, ["replay", "--witness", str(path)])
            assert_rejected(result, "malformed witness payload")
