"""``tools/report_corpus.py`` writes a deterministic corpus."""

import filecmp
import hashlib
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("report_corpus", ROOT / "tools" / "report_corpus.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_corpus_is_complete_and_deterministic(tmp_path):
    # a small corpus of the same layout, written twice; the third state of a
    # seed is the first on the non-expected branch
    tool = load_tool()
    sweep = ("--seed", "42", "--samples", "5", "--max-rank", "6", "--max-word-len", "5", "--tolerance", "1e-9")
    runs = [tool.write_corpus(str(tmp_path / name), sweep, seeds=(1,), states_per_seed=3) for name in "ab"]
    assert runs[0] == runs[1]
    names = [name for name, _ in runs[0]]
    assert names[:2] == ["sweep.json", "sweep.csv"]
    assert len(names) == 2 + 2 * 3 * 2
    assert all(code == 0 for _, code in runs[0])
    files = sorted(str(p.relative_to(tmp_path / "a")) for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert len(files) == len(names) + 6 + 3  # the state files, exit_codes.txt, verdicts.txt and fields.txt
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", files, shallow=False)
    assert (mismatch, errors) == ([], [])
    codes = dict(runs[0])
    for workload in tool.CLASSIFY_WORKLOADS:
        stem = f"{workload}/1-2"
        report = json.loads((tmp_path / "a" / f"{stem}.report.json").read_text())
        assert report["classification"]["expected"] is False
        exists = next(r for r in report["reports"] if r["name"] == "preserving_expectation_exists")
        assert exists["witness"]["kind"] == "coherence"
        assert codes[f"{stem}.replay.json"] == 0


def test_verdicts_list_the_four_flags_of_every_row_and_report(tmp_path):
    # one line per sweep row, then one per classify report, read back from
    # the reports the corpus holds
    tool = load_tool()
    sweep = ("--seed", "42", "--samples", "5", "--max-rank", "6", "--max-word-len", "5", "--tolerance", "1e-9")
    tool.write_corpus(str(tmp_path), sweep, seeds=(1, 2), states_per_seed=2)
    rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
    want = [(f"sweep.json:{k}", row) for k, row in enumerate(rows)]
    for workload in tool.CLASSIFY_WORKLOADS:
        for seed in (1, 2):
            for index in range(2):
                name = f"{workload}/{seed}-{index}.report.json"
                want.append((name, json.loads((tmp_path / name).read_text())["classification"]))
    flags = ("symmetric", "expected", "iid", "consistent")
    assert tool.FLAGS == flags
    lines = (tmp_path / "verdicts.txt").read_text().splitlines()
    assert lines == [" ".join([name, *(json.dumps(verdict[f]) for f in flags)]) for name, verdict in want]
    assert {line.split()[1] for line in lines} == {"true", "false"}


def test_fields_digest_every_field_of_every_row_and_report(tmp_path):
    # one line per field of each sweep row, then per field of each classify
    # report's classification and of each of its check reports, in order
    tool = load_tool()
    sweep = ("--seed", "42", "--samples", "5", "--max-rank", "6", "--max-word-len", "5", "--tolerance", "1e-9")
    tool.write_corpus(str(tmp_path), sweep, seeds=(1,), states_per_seed=3)
    want = [("sweep.json", str(k), row) for k, row in enumerate(json.loads((tmp_path / "sweep.json").read_text())["rows"])]
    for workload in tool.CLASSIFY_WORKLOADS:
        for index in range(3):
            name = f"{workload}/1-{index}.report.json"
            report = json.loads((tmp_path / name).read_text())
            want.append((name, "classification", report["classification"]))
            want += [(name, check["name"], check) for check in report["reports"]]
    lines = [line.split(" ") for line in (tmp_path / "fields.txt").read_text().splitlines()]
    assert [line[:3] for line in lines] == [[name, label, field] for name, label, record in want for field in record]
    values = [value for _, _, record in want for value in record.values()]
    for (_, _, _, digest), value in zip(lines, values):
        assert len(digest) == 12 and digest == hashlib.sha1(tool.jsonutil.dumps(value).encode()).hexdigest()[:12]
    labels = {label for _, label, _ in want}
    assert {"classification", "exchangeability", "preserving_expectation_exists", "identical_distribution"} <= labels
    assert {field for _, label, field, _ in lines if label == "exchangeability"} == {
        "name", "passed", "max_deviation", "samples_run", "witness"
    }
