"""``tools/bench_pairs.py`` pairs and summarises benchmark result lines."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

END_TO_END = [
    {"name": "states_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "state_ms.p50", "unit": "ms", "better": "lower", "bound": 0.2},
]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def untraced(side, workload, seed, rate, p50, failed=0):
    result = {"correct": not failed, "attempted": 100, "failed": failed, "metrics": {
        "states_per_s": {"value": rate, "unit": "1/s"},
        "state_ms.p50": {"value": p50, "unit": "ms"},
        "state_ms.p90": {"value": 2 * p50, "unit": "ms"},
        "setup_s": {"value": 0.2, "unit": "s"},
        "peak_rss_mib": {"value": 35.0, "unit": "MiB"},
    }}
    return {"side": side, "workload": workload, "seed": seed, "trace": 0, "result": result}


def traced(side, seed, calls, incl_s):
    result = {"correct": True, "attempted": 80, "failed": 0, "metrics": {
        "tail.cond_expect.calls": {"value": calls, "unit": "count"},
        "verify.check_exchangeable.incl_s": {"value": incl_s, "unit": "s"},
    }}
    return {"side": side, "workload": "sweep-c8", "seed": seed, "trace": 1, "result": result}


def canned_records():
    # five sweep pairs logged out of seed order, one seed with no parent run,
    # one classify pair, and two traced pairs
    rates = {1: (200.0, 290.0), 2: (210.0, 280.0), 3: (205.0, 300.0), 4: (190.0, 185.0), 5: (220.0, 310.0)}
    records = []
    for seed in (3, 1, 5, 2, 4):
        parent, change = rates[seed]
        records.append(untraced("parent", "sweep-c8", seed, parent, 1000.0 / parent))
        records.append(untraced("change", "sweep-c8", seed, change, 1000.0 / change, failed=seed == 4))
    records.append(untraced("change", "sweep-c8", 6, 999.0, 1.0))
    records.append(untraced("change", "classify-deep", 9, 60.0, 16.0))
    records.append(untraced("parent", "classify-deep", 9, 50.0, 19.0))
    for seed, (parent, change) in {7: (0.76, 0.43), 8: (0.80, 0.45)}.items():
        records.append(traced("parent", seed, 3860, parent))
        records.append(traced("change", seed, 3860, change))
    return records


def test_aggregate_pairs_runs_by_seed_and_summarises_each_metric():
    tool = load_tool()
    summary = tool.aggregate(canned_records(), END_TO_END)
    # seed 6 has no parent run, so it is left out
    assert summary["seeds"]["sweep-c8"] == [1, 2, 3, 4, 5]
    rate = summary["workloads"]["sweep-c8"]["states_per_s"]
    assert rate["parent_runs"] == [200.0, 210.0, 205.0, 190.0, 220.0]
    assert rate["change_runs"] == [290.0, 280.0, 300.0, 185.0, 310.0]
    assert rate["parent"] == {"median": 205.0, "q1": 200.0, "q3": 210.0}
    assert rate["change"] == {"median": 290.0, "q1": 280.0, "q3": 300.0}
    assert (rate["unit"], rate["better"], rate["change_wins"]) == ("1/s", "higher", 4)
    assert rate["relative_change"] == pytest.approx(290.0 / 205.0 - 1)
    # a lower-is-better metric wins where the change is smaller
    p50 = summary["workloads"]["sweep-c8"]["state_ms.p50"]
    assert (p50["better"], p50["change_wins"]) == ("lower", 4)
    assert summary["pairs"]["sweep-c8"] == 5
    assert summary["failed"]["sweep-c8"] == {"parent": 0, "change": 1}


def test_aggregate_keeps_a_single_pair_and_the_traced_runs():
    tool = load_tool()
    summary = tool.aggregate(canned_records(), END_TO_END)
    assert summary["seeds"] == {"sweep-c8": [1, 2, 3, 4, 5], "classify-deep": [9]}
    deep = summary["workloads"]["classify-deep"]["states_per_s"]
    assert (deep["parent"]["median"], deep["change"]["median"], deep["change_wins"]) == (50.0, 60.0, 1)
    sweep = summary["traced"]["sweep-c8"]
    assert sweep["command"] == "python3 perfbench/run.py --workload sweep-c8 --seed N --seconds 10 --trace 1"
    assert sweep["seeds"] == [7, 8]
    assert sweep["metrics"]["tail.cond_expect.calls"] == {"unit": "count", "parent": [3860, 3860], "change": [3860, 3860]}
    assert sweep["metrics"]["verify.check_exchangeable.incl_s"]["change"] == [0.43, 0.45]
    assert "classify-deep" not in summary["traced"]


def series(rates, p50s=None):
    """Untraced sweep-c8 pairs, one per ``(parent, change)`` rate, seeds
    from 1; p50s default to 1000 / rate."""
    records = []
    for seed, (parent, change) in enumerate(rates, 1):
        p50 = p50s[seed - 1] if p50s else (1000.0 / parent, 1000.0 / change)
        records.append(untraced("parent", "sweep-c8", seed, parent, p50[0]))
        records.append(untraced("change", "sweep-c8", seed, change, p50[1]))
    return records


CLAIM = {"workload": "sweep-c8", "metric": "states_per_s"}


def test_the_claim_rule_needs_nine_wins_in_ten_and_a_gap_past_the_parent_iqr():
    tool = load_tool()
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    # parent q1 102.25, median 104.5, q3 106.75: an IQR of 4.5
    nine_wins = [(p, p + 10.0) for p in parent[:9]] + [(parent[9], parent[9] - 1.0)]
    verdict = tool.aggregate(series(nine_wins), END_TO_END, CLAIM)["claimed"]
    assert verdict["change_wins"] == 9 and verdict["pairs"] == 10
    assert verdict["parent_iqr"] == pytest.approx(4.5)
    assert verdict["median_gap"] > verdict["parent_iqr"]
    assert verdict == dict(verdict, **CLAIM, meets_claim_rule=True)
    # eight wins in ten fail, however wide the gap
    eight_wins = nine_wins[:8] + [(parent[8], parent[8] - 1.0), nine_wins[9]]
    verdict = tool.aggregate(series(eight_wins), END_TO_END, CLAIM)["claimed"]
    assert (verdict["change_wins"], verdict["meets_claim_rule"]) == (8, False)
    # ten wins fail where the median gap is within the parent's IQR
    narrow = [(p, p + 0.5) for p in parent]
    verdict = tool.aggregate(series(narrow), END_TO_END, CLAIM)["claimed"]
    assert verdict["change_wins"] == 10
    assert verdict["median_gap"] == pytest.approx(0.5)
    assert not verdict["meets_claim_rule"]
    # a lower-is-better claim reads its gap downwards
    p50s = [(10.0 + k, 5.0 + k) for k in range(10)]
    verdict = tool.aggregate(series(narrow, p50s), END_TO_END, {"workload": "sweep-c8", "metric": "state_ms.p50"})["claimed"]
    assert (verdict["change_wins"], verdict["median_gap"], verdict["meets_claim_rule"]) == (10, 5.0, True)
    # no claim, no verdict
    assert "claimed" not in tool.aggregate(series(narrow), END_TO_END)


def test_each_metric_records_whether_the_change_is_within_its_bound():
    tool = load_tool()
    # a higher-is-better rate may fall by 20% of the parent's median, and a
    # lower-is-better latency rise by 20%, and no further
    for change, p50, rate_within, p50_within in (
        (81.0, 11.9, True, True),
        (80.0, 12.0, True, True),
        (79.0, 12.5, False, False),
        (150.0, 5.0, True, True),
    ):
        table = tool.aggregate(series([(100.0, change)] * 3, [(10.0, p50)] * 3), END_TO_END)["workloads"]["sweep-c8"]
        assert (table["states_per_s"]["within_bound"], table["state_ms.p50"]["within_bound"]) == (rate_within, p50_within)
        assert table["states_per_s"]["bound"] == 0.2


def test_the_parent_runs_first_on_odd_seeds():
    tool = load_tool()
    assert tool.order(21101) == ("parent", "change")
    assert tool.order(21102) == ("change", "parent")
    assert tool.parse_seeds("sweep-c8:21101-21103") == ("sweep-c8", [21101, 21102, 21103])
    assert tool.parse_seeds("sweep-c8:7,9") == ("sweep-c8", [7, 9])


def test_clear_bytecode_removes_every_cache_and_nothing_else(tmp_path):
    tool = load_tool()
    for tree in ("a", "b"):
        for cache in ("src/pkg/__pycache__", "perfbench/__pycache__", "__pycache__"):
            (tmp_path / tree / cache).mkdir(parents=True, exist_ok=True)
            (tmp_path / tree / cache / "m.cpython-311.pyc").write_bytes(b"")
        (tmp_path / tree / "src" / "pkg" / "m.py").write_text("")
    tool.clear_bytecode([tmp_path / "a", tmp_path / "b"])
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert left == ["a/src/pkg/m.py", "b/src/pkg/m.py"]


def test_a_series_runs_each_pair_for_the_benchmark_run_length(tmp_path, monkeypatch):
    tool = load_tool()
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    calls = []

    def fake_run(tree, workload, seed, seconds, trace):
        calls.append((tree, seed, seconds, trace))
        return untraced("parent", workload, seed, 100.0, 10.0)["result"]

    monkeypatch.setattr(tool, "run_side", fake_run)
    monkeypatch.setattr(tool, "clear_bytecode", lambda trees: None)
    out = tmp_path / "bench.json"
    argv = ["P", "C", "--pairs", "sweep-c8:3-4", "--traced", "classify-deep:5",
            "--claim", "sweep-c8:states_per_s", "--out", str(out)]
    assert tool.main(argv) == 0
    # seed 4 runs the change first
    assert calls == [("P", 3, run_seconds, 0), ("C", 3, run_seconds, 0),
                     ("C", 4, run_seconds, 0), ("P", 4, run_seconds, 0),
                     ("P", 5, tool.TRACED_SECONDS, 1), ("C", 5, tool.TRACED_SECONDS, 1)]
    summary = json.loads(out.read_text())
    assert {key: summary["claimed"][key] for key in ("workload", "metric", "pairs", "meets_claim_rule")} == {
        "workload": "sweep-c8", "metric": "states_per_s", "pairs": 2, "meets_claim_rule": False,
    }
    assert summary["seeds"] == {"sweep-c8": [3, 4]}
    assert summary["traced"]["classify-deep"]["seeds"] == [5]


@pytest.mark.parametrize(
    "claim, message",
    [
        ("sweep-c9:states_per_s", "workload 'sweep-c9'"),
        ("classify-wide:states_per_s", "workload 'classify-wide'"),
        ("sweep-c8:state_per_s", "metric 'state_per_s'"),
        ("sweep-c8:fock.embed.calls", "metric 'fock.embed.calls'"),
        ("sweep-c8", "metric ''"),
    ],
)
def test_a_claim_off_the_series_exits_2_before_any_run(tmp_path, monkeypatch, capsys, claim, message):
    tool = load_tool()
    calls = []
    monkeypatch.setattr(tool, "run_side", lambda *args: calls.append(args))
    monkeypatch.setattr(tool, "clear_bytecode", lambda trees: calls.append(trees))
    out = tmp_path / "bench.json"
    argv = ["P", "C", "--pairs", "sweep-c8:3-4", "--traced", "classify-wide:5", "--claim", claim, "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        tool.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_a_metric_is_unresolved_where_the_spread_exceeds_its_bound_and_the_runs_overlap():
    tool = load_tool()

    def rate(pairs):
        return tool.aggregate(series(pairs), END_TO_END)["workloads"]["sweep-c8"]["states_per_s"]

    # parent runs 80..120: q1 90, median 100, q3 110, a spread of 20% of the
    # median; the change's own runs are tight
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]
    # the bound of 0.2 is not exceeded: resolved, however the runs overlap
    entry = rate([(p, 100.0 + k) for k, p in enumerate(parent)])
    assert entry["spread"] == pytest.approx(0.2)
    assert entry["unresolved"] is False
    # a wider parent spread with overlapping runs is unresolved, although
    # the medians are within the bound
    wide = [70.0, 85.0, 100.0, 115.0, 130.0]
    entry = rate([(p, 100.0 + k) for k, p in enumerate(wide)])
    assert entry["spread"] == pytest.approx(0.3)
    assert (entry["within_bound"], entry["unresolved"]) == (True, True)
    # the same spread is resolved where every change run beats every parent run
    entry = rate([(p, 131.0 + k) for k, p in enumerate(wide)])
    assert entry["unresolved"] is False
    # the wider side sets the spread: a noisy change over a tight parent
    entry = rate([(100.0, c) for c in wide])
    assert entry["spread"] == pytest.approx(0.3)
    assert entry["unresolved"] is True
    # a lower-is-better metric beats every parent run from below
    p50s = [(p / 10.0, 6.9 - k / 100.0) for k, p in enumerate(wide)]
    entry = tool.aggregate(series([(100.0, 100.0)] * 5, p50s), END_TO_END)["workloads"]["sweep-c8"]["state_ms.p50"]
    assert entry["spread"] == pytest.approx(0.3)
    assert entry["unresolved"] is False
    p50s[0] = (7.0, 7.5)
    entry = tool.aggregate(series([(100.0, 100.0)] * 5, p50s), END_TO_END)["workloads"]["sweep-c8"]["state_ms.p50"]
    assert entry["unresolved"] is True
