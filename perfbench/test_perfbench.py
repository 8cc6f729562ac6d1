"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

They run every workload at a tiny size and take well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("sweep-c8", "classify-wide", "classify-deep")
END_TO_END_SUMMARY = (
    ("states_per_s", "1/s"),
    ("state_ms.p50", "ms"),
    ("state_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("failed_fraction", "ratio"),
)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_one_command_runs_every_workload_at_a_tiny_size():
    done = _bench("--workload", "all", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--min-states", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    starts = [k for k, line in enumerate(lines) if line.split()[:1] in ([w] for w in WORKLOADS)]
    assert [lines[k].split()[0] for k in starts] == list(WORKLOADS)
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    for k, end in zip(starts, starts[1:] + [len(lines)]):
        block = lines[k:end]
        for name, unit in END_TO_END_SUMMARY:
            assert any(line.split()[:1] == [name] and f" {unit}" in line for line in block), name
        result = json.loads(block[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    done = _bench("--workload", "classify-deep", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert result["correct"]
    assert result["metrics"]["states.TraceClassOperator.entry.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 1


def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOADS == run.WORKLOADS


def _record(**changes):
    record = {
        "latency_s": 0.1,
        "exit_code": 0,
        "theory": inputs.branch_theory("expected_nonsymmetric"),
        "observed": {"symmetric": False, "expected": True, "iid": False, "consistent": True},
    }
    record.update(changes)
    return record


def test_gate_counts_a_flipped_verdict_as_failed():
    assert not run.record_failed(_record())
    for key in ("symmetric", "expected", "iid", "consistent"):
        flipped = dict(_record()["observed"])
        flipped[key] = not flipped[key]
        assert run.record_failed(_record(observed=flipped)), key
    assert run.record_failed(_record(exit_code=1))
    assert run.record_failed(_record(error="ValueError()"))


def test_times_are_rescaled_by_the_speed_around_each_call():
    result = {
        "intervals": [[0.0, 0.5, 0.5], [10.0, 10.2, 0.2]],
        "speed": [[-0.01, 2.0], [0.51, 2.0], [9.99, 1.0], [10.21, 1.0]],
        "records": [{"latency_s": 0.5, "interval": 0}, {"latency_s": 0.2, "interval": 1}],
    }
    assert run.call_factors(result) == [2.0, 1.0]
    timings = run.Timings(result)
    assert timings.ms == pytest.approx([250.0, 200.0])
    assert timings.raw_ms == pytest.approx([500.0, 200.0])
    assert timings.work_s == pytest.approx(0.45)


def test_generated_states_are_distinct_and_seeded():
    first = [inputs.make_state("classify-deep", 5, i) for i in range(6)]
    again = [inputs.make_state("classify-deep", 5, i) for i in range(6)]
    other = [inputs.make_state("classify-deep", 6, i) for i in range(6)]
    assert first == again
    texts = {json.dumps(s, sort_keys=True) for s, _ in first + other}
    assert len(texts) == 12
    assert {info["branch"] for _, info in first} == set(inputs.BRANCHES)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "sweep-c8", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
