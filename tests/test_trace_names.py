"""The benchmark's traced layer metrics name functions that exist.

A traced metric reads 0 when its function is missing from the profile, so
a rename would silently empty it instead of failing the benchmark.
"""

import importlib
import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACED_SUFFIXES = (".calls", ".self_s", ".incl_s")


def benchmark_renamed() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.RENAMED


def test_traced_names_resolve_to_functions():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    profiled = {metric: name for name, metric in benchmark_renamed().items()}
    checked = 0
    for metric in metrics:
        stem, dot, suffix = metric["name"].rpartition(".")
        if "." + suffix not in TRACED_SUFFIXES or "." not in stem:
            continue  # a derived ratio or a module's summed self time
        module_name, _, qualname = profiled.get(stem, stem).partition(".")
        target = importlib.import_module(f"boolefock.{module_name}")
        for part in qualname.split("."):
            target = getattr(target, part)
        assert target.__module__ == f"boolefock.{module_name}", stem
        assert target.__qualname__ == qualname, stem
        checked += 1
    assert checked >= 20
