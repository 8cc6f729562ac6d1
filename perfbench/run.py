"""The repository benchmark: sweep throughput and classify latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-c8 --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn, each printing its own
summary and result line.

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``sweep-c8``       ``cli.run_sweep`` in the criterion-8 configuration
  (max rank 6, max word length 5, tolerance 1e-9, 8-site pool), in chunks
  of 50 states whose sweep seeds derive from ``--seed``.
* ``classify-wide``  ``cli.main(["classify", ...])`` on generated state
  files of rank 2-4 over 16-36 support sites.
* ``classify-deep``  the same on rank 8-20 over rank + 4 to rank + 8 sites.

Each pass runs in a fresh worker process (``worker.py``) from one thread,
with ``BOOLEFOCK_SEED`` cleared and every CLI flag explicit.

Times are rescaled to a reference machine speed.  The machine's speed
drifts by up to 2x over tens of seconds, so the worker times a fixed
calibration kernel (``calibrate.py``) between the timed calls, and each
call's time is divided by the median speed factor sampled within a second
of it.  The summary prints the raw figures next to the rescaled ones.

``--trace 0`` prints the end-to-end metrics: states classified per second,
the median and 90th-percentile latency of one state (at least 100 states a
run), the median time to import ``boolefock.cli`` over several fresh
processes, and the worker's peak resident memory.  ``failed_fraction`` is
printed in the summary; it is zero on correct code, so the result carries
it as the ``failed`` count rather than as a bounded metric.

``--trace 1`` runs a fixed number of states twice in two fresh workers,
untraced and then under ``cProfile``, and prints the per-layer metrics of
the traced pass plus ``trace.overhead_ratio``, the traced over the untraced
time of the same states.  The full per-function table goes to a sidecar
file under ``perfbench/_runs/``, never into a CLI report.

Every state's verdicts are checked against closed-form theory (classify)
or against what its sampling branch implies (sweep); a state whose verdict
disagrees, whose exit code is non-zero, or that raises counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "_runs")

WORKLOADS = ("sweep-c8", "classify-wide", "classify-deep")

#: Fewest states a timed run classifies, so ten lie beyond the 90th percentile.
MIN_STATES = 100

#: Fresh processes timed per run for ``setup_s``, after one untimed import
#: that leaves the bytecode cache warm.
SETUP_REPEATS = 7

#: States per second of ``--seconds`` in a traced run: a fixed count for a
#: given run length, so traced counts compare across commits.
TRACE_RATE = {"sweep-c8": 8.0, "classify-wide": 1.0, "classify-deep": 0.8}

#: A worker pass that takes longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 150

#: Speed samples within this many seconds of a timed call rescale it.
SPEED_WINDOW_S = 1.0

#: Times one import of ``boolefock.cli``, then the machine speed; the
#: calibration runs after the import so that it preloads no module.
IMPORT_TIMER = (
    "import sys, time; t = time.perf_counter(); import boolefock.cli; "
    "s = time.perf_counter() - t; sys.path.insert(0, {here!r}); import calibrate; "
    "f = sorted(calibrate.speed_factor() for _ in range(3))[1]; print(s, f)"
)

#: Layer functions traced, with the statistics reported for each.
TRACED_FUNCTIONS = (
    ("fock.embed", ("calls", "self_s")),
    ("algebra.BooleanElement.__mul__", ("calls", "self_s")),
    ("algebra.BooleanElement.__post_init__", ("calls", "self_s")),
    ("states.moment", ("calls", "incl_s")),
    ("states.TraceClassOperator.entry", ("calls", "self_s")),
    ("states.TraceClassOperator.trace_against", ("incl_s",)),
    ("states.evaluate", ("calls", "incl_s")),
    ("tail.cond_expect", ("calls", "incl_s")),
    ("tail.PhiState.corner_value", ("self_s",)),
    ("verify.check_identically_distributed", ("incl_s",)),
    ("verify.check_exchangeable", ("incl_s",)),
    ("verify.check_pair_independence", ("incl_s",)),
    ("verify.classify_definetti", ("incl_s",)),
    ("states.TraceClassOperator.__post_init__", ("self_s",)),
    ("jsonutil.dumps", ("incl_s",)),
    ("sampling.stratified_state", ("incl_s",)),
    ("cli.load_state", ("incl_s",)),
)

#: Metric names given to profiled functions whose name is private.
RENAMED = {"cli._load_state": "cli.load_state"}

#: Modules reported with their summed self time; ``oracle`` is a test
#: reference that no user path runs.
LAYERS = ("algebra", "fock", "states", "tail", "verify", "sampling", "cli", "jsonutil")

UNITS = {"calls": "count", "self_s": "s", "incl_s": "s"}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BOOLEFOCK_SEED"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(env: dict) -> list:
    """``(seconds, speed factor)`` of importing ``boolefock.cli`` in each of
    several fresh processes."""
    samples = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER.format(here=HERE)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if k:
            seconds, factor = map(float, done.stdout.split())
            samples.append((seconds, factor))
    return samples


def run_worker(env: dict, workload: str, seed: int, states: int, seconds: float,
               workdir: str, profile: bool) -> dict:
    out = os.path.join(workdir, "pass.json")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--states", str(states),
        "--seconds", str(seconds), "--workdir", workdir, "--out", out,
    ]
    if profile:
        cmd.append("--profile")
    subprocess.run(cmd, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S, check=True)
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def record_failed(record: dict) -> bool:
    """The correctness gate for one state.

    A state fails when it raised, when its exit code is non-zero, or when
    any verdict differs from theory.  ``max_deviation`` is not compared:
    its trailing digits may move at the 1e-16 level.
    """
    if record.get("error") is not None or record.get("exit_code", 0) != 0:
        return True
    theory = record.get("theory")
    observed = record.get("observed")
    if not theory or not observed:
        return True
    return any(observed.get(key) != value for key, value in theory.items())


def call_factors(result: dict) -> list:
    """Speed factor of each timed call: the median of the samples within
    ``SPEED_WINDOW_S`` of it, which include the samples just before and
    just after it."""
    factors = []
    for start, end, _ in result["intervals"]:
        mid = (start + end) / 2
        reach = (end - start) / 2 + SPEED_WINDOW_S
        near = [f for t, f in result["speed"] if abs(t - mid) <= reach]
        factors.append(statistics.median(near))
    return factors


class Timings:
    """A worker pass's timings, raw and rescaled to the reference speed."""

    def __init__(self, result: dict):
        self.result = result
        factors = call_factors(result)
        timed = [r for r in result["records"] if "latency_s" in r]
        self.raw_ms = [r["latency_s"] * 1000.0 for r in timed]
        self.ms = [r["latency_s"] * 1000.0 / factors[r["interval"]] for r in timed]
        self.raw_s = sum(seconds for _, _, seconds in result["intervals"])
        self.work_s = sum(s / f for (_, _, s), f in zip(result["intervals"], factors))
        self.speed = statistics.median(f for _, f in result["speed"])


def p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run: "Timings", setup: list) -> tuple:
    """The end-to-end metrics and a note for each, for the summary."""
    setup_raw = statistics.median(s for s, _ in setup)
    n = len(run.ms)
    metrics = {
        "states_per_s": {"value": n / run.work_s, "unit": "1/s"},
        "state_ms.p50": {"value": statistics.median(run.ms), "unit": "ms"},
        "state_ms.p90": {"value": p90(run.ms), "unit": "ms"},
        "setup_s": {"value": statistics.median(s / f for s, f in setup), "unit": "s"},
        "peak_rss_mib": {"value": run.result["peak_rss_mib"], "unit": "MiB"},
    }
    notes = {
        "states_per_s": f"{n} states; raw {n / run.raw_s:.4g}",
        "state_ms.p50": f"n={n}; raw {statistics.median(run.raw_ms):.4g}",
        "state_ms.p90": f"n={n}; raw {p90(run.raw_ms):.4g}",
        "setup_s": f"median of {len(setup)} fresh imports; raw {setup_raw:.4g}",
        "peak_rss_mib": "worker process",
    }
    return metrics, notes


def per_layer(traced: "Timings", untraced: "Timings") -> dict:
    """Per-layer metrics of the traced pass; times rescaled by the pass's
    mean speed factor."""
    table = {RENAMED.get(name, name): row for name, row in traced.result["profile"].items()}
    scale = traced.work_s / traced.raw_s

    def stat(name: str, key: str) -> float:
        value = table.get(name, {}).get(key, 0)
        return value if key == "calls" else value * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    records = traced.result["records"]
    metrics = {}
    for name, keys in TRACED_FUNCTIONS:
        for key in keys:
            metrics[f"{name}.{key}"] = {"value": stat(name, key), "unit": UNITS[key]}
    metrics["states.entry_per_evaluate"] = {
        "value": ratio(stat("states.TraceClassOperator.entry", "calls"), stat("states.evaluate", "calls")),
        "unit": "ratio",
    }
    metrics["tail.cond_expect.calls_per_site"] = {
        "value": ratio(stat("tail.cond_expect", "calls"), sum(r.get("pool_sites", 0) for r in records)),
        "unit": "ratio",
    }
    metrics["verify.samples_run"] = {
        "value": sum(r.get("samples_run", 0) for r in records), "unit": "count",
    }
    for layer in LAYERS:
        value = sum(row["self_s"] for name, row in table.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = {"value": value * scale, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": ratio(traced.work_s, untraced.work_s), "unit": "ratio",
    }
    return metrics


def environment(numpy_version) -> dict:
    rev = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30,
        )
        if done.returncode == 0:
            rev = done.stdout.strip()
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def run_workload(args, workload: str) -> None:
    """Run one workload, write its sidecar, and print its summary and result."""
    env = worker_env()
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            count = max(1, round(args.seconds * TRACE_RATE[workload]))
            untraced = Timings(run_worker(env, workload, args.seed, count, 0, workdir, False))
            traced = Timings(run_worker(env, workload, args.seed, count, 0, workdir, True))
            passes = [untraced, traced]
            metrics, notes = per_layer(traced, untraced), {}
        else:
            setup = time_setup(env)
            timed = Timings(run_worker(env, workload, args.seed, args.min_states,
                                       args.seconds, workdir, False))
            passes = [timed]
            metrics, notes = end_to_end(timed, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in passes for r in p.result["records"]]
    failures = [r for r in records if record_failed(r)]
    env_info = environment(passes[-1].result["numpy"])
    sidecar = {
        "environment": env_info,
        "args": {**vars(args), "workload": workload},
        "metrics": metrics,
        "failures": failures,
        "speed_factor_median": [p.speed for p in passes],
    }
    if args.trace:
        sidecar["profile"] = traced.result["profile"]
    with open(os.path.join(RUNS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=1, sort_keys=True)

    for record in failures[:5]:
        print(f"failed state: {json.dumps(record, sort_keys=True)}", file=sys.stderr)
    print(f"{workload}  seed {args.seed}  {len(records)} states  "
          f"{'traced' if args.trace else 'untraced'}  "
          f"speed factor {' / '.join(f'{p.speed:.3f}' for p in passes)}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:46s} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'failed_fraction':46s} {len(failures) / len(records):.6g} ratio "
          f"({len(failures)}/{len(records)} states)")
    print(f"environment: {json.dumps(env_info, sort_keys=True)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="boolefock benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-states", type=int, default=MIN_STATES,
                        help="fewest states a timed run classifies (tests use fewer)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "boolefock", "cli.py")):
        print(f"error: no boolefock sources under {SRC}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(args, workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
