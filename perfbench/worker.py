"""One pass of a workload in a fresh process, driving boolefock in process.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and ``BOOLEFOCK_SEED`` removed:

    python3 perfbench/worker.py --workload W --seed N --states K --seconds S \
        --workdir DIR --out FILE [--profile]

It classifies states until at least ``K`` are done and ``S`` seconds have
passed (``S = 0`` runs exactly ``K``), then writes one JSON object to
``FILE``: a record per state (latency, observed and expected verdicts,
checker samples run, sites probed), the span of each timed call, machine
speed samples taken between the calls, peak resident memory, the numpy
version and, with ``--profile``, a per-function ``cProfile`` table of the
timed calls.  A profile hook sees calls bound at
import time (``verify.SPARSE_ENGINE``, ``engine=`` defaults) that patching
module attributes would miss.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
import time

import calibrate
import inputs

import boolefock
from boolefock import cli

#: Sweep configuration of acceptance criterion 8 (its seed comes per chunk).
SWEEP_TOLERANCE = 1e-9
SWEEP_MAX_RANK = 6
SWEEP_MAX_WORD_LEN = 5
#: States per ``run_sweep`` call; a multiple of the five sampling branches.
SWEEP_CHUNK = 50

#: Flags of every ``classify`` call, all passed explicitly.
CLASSIFY_FLAGS = (
    "--tolerance", "1e-9",
    "--samples", "100",
    "--max-word-len", "5",
    "--max-rank", "4",
    "--format", "json",
)

#: Checkers' base site pool (``boolefock.sampling.SITE_POOL``); a state's
#: probed pool is this, its density's support and one fresh site.
BASE_POOL = frozenset(range(1, 9))

#: Seconds of work between machine-speed samples; one sample costs about
#: 12 ms, so sampling takes about 5% of a pass.
SPEED_SPACING_S = 0.25


class Pass:
    """Records of one pass, machine-speed samples, and the profiler around
    the timed calls.

    ``intervals`` holds ``[start, end, seconds]`` per timed call, times from
    the start of the pass; ``speed`` holds ``[time, factor]`` samples of
    ``calibrate.speed_factor`` taken between timed calls.
    """

    def __init__(self, profile: bool):
        self.records: list = []
        self.intervals: list = []
        self.speed: list = []
        self.profiler = cProfile.Profile() if profile else None
        self.origin = time.perf_counter()
        self._last_sample = self.origin

    def sample_speed(self) -> None:
        """Sample the machine speed about once per ``SPEED_SPACING_S`` of
        work since the last sample."""
        gap = time.perf_counter() - self._last_sample
        for _ in range(max(1, round(gap / SPEED_SPACING_S))):
            factor = calibrate.speed_factor()
            self.speed.append([time.perf_counter() - self.origin, factor])
        self._last_sample = time.perf_counter()

    def timed(self, fn, *args):
        """Call ``fn`` between speed samples; returns ``(result, seconds,
        interval index)``."""
        self.sample_speed()
        if self.profiler is not None:
            self.profiler.enable()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            if self.profiler is not None:
                self.profiler.disable()
            self.intervals.append([t0 - self.origin, t1 - self.origin, t1 - t0])
        return result, t1 - t0, len(self.intervals) - 1


def _observed(verdicts: dict) -> dict:
    return {k: verdicts[k] for k in ("symmetric", "expected", "iid", "consistent")}


def run_sweep_chunk(p: Pass, seed: int, chunk: int, size: int) -> None:
    """One ``run_sweep`` call; per-state latency from a timer around
    ``cli.classify_definetti``, which ``run_sweep`` looks up on each call."""
    calls = []
    original = cli.classify_definetti

    def timed_classify(state, **kwargs):
        t0 = time.perf_counter()
        result = original(state, **kwargs)
        calls.append((time.perf_counter() - t0, state, result))
        return result

    config = cli.RunConfig(
        seed=seed * 1000 + chunk,
        tolerance=SWEEP_TOLERANCE,
        n_samples=size,
        max_word_len=SWEEP_MAX_WORD_LEN,
        max_rank=SWEEP_MAX_RANK,
        output_format="json",
    )
    cli.classify_definetti = timed_classify
    try:
        table, _, interval = p.timed(cli.run_sweep, config)
    except Exception as exc:  # a crash fails every state of the chunk
        p.records.extend({"error": repr(exc)} for _ in range(size))
        return
    finally:
        cli.classify_definetti = original
    if len(table["rows"]) != size or len(calls) != size:
        p.records.extend({"error": "sweep returned a short table"} for _ in range(size))
        return
    for row, (latency, state, result) in zip(table["rows"], calls):
        p.records.append({
            "latency_s": latency,
            "interval": interval,
            "branch": row["branch"],
            "theory": inputs.branch_theory(row["branch"]),
            "observed": _observed(row),
            "samples_run": sum(r.samples_run for r in result.reports),
            "pool_sites": len(BASE_POOL | set(state.density.site_support())) + 1,
        })


def run_classify_one(p: Pass, workload: str, seed: int, index: int, workdir: str) -> None:
    state, info = inputs.make_state(workload, seed, index)
    path = os.path.join(workdir, f"state-{index}.json")
    out = os.path.join(workdir, "report.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state, handle)
    if os.path.exists(out):
        os.remove(out)
    argv = ["classify", "--state", path, "--seed", str(seed * 1000 + index), *CLASSIFY_FLAGS, "--out", out]
    record = {"branch": info["branch"], "theory": info["theory"], "pool_sites": info["pool_sites"]}
    try:
        code, latency, interval = p.timed(cli.main, argv)
        with open(out, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        record.update(
            latency_s=latency,
            interval=interval,
            exit_code=code,
            observed=_observed(report["classification"]),
            samples_run=sum(r["samples_run"] for r in report["reports"]),
        )
    except Exception as exc:  # a crash or a missing report fails this state
        record["error"] = repr(exc)
    p.records.append(record)
    os.remove(path)


def _qualnames() -> dict:
    """``(file, first line) -> qualified name`` for every code object in the
    boolefock package, lambdas and nested functions included."""
    names = {}
    pkg_dir = os.path.dirname(os.path.realpath(boolefock.__file__))
    for entry in sorted(os.listdir(pkg_dir)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(pkg_dir, entry)
        with open(path, "r", encoding="utf-8") as handle:
            stack = [compile(handle.read(), path, "exec")]
        while stack:
            code = stack.pop()
            names[(path, code.co_firstlineno)] = getattr(code, "co_qualname", code.co_name)
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return names


def profile_table(profiler: cProfile.Profile) -> dict:
    """``module.qualname -> {calls, self_s, incl_s}`` for boolefock functions."""
    names = _qualnames()
    pkg_dir = os.path.dirname(os.path.realpath(boolefock.__file__))
    table: dict = {}
    for (filename, line, func), (_, calls, self_s, incl_s, _) in pstats.Stats(profiler).stats.items():
        path = os.path.realpath(filename)
        if os.path.dirname(path) != pkg_dir:
            continue
        module = os.path.basename(path)[: -len(".py")]
        key = f"{module}.{names.get((path, line), func)}"
        row = table.setdefault(key, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += calls
        row["self_s"] += self_s
        row["incl_s"] += incl_s
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep-c8", "classify-wide", "classify-deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--states", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)

    p = Pass(args.profile)

    def more() -> bool:
        return len(p.records) < args.states or time.perf_counter() - p.origin < args.seconds

    if args.workload == "sweep-c8":
        chunk = 0
        size = min(SWEEP_CHUNK, args.states)
        while more():
            run_sweep_chunk(p, args.seed, chunk, size)
            chunk += 1
    else:
        while more():
            run_classify_one(p, args.workload, args.seed, len(p.records), args.workdir)

    p.sample_speed()
    result = {
        "records": p.records,
        "intervals": p.intervals,
        "speed": p.speed,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
    }
    if p.profiler is not None:
        result["profile"] = profile_table(p.profiler)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
