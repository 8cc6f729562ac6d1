"""Run the benchmark in alternating parent/change pairs and summarise them.

Each side is a plain copy of a checkout (its ``src/`` and ``perfbench/``).
Run from any directory:

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --pairs sweep-c8:21101-21110 --pairs classify-wide:21111-21115 \\
        --traced sweep-c8:7 --claim sweep-c8:states_per_s \\
        --parent-rev aba6c44 --out BENCH.json

For each seed of ``--pairs`` it runs ``python3 perfbench/run.py --workload
W --seed N --seconds S --trace 0`` once in each tree, the parent first on
odd seeds and the change first on even ones; S is ``run_seconds`` of
``BENCHMARK.json``.  ``--traced`` runs the same with ``--trace 1`` for
``TRACED_SECONDS``.  Every ``__pycache__`` under both trees is removed
before each run, so neither side imports bytecode the other lacks.  The
series runs in one go, and its summary is built from each run's result
line (the last line ``run.py`` prints) in the layout of the repository's
``BENCH_<n>.json`` files.  A ``--claim`` must name a workload of
``--pairs`` and an ``end_to_end`` metric of ``BENCHMARK.json``; otherwise
the tool exits 2 before any run.

The summary gives three verdicts.  Each workload's metric records
``within_bound``: whether the change's median is worse than the parent's
by no more than the metric's ``bound``, a share of the parent's median.
It also records ``spread``, the wider of the two sides' interquartile
ranges as a share of the parent's median, and ``unresolved``: whether
that spread exceeds the bound while some change run fails to beat some
parent run, so that the runs are too noisy to tell a regression within
the bound from none.  The claim records ``meets_claim_rule``: whether the
change wins at least 9 of every 10 pairs, and its median is better than
the parent's by more than the parent's interquartile range.

The trees are only read, apart from what ``run.py`` itself writes under
each tree's ``perfbench/_runs/``.
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
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACED_SECONDS = 10


def parse_seeds(spec: str) -> tuple:
    """``W:A-B`` or ``W:A,B,...`` as ``(W, [seeds])``."""
    workload, _, seeds = spec.partition(":")
    if "-" in seeds:
        first, last = map(int, seeds.split("-"))
        return workload, list(range(first, last + 1))
    return workload, [int(s) for s in seeds.split(",")]


def clear_bytecode(trees) -> None:
    for tree in trees:
        for top, dirs, _ in os.walk(tree):
            if "__pycache__" in dirs:
                shutil.rmtree(os.path.join(top, "__pycache__"))
                dirs.remove("__pycache__")


def run_side(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one ``perfbench/run.py`` run in ``tree``."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True, timeout=30 * seconds + 300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def order(seed: int) -> tuple:
    """The parent runs first on odd seeds, the change on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def quartiles(values: list) -> dict:
    """The median and quartiles; all three are the value of a single run."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def wins(parent: list, change: list, better: str) -> int:
    """Pairs in which the change is strictly better."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def within_bound(parent_median: float, change_median: float, better: str, bound: float) -> bool:
    """Whether the change is worse than the parent by no more than ``bound``
    of the parent's median."""
    worse = parent_median - change_median if better == "higher" else change_median - parent_median
    return worse <= bound * abs(parent_median)


def spread_verdict(values: dict, quarts: dict, better: str, bound: float) -> tuple:
    """``(spread, unresolved)`` of one metric, from each side's runs and
    :func:`quartiles`: the wider side's q3 - q1 as a share of the parent's
    median, and whether it exceeds ``bound`` while not every change run
    beats every parent run."""
    spread = max(q["q3"] - q["q1"] for q in quarts.values()) / abs(quarts["parent"]["median"])
    parent, change = values["parent"], values["change"]
    beats_all = min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    return spread, spread > bound and not beats_all


def claim_verdict(entry: dict, claimed: dict) -> dict:
    """``claimed`` with the claim rule's terms and verdict for its metric's
    summary ``entry``: at least 9 wins in 10 pairs, and a median gap in the
    better direction wider than the parent's q3 - q1."""
    sign = 1 if entry["better"] == "higher" else -1
    pairs = len(entry["parent_runs"])
    gap = sign * (entry["change"]["median"] - entry["parent"]["median"])
    iqr = entry["parent"]["q3"] - entry["parent"]["q1"]
    return {
        **claimed,
        "pairs": pairs,
        "change_wins": entry["change_wins"],
        "median_gap": gap,
        "parent_iqr": iqr,
        "meets_claim_rule": 10 * entry["change_wins"] >= 9 * pairs and gap > iqr,
    }


def aggregate(records: list, end_to_end: list, claimed: Optional[dict] = None) -> dict:
    """The pair summary of a series of runs.

    Each record holds ``side``, ``workload``, ``seed``, ``trace`` and the
    run's ``result`` line; ``end_to_end`` is the ``BENCHMARK.json`` list
    of metrics with their ``unit``, ``better`` and ``bound``.  Untraced
    runs pair up by workload and seed, in seed order; a seed that lacks
    either side is left out.  With ``claimed``, a ``workload`` and
    ``metric``, the summary's ``claimed`` adds its verdict (see
    :func:`claim_verdict`).
    """
    runs = {(r["workload"], r["trace"], r["seed"], r["side"]): r for r in records}
    summary = {"seeds": {}, "pairs": {}, "workloads": {}, "failed": {}, "traced": {}}
    for workload in dict.fromkeys(r["workload"] for r in records):
        for trace in (0, 1):
            seeds = sorted({s for (w, t, s, _) in runs if (w, t) == (workload, trace)})
            seeds = [s for s in seeds if all((workload, trace, s, side) in runs for side in SIDES)]
            if not seeds:
                continue
            results = {side: [runs[(workload, trace, s, side)]["result"] for s in seeds] for side in SIDES}
            if trace:
                names = results["parent"][0]["metrics"]
                summary["traced"][workload] = {
                    "command": f"python3 perfbench/run.py --workload {workload} --seed N "
                               f"--seconds {TRACED_SECONDS} --trace 1",
                    "seeds": seeds,
                    "metrics": {name: {
                        "unit": names[name]["unit"],
                        **{side: [res["metrics"][name]["value"] for res in results[side]] for side in SIDES},
                    } for name in names},
                }
                continue
            summary["seeds"][workload] = seeds
            summary["pairs"][workload] = len(seeds)
            summary["failed"][workload] = {side: sum(res["failed"] for res in results[side]) for side in SIDES}
            table = summary["workloads"][workload] = {}
            for metric in end_to_end:
                name = metric["name"]
                values = {side: [res["metrics"][name]["value"] for res in results[side]] for side in SIDES}
                quarts = {side: quartiles(values[side]) for side in SIDES}
                parent, change = quarts["parent"], quarts["change"]
                spread, noisy = spread_verdict(values, quarts, metric["better"], metric["bound"])
                table[name] = {
                    "unit": metric["unit"],
                    "better": metric["better"],
                    "parent": parent,
                    "change": change,
                    "parent_runs": values["parent"],
                    "change_runs": values["change"],
                    "change_wins": wins(values["parent"], values["change"], metric["better"]),
                    "relative_change": change["median"] / parent["median"] - 1,
                    "bound": metric["bound"],
                    "within_bound": within_bound(parent["median"], change["median"], metric["better"], metric["bound"]),
                    "spread": spread,
                    "unresolved": noisy,
                }
    if claimed:
        summary["claimed"] = claim_verdict(summary["workloads"][claimed["workload"]][claimed["metric"]], claimed)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--pairs", action="append", default=[], metavar="W:SEEDS",
                        help="untraced pairs of one workload, seeds as A-B or A,B,...")
    parser.add_argument("--traced", action="append", default=[], metavar="W:SEEDS",
                        help="traced pairs (--trace 1) of one workload")
    parser.add_argument("--claim", metavar="W:METRIC", help="the workload and metric the change claims")
    parser.add_argument("--parent-rev", default="unknown", help="the parent's commit, for the summary")
    parser.add_argument("--description", default="", help="how the runs were made, for the summary")
    parser.add_argument("--out", required=True, help="summary file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    plan = [(w, 0, s, benchmark["run_seconds"]) for spec in args.pairs for w, seeds in [parse_seeds(spec)] for s in seeds]
    claimed = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in {w for w, *_ in plan}:
            parser.error(f"--claim names workload {workload!r}, which no --pairs runs")
        if metric not in {m["name"] for m in benchmark["end_to_end"]}:
            parser.error(f"--claim names metric {metric!r}, which is not an end_to_end metric of BENCHMARK.json")
        claimed = {"workload": workload, "metric": metric}
    plan += [(w, 1, s, TRACED_SECONDS) for spec in args.traced for w, seeds in [parse_seeds(spec)] for s in seeds]
    records = []
    for workload, trace, seed, seconds in plan:
        for side in order(seed):
            clear_bytecode(trees.values())
            result = run_side(trees[side], workload, seed, seconds, trace)
            records.append({"side": side, "workload": workload, "seed": seed, "trace": trace, "result": result})
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"{result['metrics'].get('states_per_s', {}).get('value', '-')}", flush=True)

    summary = aggregate(records, benchmark["end_to_end"], claimed)
    out = {
        "description": args.description,
        "parent": args.parent_rev,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "seeds": summary["seeds"],
        "pairs": summary["pairs"],
    }
    if claimed:
        out["claimed"] = summary["claimed"]
    out.update(workloads=summary["workloads"], failed=summary["failed"], traced=summary["traced"])
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
