"""Write the report corpus whose bytes a behaviour-preserving change must keep.

Run from any directory; the corpus is built from the ``src`` of the
checkout this script lives in:

    python3 tools/report_corpus.py DIR

``DIR`` receives

* ``sweep.json`` and ``sweep.csv``: the criterion-8 sweep (seed 42, 1000
  states, max rank 6, max word length 5, tolerance 1e-9);
* ``<workload>/<seed>-<index>.state.json``, ``.report.json`` and
  ``.replay.json`` for the generated inputs of the benchmark's
  classify-wide and classify-deep workloads, seeds 1-4, 30 states each:
  the state file, its ``classify`` report with the benchmark's flags and
  ``--seed`` = seed * 1000 + index, and the json ``replay`` of that report;
* ``exit_codes.txt``: one ``<file> <exit code>`` line per command above;
* ``verdicts.txt``: one ``<row> <symmetric> <expected> <iid> <consistent>``
  line per sweep row (``sweep.json:<index>``) and per classify report;
* ``fields.txt``: one ``<file> <report|row> <field> <digest>`` line per
  field of every sweep row (``sweep.json <index>``), of every classify
  report's ``classification`` and of each of its check reports (by name);
  the digest is the first 12 hex digits of the SHA-1 of the value as
  ``jsonutil.dumps`` writes it.

Two trees' corpora then compare with one ``diff -r``; a change that moves
numbers but no verdict leaves ``verdicts.txt`` equal, and a ``diff`` of the
two ``fields.txt`` names every field that moved.  The benchmark's files
under ``perfbench/`` are only read.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import inputs  # noqa: E402
from worker import CLASSIFY_FLAGS  # noqa: E402

from boolefock import cli, jsonutil  # noqa: E402

#: The criterion-8 sweep's flags, all explicit.
SWEEP_FLAGS = (
    "--seed", "42",
    "--samples", "1000",
    "--max-rank", "6",
    "--max-word-len", "5",
    "--tolerance", "1e-9",
)
CLASSIFY_WORKLOADS = ("classify-wide", "classify-deep")
SEEDS = (1, 2, 3, 4)
STATES_PER_SEED = 30
#: The verdict flags of a sweep row or a classify report, in report order.
FLAGS = ("symmetric", "expected", "iid", "consistent")


def write_corpus(
    out: str,
    sweep_flags=SWEEP_FLAGS,
    seeds=SEEDS,
    states_per_seed: int = STATES_PER_SEED,
) -> list:
    """Write the corpus under ``out``; returns the ``(file, exit code)``
    pairs, also written to ``exit_codes.txt``."""
    codes = []
    verdicts = []
    fields = []

    def run(name: str, argv) -> None:
        codes.append((name, cli.main([*argv, "--out", os.path.join(out, name)])))

    os.makedirs(out, exist_ok=True)
    for fmt in ("json", "csv"):
        run(f"sweep.{fmt}", ["sweep", *sweep_flags, "--format", fmt])
    for index, row in enumerate(_read(out, "sweep.json")["rows"]):
        verdicts.append((f"sweep.json:{index}", row))
        fields += _field_lines("sweep.json", str(index), row)
    for workload in CLASSIFY_WORKLOADS:
        os.makedirs(os.path.join(out, workload), exist_ok=True)
        for seed in seeds:
            for index in range(states_per_seed):
                stem = os.path.join(workload, f"{seed}-{index}")
                state, _ = inputs.make_state(workload, seed, index)
                state_path = os.path.join(out, stem + ".state.json")
                with open(state_path, "w", encoding="utf-8") as handle:
                    json.dump(state, handle)
                run(stem + ".report.json", [
                    "classify", "--state", state_path, "--seed", str(seed * 1000 + index), *CLASSIFY_FLAGS,
                ])
                report = _read(out, stem + ".report.json")
                verdicts.append((stem + ".report.json", report["classification"]))
                fields += _field_lines(stem + ".report.json", "classification", report["classification"])
                for check in report["reports"]:
                    fields += _field_lines(stem + ".report.json", check["name"], check)
                run(stem + ".replay.json", [
                    "replay", "--witness", os.path.join(out, stem + ".report.json"), "--seed", "0",
                    "--tolerance", "1e-9", "--format", "json",
                ])
    with open(os.path.join(out, "exit_codes.txt"), "w", encoding="utf-8") as handle:
        handle.writelines(f"{name} {code}\n" for name, code in codes)
    with open(os.path.join(out, "verdicts.txt"), "w", encoding="utf-8") as handle:
        handle.writelines(
            " ".join([name, *("true" if verdict[flag] else "false" for flag in FLAGS)]) + "\n"
            for name, verdict in verdicts
        )
    with open(os.path.join(out, "fields.txt"), "w", encoding="utf-8") as handle:
        handle.writelines(fields)
    return codes


def _field_lines(name: str, label: str, record: dict) -> list:
    """The ``fields.txt`` lines of one sweep row, classification or check
    report: the first 12 hex digits of the SHA-1 of each value as
    ``jsonutil.dumps`` writes it."""
    return [
        f"{name} {label} {field} {hashlib.sha1(jsonutil.dumps(value).encode('utf-8')).hexdigest()[:12]}\n"
        for field, value in record.items()
    ]


def _read(out: str, name: str) -> dict:
    with open(os.path.join(out, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", help="directory to write the corpus into")
    write_corpus(parser.parse_args(argv).dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
