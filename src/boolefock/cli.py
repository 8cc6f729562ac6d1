"""Command-line harness: relation suites, state classification, sweeps.

Subcommands:

* ``relations``  run the creation/annihilation, matrix-unit, and embedding
  suites; exit 0 iff all pass.
* ``classify --state FILE``  classify a state file (exchangeable, expected,
  conditionally i.i.d.); exit 0 iff the verdicts are consistent.
* ``sweep``  classify a stratified batch of random states and tabulate the
  results; exit 0 iff every state is consistent.
* ``replay --witness FILE``  recompute the witnesses stored in a previous
  classify or sweep output with ``verify.replay_witness``; exit 0 iff they
  reproduce.

All numeric output is printed with 17 significant digits, so identical
configurations (including the seed) produce byte-identical reports.  The
seed falls back to the ``BOOLEFOCK_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import sys
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence

from . import jsonutil, sampling
from .jsonutil import format_float, shown
from .states import BooleanState
from .verify import (
    CHECK_TOL,
    CheckReport,
    check_boolean_relations,
    check_embedding_homomorphism,
    check_matrix_unit_dictionary,
    classify_definetti,
    replay_witness,
    site_pool,
)

SWEEP_CSV_HEADER = "gamma,rank,symmetric,expected,iid,consistent,max_deviation"


@dataclass
class RunConfig:
    """Validated run parameters shared by all subcommands."""

    seed: int
    tolerance: float
    n_samples: int
    max_word_len: int
    max_rank: int
    output_format: str

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {shown(self.tolerance)}")
        if self.n_samples < 1:
            raise ValueError(f"samples must be at least 1, got {shown(self.n_samples)}")
        if self.max_word_len < 1:
            raise ValueError(f"max word length must be at least 1, got {shown(self.max_word_len)}")
        if not 1 <= self.max_rank <= len(sampling.SITE_POOL):
            raise ValueError(f"max rank must be between 1 and {len(sampling.SITE_POOL)}, got {shown(self.max_rank)}")
        if self.output_format not in ("json", "csv", "human"):
            raise ValueError(f"unknown output format {shown(self.output_format)}")

    def to_json(self) -> dict:
        return asdict(self)


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("BOOLEFOCK_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"BOOLEFOCK_SEED must be an integer, got {shown(env)}") from None


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="PRNG seed (default: BOOLEFOCK_SEED or 0)")
    sub.add_argument("--tolerance", type=float, default=CHECK_TOL, help="pass/fail tolerance")
    sub.add_argument("--samples", type=int, default=200, help="sample count")
    sub.add_argument("--max-word-len", type=int, default=5, help="longest sampled word")
    sub.add_argument("--max-rank", type=int, default=4, help="largest sampled density rank")
    sub.add_argument("--format", choices=("json", "csv", "human"), default="human",
                     dest="output_format", help="report format")
    sub.add_argument("--out", default=None, help="write the report to a file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built on the first call and shared by every later
    ``main`` call of the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="boolefock",
        description="verification harness for Boolean exchangeability and conditional independence",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("relations", "run the operator relation suites"),
        ("classify", "classify a state file"),
        ("sweep", "classify a stratified batch of random states"),
        ("replay", "recompute the witnesses in a saved report"),
    ):
        sub = subs.add_parser(name, help=doc)
        _add_common_flags(sub)
        if name == "classify":
            sub.add_argument("--state", required=True, help="state JSON file")
        if name == "replay":
            sub.add_argument("--witness", required=True, help="saved classify/sweep JSON file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = RunConfig(
            seed=_resolve_seed(args.seed),
            tolerance=args.tolerance,
            n_samples=args.samples,
            max_word_len=args.max_word_len,
            max_rank=args.max_rank,
            output_format=args.output_format,
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "relations": cmd_relations,
        "classify": cmd_classify,
        "sweep": cmd_sweep,
        "replay": cmd_replay,
    }
    try:
        return handlers[args.command](args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


class CliError(Exception):
    """An input the run cannot read or use, or an output it cannot write."""


def _read_json(path: str, what: str, parse: Callable = lambda document: document):
    """``parse`` of the JSON document in the ``what`` file at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse(jsonutil.loads(handle.read()))
    except FileNotFoundError:
        raise CliError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from None
    except (ValueError, TypeError, KeyError, RecursionError) as exc:
        raise CliError(f"cannot parse {what} file: {exc}") from None


def _write_output(text: str, out: Optional[str]) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write output file: {exc}") from None


def _cell(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def _table(header: Sequence[str], rows: Sequence[dict], sep: str = ",") -> List[str]:
    """The header line, then one line per row with the header's columns."""
    return [sep.join(header)] + [sep.join(_cell(row[key]) for key in header) for row in rows]


def _write_report(
    args, config: RunConfig, payload: dict, header: Sequence[str], rows: Sequence[dict],
    human_lines: Callable[[], List[str]],
) -> None:
    """Render the report in the configured format, building only that one."""
    if config.output_format == "json":
        text = jsonutil.dumps(payload)
    else:
        lines = _table(header, rows) if config.output_format == "csv" else human_lines()
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)


def _report_lines(reports: Sequence[CheckReport]) -> List[str]:
    lines = []
    for report in reports:
        lines.append(
            f"{report.name}: {'PASS' if report.passed else 'FAIL'} "
            f"(max_deviation={format_float(report.max_deviation)}, samples={report.samples_run})"
        )
        if report.witness is not None:
            # the witness's later lines nest under its check line, two spaces in
            witness = jsonutil.dumps(report.witness).strip().replace("\n", "\n  ")
            lines.append(f"  witness: {witness}")
    return lines


# ---------------------------------------------------------------------------
# relations


def cmd_relations(args, config: RunConfig) -> int:
    reports = [
        check_boolean_relations(n_samples=config.n_samples, seed=config.seed, tol=config.tolerance),
        check_matrix_unit_dictionary(),
        check_embedding_homomorphism(
            n_samples=config.n_samples, seed=config.seed + 1, tol=config.tolerance
        ),
    ]
    rows = [r.to_json() for r in reports]
    payload = {"config": config.to_json(), "reports": rows}
    header = ("name", "passed", "max_deviation", "samples_run")
    _write_report(args, config, payload, header, rows, lambda: _report_lines(reports))
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# classify


def _load_state(path: str) -> BooleanState:
    """The state in the file at ``path``, if its report can name its fresh
    site: ``str`` writes an integer of at most ``sys.get_int_max_str_digits()``
    digits, where 0 (or an interpreter without the limit) means any number.
    A site of at most ``3 * limit`` bits is below ``10 ** limit``, so the
    power is computed only near the bound."""
    state = _read_json(path, "state", BooleanState.from_json)
    fresh, limit = site_pool(state)[-1], getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and fresh.bit_length() > 3 * limit and fresh >= 10 ** limit:
        raise CliError(f"cannot classify state file: its fresh site has more than {limit} digits")
    return state


def cmd_classify(args, config: RunConfig) -> int:
    state = _load_state(args.state)
    result = classify_definetti(
        state,
        seed=config.seed,
        n_words=config.n_samples,
        n_pairs=max(12, config.n_samples // 8),
        max_len=config.max_word_len,
        tol=config.tolerance,
    )
    verdict = result.to_json()
    payload = {
        "config": config.to_json(),
        "state": state.to_json(),
        "classification": verdict,
        "reports": [r.to_json() for r in result.reports],
    }
    _write_report(
        args, config, payload, list(verdict), [verdict],
        lambda: [f"{key + ':':<11} {_cell(value)}" for key, value in verdict.items()]
        + _report_lines(result.reports),
    )
    return 0 if result.consistent else 1


# ---------------------------------------------------------------------------
# sweep


def run_sweep(config: RunConfig) -> dict:
    """Classify a stratified batch of random states; returns the table."""
    rng = random.Random(config.seed)
    rows = []
    branch_counts: dict = {}
    for index in range(config.n_samples):
        state, branch = sampling.stratified_state(rng, index, max_rank=config.max_rank)
        result = classify_definetti(
            state,
            seed=config.seed + 101 * index,
            n_words=40,
            n_pairs=24,
            max_len=config.max_word_len,
            tol=config.tolerance,
        )
        branch_counts[branch] = branch_counts.get(branch, 0) + 1
        row = {"gamma": state.gamma, "rank": state.density.rank, "branch": branch, **result.to_json()}
        if not result.consistent:
            row["state"] = state.to_json()
            row["reports"] = [r.to_json() for r in result.reports]
        rows.append(row)
    return {
        "config": config.to_json(),
        "rows": rows,
        "branches": {k: branch_counts[k] for k in sorted(branch_counts)},
        "all_consistent": all(row["consistent"] for row in rows),
    }


def cmd_sweep(args, config: RunConfig) -> int:
    table = run_sweep(config)
    header, rows = SWEEP_CSV_HEADER.split(","), table["rows"]
    summary = f"all consistent: {_cell(table['all_consistent'])} ({len(rows)} states)"
    _write_report(args, config, table, header, rows, lambda: _table(header, rows, "  ") + [summary])
    return 0 if table["all_consistent"] else 1


# ---------------------------------------------------------------------------
# replay


def _objects(value, what: str) -> list:
    """``value``, which must be a list of JSON objects."""
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise TypeError(f"{what} must be a list of objects")
    return value


def cmd_replay(args, config: RunConfig) -> int:
    payload = _read_json(args.witness, "witness")
    rows = []
    try:
        if not isinstance(payload, dict):
            raise TypeError("the payload must be an object")
        if "rows" in payload:
            records = [row for row in _objects(payload["rows"], "rows") if "reports" in row]
        else:
            records = [payload]
        for record in records:
            state = BooleanState.from_json(record["state"])
            for report in _objects(record.get("reports", []), "reports"):
                witness = report.get("witness")
                if witness is None:
                    continue
                if not isinstance(witness, dict):
                    raise TypeError("a witness must be an object or null")
                lhs, rhs, ok = replay_witness(state, witness, config.tolerance)
                # the magnitudes of the recomputed sides, None where the state cannot pose them
                rows.append({
                    "report": report["name"],
                    "kind": witness["kind"],
                    "lhs": None if lhs is None else abs(lhs),
                    "rhs": None if rhs is None else abs(rhs),
                    "reproduced": ok,
                })
    except (KeyError, ValueError, TypeError) as exc:
        raise CliError(f"malformed witness payload: {exc}") from None
    reproduced = all(row["reproduced"] for row in rows)
    table = {"config": config.to_json(), "rows": rows, "all_reproduced": reproduced}
    header = ("report", "kind", "lhs", "rhs", "reproduced")
    human = lambda: [
        f"{row['report']} [{row['kind']}]: lhs={_cell(row['lhs'])} rhs={_cell(row['rhs'])} "
        f"{'reproduced' if row['reproduced'] else 'NOT reproduced'}"
        for row in rows
    ] or ["no witnesses stored in this report"]
    _write_report(args, config, table, header, rows, human)
    return 0 if reproduced else 1


if __name__ == "__main__":
    console_main()
