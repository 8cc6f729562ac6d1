"""Command-line harness: relation suites, state classification, sweeps.

Subcommands:

* ``relations``  run the creation/annihilation, matrix-unit, and embedding
  suites; exit 0 iff all pass.
* ``classify --state FILE``  classify a state file (exchangeable, expected,
  conditionally i.i.d.); exit 0 iff the verdicts are consistent.
* ``sweep``  classify a stratified batch of random states and tabulate the
  results; exit 0 iff every state is consistent.
* ``replay --witness FILE``  recompute the witnesses stored in a previous
  classify or sweep output; exit 0 iff they reproduce.

All numeric output is printed with 17 significant digits, so identical
configurations (including the seed) produce byte-identical reports.  The
seed falls back to the ``BOOLEFOCK_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import jsonutil, sampling
from .algebra import BooleanElement
from .fock import FinitePermutation, word_from_json
from .jsonutil import format_float
from .states import BooleanState, evaluate, moment
from .tail import PhiState, cond_expect, counterexample_ratio
from .verify import (
    CheckReport,
    check_boolean_relations,
    check_embedding_homomorphism,
    check_matrix_unit_dictionary,
    classify_definetti,
    nfold_telescoping_lines,
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
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")
        if self.n_samples < 1:
            raise ValueError(f"samples must be at least 1, got {self.n_samples!r}")
        if self.max_word_len < 1:
            raise ValueError(f"max word length must be at least 1, got {self.max_word_len!r}")
        if self.max_rank < 1:
            raise ValueError(f"max rank must be at least 1, got {self.max_rank!r}")
        if self.output_format not in ("json", "csv", "human"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "tolerance": self.tolerance,
            "n_samples": self.n_samples,
            "max_word_len": self.max_word_len,
            "max_rank": self.max_rank,
            "output_format": self.output_format,
        }


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get("BOOLEFOCK_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"BOOLEFOCK_SEED must be an integer, got {env!r}") from None


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="PRNG seed (default: BOOLEFOCK_SEED or 0)")
    sub.add_argument("--tolerance", type=float, default=1e-9, help="pass/fail tolerance")
    sub.add_argument("--samples", type=int, default=200, help="sample count")
    sub.add_argument("--max-word-len", type=int, default=5, help="longest sampled word")
    sub.add_argument("--max-rank", type=int, default=4, help="largest sampled density rank")
    sub.add_argument("--format", choices=("json", "csv", "human"), default="human",
                     dest="output_format", help="report format")
    sub.add_argument("--out", default=None, help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
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
    return handlers[args.command](args, config)


def console_main() -> None:
    raise SystemExit(main())


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report_lines(report: CheckReport) -> List[str]:
    verdict = "PASS" if report.passed else "FAIL"
    lines = [
        f"{report.name}: {verdict} "
        f"(max_deviation={format_float(report.max_deviation)}, samples={report.samples_run})"
    ]
    if report.witness is not None:
        lines.append(f"  witness: {jsonutil.dumps(report.witness, indent=2).strip()}")
    return lines


def _reports_csv(reports: Sequence[CheckReport]) -> str:
    rows = ["name,passed,max_deviation,samples_run"]
    for r in reports:
        rows.append(
            f"{r.name},{'true' if r.passed else 'false'},"
            f"{format_float(r.max_deviation)},{r.samples_run}"
        )
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# relations


def cmd_relations(args, config: RunConfig) -> int:
    reports = [
        check_boolean_relations(n_samples=config.n_samples, seed=config.seed, tol=config.tolerance),
        check_matrix_unit_dictionary(max_site=8),
        check_embedding_homomorphism(
            n_samples=config.n_samples, seed=config.seed + 1, tol=config.tolerance
        ),
    ]
    if config.output_format == "json":
        text = jsonutil.dumps(
            {"config": config.to_json(), "reports": [r.to_json() for r in reports]}
        )
    elif config.output_format == "csv":
        text = _reports_csv(reports)
    else:
        lines = []
        for report in reports:
            lines.extend(_report_lines(report))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# classify


def _load_state(path: str) -> BooleanState:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return BooleanState.from_json(jsonutil.loads(text))


def cmd_classify(args, config: RunConfig) -> int:
    try:
        state = _load_state(args.state)
    except FileNotFoundError:
        print(f"error: state file not found: {args.state}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: cannot parse state file: {exc}", file=sys.stderr)
        return 2
    result = classify_definetti(
        state,
        seed=config.seed,
        n_words=config.n_samples,
        n_pairs=max(12, config.n_samples // 8),
        max_len=config.max_word_len,
        tol=config.tolerance,
    )
    payload = {
        "config": config.to_json(),
        "state": state.to_json(),
        "classification": result.to_json(),
        "reports": [r.to_json() for r in result.reports],
    }
    if config.output_format == "json":
        text = jsonutil.dumps(payload)
    elif config.output_format == "csv":
        text = (
            "symmetric,expected,iid,consistent,max_deviation\n"
            f"{'true' if result.symmetric else 'false'},"
            f"{'true' if result.expected else 'false'},"
            f"{'true' if result.iid else 'false'},"
            f"{'true' if result.consistent else 'false'},"
            f"{format_float(result.max_deviation)}\n"
        )
    else:
        lines = [
            f"symmetric:  {'true' if result.symmetric else 'false'}",
            f"expected:   {'true' if result.expected else 'false'}",
            f"iid:        {'true' if result.iid else 'false'}",
            f"consistent: {'true' if result.consistent else 'false'}",
            f"max_deviation: {format_float(result.max_deviation)}",
        ]
        for report in result.reports:
            lines.extend(_report_lines(report))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
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
        row = {
            "gamma": state.gamma,
            "rank": state.density.rank,
            "branch": branch,
            "symmetric": result.symmetric,
            "expected": result.expected,
            "iid": result.iid,
            "consistent": result.consistent,
            "max_deviation": result.max_deviation,
        }
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


def _sweep_csv(table: dict) -> str:
    lines = [SWEEP_CSV_HEADER]
    for row in table["rows"]:
        lines.append(
            f"{format_float(row['gamma'])},{row['rank']},"
            f"{'true' if row['symmetric'] else 'false'},"
            f"{'true' if row['expected'] else 'false'},"
            f"{'true' if row['iid'] else 'false'},"
            f"{'true' if row['consistent'] else 'false'},"
            f"{format_float(row['max_deviation'])}"
        )
    return "\n".join(lines) + "\n"


def cmd_sweep(args, config: RunConfig) -> int:
    table = run_sweep(config)
    if config.output_format == "json":
        text = jsonutil.dumps(table)
    elif config.output_format == "csv":
        text = _sweep_csv(table)
    else:
        lines = [SWEEP_CSV_HEADER.replace(",", "  ")]
        for row in table["rows"]:
            lines.append(
                f"{format_float(row['gamma'])}  {row['rank']}  "
                f"{str(row['symmetric']).lower()}  {str(row['expected']).lower()}  "
                f"{str(row['iid']).lower()}  {str(row['consistent']).lower()}  "
                f"{format_float(row['max_deviation'])}"
            )
        lines.append(
            f"all consistent: {str(table['all_consistent']).lower()} "
            f"({len(table['rows'])} states)"
        )
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0 if table["all_consistent"] else 1


# ---------------------------------------------------------------------------
# replay


def _replay_witness(state: BooleanState, witness: dict, tol: float) -> tuple:
    """Recompute a stored witness; returns (lhs, rhs, reproduced).

    An equality-violation witness reproduces when the recomputed sides
    still differ; a stored ratio reproduces when the recomputed ratio
    matches it.
    """
    kind = witness.get("kind")
    if kind == "exchangeability":
        word = word_from_json(witness["word"])
        perm = FinitePermutation.from_json(witness["permutation"])
        lhs = moment(state, word)
        rhs = moment(state, [(perm(j), a) for j, a in word])
    elif kind == "identical_distribution":
        from .fock import TestAlgebraElement, embed

        phi = PhiState.from_json(witness["phi"])
        element = TestAlgebraElement.from_json(witness["element"])
        lhs_t = cond_expect(phi, embed(witness["site_i"], element))
        rhs_t = cond_expect(phi, embed(witness["site_k"], element))
        return lhs_t.x + lhs_t.y, rhs_t.x + rhs_t.y, lhs_t.max_diff(rhs_t) > tol
    elif kind == "pair_independence":
        phi = PhiState.from_json(witness["phi"])
        x = BooleanElement.from_json(witness["x"])
        y = BooleanElement.from_json(witness["y"])
        lhs = evaluate(state, x * y)
        rhs = evaluate(state, cond_expect(phi, x).embed() * cond_expect(phi, y).embed())
    elif kind == "nfold_factorization":
        phi = PhiState.from_json(witness["phi"])
        factors = [BooleanElement.from_json(f) for f in witness["factors"]]
        lines = dict(nfold_telescoping_lines(state, phi, factors))
        label_a, label_b = (part.strip() for part in witness["step"].split("->"))
        lhs, rhs = lines[label_a], lines[label_b]
    elif kind == "expectation_ratio":
        found = counterexample_ratio(state.density)
        lhs, rhs = complex(found.ratio), complex(witness["ratio"])
        return lhs, rhs, abs(lhs - rhs) <= tol
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    return lhs, rhs, abs(lhs - rhs) > tol


def cmd_replay(args, config: RunConfig) -> int:
    try:
        with open(args.witness, "r", encoding="utf-8") as handle:
            payload = jsonutil.loads(handle.read())
    except FileNotFoundError:
        print(f"error: witness file not found: {args.witness}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: cannot parse witness file: {exc}", file=sys.stderr)
        return 2

    if "rows" in payload:
        records = [row for row in payload["rows"] if "reports" in row]
    else:
        records = [payload]
    checked = 0
    reproduced = True
    lines = []
    try:
        for record in records:
            state = BooleanState.from_json(record["state"])
            for report in record.get("reports", []):
                witness = report.get("witness")
                if witness is None:
                    continue
                checked += 1
                lhs, rhs, ok = _replay_witness(state, witness, config.tolerance)
                reproduced = reproduced and ok
                lines.append(
                    f"{report['name']} [{witness['kind']}]: "
                    f"lhs={format_float(abs(lhs))} rhs={format_float(abs(rhs))} "
                    f"{'reproduced' if ok else 'NOT reproduced'}"
                )
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed witness payload: {exc}", file=sys.stderr)
        return 2
    if checked == 0:
        lines.append("no witnesses stored in this report")
    text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0 if reproduced else 1


if __name__ == "__main__":
    console_main()
