"""Command-line entry points: run scenarios, clear books, print cost tables.

Exit codes: 0 success, 2 configuration/input error, 3 invariant violation,
4 a scenario run stalled (its outputs are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .auction import (Fill, conservation_problems, filter_by_width, find_clearing_price,
                      score_at, settle, verify_clearing_price)
from .analysis import DEFAULT_SLIPPAGE, cost_table
from .scenario import (InvariantViolation, Outputs, Runner, ScenarioConfig, ScenarioError,
                       SUMMARY_HEADER, validate_config)
from .serialize import book_from_json, dumps_canonical, order_from_json, result_to_json
from .units import check_price, check_quantity

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_STALLED = 4


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_outputs(outdir: Path, outputs: Outputs, result) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / outputs.trace, "w") as fh:
        for rec in result.trace:
            fh.write(dumps_canonical(rec) + "\n")
    with open(outdir / outputs.settlements, "w") as fh:
        fh.write(dumps_canonical(result.settlements) + "\n")
    with open(outdir / outputs.summary, "w") as fh:
        fh.write(",".join(SUMMARY_HEADER) + "\n")
        for row in result.summary_rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _run_one(config: ScenarioConfig, outdir: str) -> int:
    result = Runner(config).run()
    _write_outputs(Path(outdir), config.outputs, result)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if result.stalled:
        print(f"warning: stalled after {result.rounds_completed} of "
              f"{config.rounds} rounds", file=sys.stderr)
        return EXIT_STALLED
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    # ValueError: bad JSON, or an integer literal longer than Python's digit limit
    except (OSError, ValueError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        parsed = validate_config(config)
        if not args.seeds:
            return _run_one(parsed, args.outdir)
        runs = [parsed.with_seed(s) for s in args.seeds]
        outdirs = [str(Path(args.outdir) / f"seed-{s}") for s in args.seeds]
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor  # only here: it costs start-up time
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                codes = list(pool.map(_run_one, runs, outdirs))
        else:
            codes = list(map(_run_one, runs, outdirs))
        return EXIT_STALLED if EXIT_STALLED in codes else EXIT_OK
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT


def _cmd_clear(args) -> int:
    try:
        with open(args.book) as fh:
            book = book_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
        print(f"error: malformed book: {e}", file=sys.stderr)
        return EXIT_CONFIG
    filtered, removed = filter_by_width(book)
    if args.verify is not None:
        cp = args.verify
        ok = verify_clearing_price(filtered, cp, *score_at(filtered, cp))
        print(f"cp={cp}: {'valid' if ok else 'invalid'}")
        return EXIT_OK
    cand = find_clearing_price(filtered)
    if cand is None:
        print("no crossable liquidity")
        return EXIT_OK
    res = settle(filtered, cand.cp)
    doc = result_to_json(res)
    doc["width_removed"] = [o.oid for o in removed]
    print(dumps_canonical(doc))
    return EXIT_OK


def _cmd_costs(args) -> int:
    impact_table = None
    if args.impact is not None:
        impact_table = {n: args.impact for n in (10_000, 500_000, 10_000_000)}
    header, rows = cost_table(impact_table=impact_table, slippage=args.slippage)
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt_cell(v) for v in row))
    return EXIT_OK


def _check_report(reports: list) -> list[str]:
    """Conservation problems of a settlements report, per round.

    Raises ValueError on a malformed report.  Width-removed orders must be
    full refunds and stay out of the conservation sums.
    """
    problems = []
    for rep in reports:
        if not isinstance(rep, dict) or not isinstance(rep.get("fills"), list):
            raise ValueError("each report must be an object with a list of fills")
        where = f"round {rep['round']}"
        rows = []
        for f in rep["fills"]:
            if not isinstance(f, dict):
                raise ValueError(f"{where}: each fill must be an object")
            o = order_from_json(f)
            executed, received, refunded = (
                check_quantity(f[k]) for k in ("executed", "received", "refunded"))
            if not f.get("width_removed"):
                rows.append(Fill(o.oid, executed, received, refunded, o))
            elif executed or received or refunded != o.size:
                problems.append(f"{where} oid {o.oid}: bad width-removed refund")
        cp, volume_b = check_price(rep["cp"]), check_quantity(rep["volume_b"])
        problems += [f"{where}: {p}" for p in conservation_problems(cp, volume_b, rows)]
    return problems


def _cmd_check(args) -> int:
    try:
        with open(args.report) as fh:
            reports = json.load(fh)
        if not isinstance(reports, list):
            raise ValueError("settlement report must be a JSON list")
        problems = _check_report(reports)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as e:
        print(f"error: malformed report: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_INVARIANT
    print(f"ok: {len(reports)} settlement report(s) valid")
    return EXIT_OK


def _seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",")]


def _fraction(text: str) -> float:
    """A fraction of the notional in [0, 1]; anything else is a usage error (exit 2)."""
    v = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 <= v <= 1:  # nan fails too
        raise argparse.ArgumentTypeError(f"expected a fraction in [0, 1], got {text!r}")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairtradex")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config", help="scenario JSON path")
    p_run.add_argument("--outdir", default="out", help="output directory")
    p_run.add_argument("--seeds", type=_seed_list, default=None,
                       help="comma-separated seeds; each runs into outdir/seed-N")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel scenario processes")
    p_run.set_defaults(func=_cmd_run)

    p_clear = sub.add_parser("clear", help="clear a book file with the oracle")
    p_clear.add_argument("--book", required=True, help="book JSON path")
    p_clear.add_argument("--verify", type=int, default=None,
                         help="verify this clearing price instead of solving")
    p_clear.set_defaults(func=_cmd_clear)

    p_costs = sub.add_parser("costs", help="print the execution-cost matrix as CSV")
    p_costs.add_argument("--impact", type=_fraction, default=None,
                         help="flat impact fraction overriding the default table")
    p_costs.add_argument("--slippage", type=_fraction, default=DEFAULT_SLIPPAGE,
                         help="slippage fraction for the AMM column")
    p_costs.set_defaults(func=_cmd_costs)

    p_check = sub.add_parser("check", help="re-validate a settlements.json report")
    p_check.add_argument("report", help="settlements JSON path")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
