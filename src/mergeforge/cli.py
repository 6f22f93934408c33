"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from . import benchmark
from .config import BenchmarkConfig, ConfigError, load_config
from .driver import TASK_ARITHMETIC_GRID, run as run_search, task_arithmetic_baseline
from .dsl import EvalBudget, compile_program, default_budget
from .pipeline import score_program
from .report import write_reports


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(g) for g in text.split(","))
    except ValueError:
        grid = ()
    if not grid or not all(map(math.isfinite, grid)):
        raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")
    return grid


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mergeforge")
    parser.add_argument(
        "-v", dest="log_level", action="store_const", const=logging.INFO, default=logging.WARNING,
        help="print INFO log lines (default: warnings and errors only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a full search run")
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--output-dir", default=None, help="override the config output dir")

    p_mk = sub.add_parser("make-instance", help="build and save a benchmark instance")
    p_mk.set_defaults(handler=_cmd_make_instance)
    p_mk.add_argument("--seed", type=int, required=True)
    p_mk.add_argument("--d", type=int, required=True)
    p_mk.add_argument("--k", type=int, required=True)
    p_mk.add_argument("--noise", type=float, default=BenchmarkConfig.component_noise)
    p_mk.add_argument("--dev", type=int, default=BenchmarkConfig.n_dev)
    p_mk.add_argument("--test", type=int, default=BenchmarkConfig.n_test)
    p_mk.add_argument("--overlap", type=float, default=BenchmarkConfig.overlap)
    p_mk.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score one merge program on an instance")
    p_eval.set_defaults(handler=_cmd_eval)
    p_eval.add_argument("--program", required=True, help="path to a .merge file")
    p_eval.add_argument("--instance", required=True)
    p_eval.add_argument("--budget", type=_positive_int, default=None)
    p_eval.add_argument("--probes", choices=("dev", "test"), default="dev")

    p_base = sub.add_parser("baseline", help="run a built-in baseline")
    base_sub = p_base.add_subparsers(dest="baseline", required=True)
    p_ta = base_sub.add_parser("task-arithmetic", help="grid-searched weighted sum")
    p_ta.set_defaults(handler=_cmd_baseline_task_arithmetic)
    p_ta.add_argument(
        "--grid", type=_grid, default=TASK_ARITHMETIC_GRID, help="comma-separated mixing ratios"
    )
    p_ta.add_argument("--instance", required=True)

    p_rep = sub.add_parser("report", help="regenerate CSV reports from run logs")
    p_rep.set_defaults(handler=_cmd_report)
    p_rep.add_argument("--run", required=True, help="run directory")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.output_dir is not None:
        config = dataclasses.replace(config, output_dir=args.output_dir)
    report = run_search(config)
    print(json.dumps({
        "s_best": report.s_best,
        "best_source": None if report.best is None else report.best.program.source,
        "output_dir": config.output_dir,
    }, sort_keys=True))
    return 0


def _cmd_make_instance(args) -> int:
    instance = benchmark.make_instance(
        args.seed, args.d, args.k, args.noise, (args.dev, args.test), args.overlap
    )
    benchmark.save_instance(instance, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    instance = benchmark.load_instance(args.instance)
    program = compile_program(Path(args.program).read_text())
    budget = EvalBudget(args.budget) if args.budget is not None else default_budget(instance.k, instance.d)
    if args.probes == "dev":
        probes, baseline = instance.dev_probes, instance.dev_baseline_mse
    else:
        probes, baseline = instance.test_probes, instance.test_baseline_mse
    value = score_program(
        program, instance.task_vectors(), instance.seed_model, probes, baseline, budget,
    )
    print(json.dumps({
        "hash": program.canonical_hash,
        "probes": args.probes,
        "score": value,
    }, sort_keys=True))
    return 0


def _cmd_baseline_task_arithmetic(args) -> int:
    instance = benchmark.load_instance(args.instance)
    result = task_arithmetic_baseline(instance, args.grid)
    print(json.dumps({
        "lambdas": result["lambdas"],
        "dev_score": result["dev"],
        "test_score": result["test"],
        "evaluations": result["evaluations"],
    }, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    report_dir = write_reports(args.run)
    print(f"wrote {report_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    logging.basicConfig(level=args.log_level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
