"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import benchmark
from .config import ConfigError, load_config
from .driver import run as run_search, task_arithmetic_baseline
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mergeforge")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a full search run")
    p_run.add_argument("--config", required=True, help="JSON run configuration")
    p_run.add_argument("--output-dir", default=None, help="override the config output dir")

    p_mk = sub.add_parser("make-instance", help="build and save a benchmark instance")
    p_mk.add_argument("--seed", type=int, required=True)
    p_mk.add_argument("--d", type=int, required=True)
    p_mk.add_argument("--k", type=int, required=True)
    p_mk.add_argument("--noise", type=float, default=0.05)
    p_mk.add_argument("--dev", type=int, default=100)
    p_mk.add_argument("--test", type=int, default=1000)
    p_mk.add_argument("--overlap", type=float, default=0.25)
    p_mk.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score one merge program on an instance")
    p_eval.add_argument("--program", required=True, help="path to a .merge file")
    p_eval.add_argument("--instance", required=True)
    p_eval.add_argument("--budget", type=_positive_int, default=None)
    p_eval.add_argument("--probes", choices=("dev", "test"), default="dev")

    p_base = sub.add_parser("baseline", help="run a built-in baseline")
    base_sub = p_base.add_subparsers(dest="baseline", required=True)
    p_ta = base_sub.add_parser("task-arithmetic", help="grid-searched weighted sum")
    p_ta.add_argument("--grid", default="0.2,0.4,0.6", help="comma-separated mixing ratios")
    p_ta.add_argument("--instance", required=True)

    p_rep = sub.add_parser("report", help="regenerate CSV reports from run logs")
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
        rng_seed=args.seed, d=args.d, k=args.k, component_noise=args.noise,
        probe_counts=(args.dev, args.test), overlap=args.overlap,
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
    grid = tuple(float(g) for g in args.grid.split(","))
    result = task_arithmetic_baseline(instance, grid)
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
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "make-instance":
            return _cmd_make_instance(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "baseline":
            return _cmd_baseline_task_arithmetic(args)
        if args.command == "report":
            return _cmd_report(args)
        parser.error(f"unknown command {args.command!r}")
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
