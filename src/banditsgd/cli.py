"""Command-line entry points: run, compare, bounds, verify."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import math
import sys

from . import analysis, harness, verify
from .latency import WorkerPool

logger = logging.getLogger(__name__)


def _build_config(args) -> harness.ExperimentConfig:
    """The config file (if any), overridden by every given flag whose dest is a config field."""
    fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    overrides = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if args.config:
        return harness.ExperimentConfig.from_file(args.config, **overrides)
    return harness.ExperimentConfig.from_mapping(overrides)


def _comma_list(kind):
    """An argparse ``type`` for comma-separated ``kind`` values; argparse names the flag of a bad one."""

    def parse(text: str) -> list:
        return [kind(tok) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _cmd_run(args) -> int:
    config = _build_config(args)
    trace = harness.run_single(config, args.policy, args.seed)
    harness.write_trace_csv(trace, args.out)
    final_err = trace.model_errors[-1]
    print(
        f"{args.policy} seed={args.seed}: {len(trace)} iterations, "
        f"budget={trace.schedule.budget}, time={trace.cum_times[-1]:.4f}, "
        f"final_error={final_err:.6g} -> {args.out}"
    )
    return 0


def _cmd_compare(args) -> int:
    config = _build_config(args)
    if config.out_dir is None:
        raise ValueError("compare needs --out (or out_dir in the config file)")
    result = harness.run_comparison(config)
    for policy, entry in result["summary"]["policies"].items():
        final_error = entry["final_error_mean"]  # null in summary.json when latency-only
        print(
            f"{policy}: final_error={math.nan if final_error is None else final_error:.6g} "
            f"time={entry['final_time_mean']:.2f} employments={entry['total_employments']}"
        )
    print(f"tables -> {config.out_dir}")
    return 0


def _cmd_bounds(args) -> int:
    config = _build_config(args)
    pool = WorkerPool(args.rates) if args.rates is not None else harness.build_pool(config, config.seeds[0])
    if pool.n < config.b:
        raise ValueError(f"pool has {pool.n} workers but b={config.b}")
    computed = config.switching_points() is None
    problem = harness.build_problem(config, config.seeds[0]) if computed else None
    schedule = harness.resolve_schedule(config, problem)

    js = list(schedule.switching_points) if args.j is None else args.j
    schedule.rounds_of(js)  # checked before any output, whatever --eps holds
    if not js or not args.eps:
        raise ValueError("--j and --eps each need at least one value")
    gaps = analysis.compute_gaps(pool, schedule)
    payload = {
        "rates": pool.rates.tolist(),
        "switching_points": list(schedule.switching_points),
        "budget": schedule.budget,
        "optimal_means": gaps.optimal_means.tolist(),
        "worst_means": gaps.worst_means.tolist(),
        "delta_max": gaps.delta_max.tolist(),
        "delta_min": gaps.delta_min if math.isfinite(gaps.delta_min) else None,  # None: no strictly slower choice
        "regret_bounds": [],
        "time_bounds": [],
    }
    table = analysis.regret_bound_table(pool, schedule, js, gaps=gaps)
    for i, j in enumerate(js):
        row = {"iter": j}
        if table is not None:
            row.update((name, float(column[i])) for name, column in table.items())
        payload["regret_bounds"].append(row)
        for eps in args.eps:
            regret = args.regret
            if regret is None:
                regret = row.get("bound_tighter", 0.0)
            time_bound, prob = analysis.completion_time_bound(pool, schedule, j, regret, eps, gaps=gaps)
            payload["time_bounds"].append(
                {"iter": j, "epsilon": eps, "regret": regret, "time_bound": time_bound, "probability": prob}
            )
    if table is None:
        payload["regret_bound_note"] = (
            "regret bound skipped: needs every rate >= 1 and a positive finite minimum gap"
        )
    text = json.dumps(payload, indent=2, allow_nan=False)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"bounds -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    results = verify.oracle_suite(args.lists, args.samples, args.trials, args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"{status} {res.name}: {res.detail}")
    return 1 if failed else 0


@contextlib.contextmanager
def _log_to_stderr(level):
    """Show the package's log records at ``level`` and above on stderr, and no others."""
    package = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = package.level
    package.addHandler(handler)
    package.setLevel(level.upper())
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(saved)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banditsgd",
        description="Seeded simulator for cost-efficient distributed SGD with bandit worker selection",
        allow_abbrev=False,  # a flag is spelled in full, never by a prefix
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p):
        levels = ("debug", "info", "warning", "error")
        p.add_argument("--log-level", choices=levels, default="warning", help="write log records to stderr")

    p_run = add_parser("run", help="run one policy/seed and write its trace CSV")
    add_common(p_run)
    p_run.add_argument("--policy", required=True, choices=harness.POLICY_NAMES)
    p_run.add_argument("--seed", required=True, type=int)
    p_run.add_argument("--out", required=True, help="trace CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = add_parser("compare", help="run all configured policies/seeds and write figure tables")
    add_common(p_cmp)
    p_cmp.add_argument("--out", dest="out_dir", help="output directory")
    p_cmp.add_argument("--seeds", help="comma-separated seed list override")
    p_cmp.add_argument("--policies", help="comma-separated policy list override")
    p_cmp.set_defaults(func=_cmd_compare)

    p_bnd = add_parser("bounds", help="evaluate gap, regret, and completion-time bounds")
    add_common(p_bnd)
    floats = _comma_list(float)
    p_bnd.add_argument("--rates", type=floats, help="comma-separated worker rates (else sampled from the config)")
    p_bnd.add_argument("--j", type=_comma_list(int), help="comma-separated iterations (default: switching points)")
    p_bnd.add_argument("--eps", type=floats, default="0.5,1,2", help="comma-separated confidence parameters")
    p_bnd.add_argument("--regret", type=float, help="regret value for the time bound (default: worst-case bound)")
    p_bnd.add_argument("--out", help="JSON output path (default: stdout)")
    p_bnd.set_defaults(func=_cmd_bounds)

    for p in (p_run, p_cmp, p_bnd):  # verify reads no config and no schedule
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--schedule", help="'computed' or comma-separated switching points")

    p_ver = add_parser("verify", help="Monte Carlo oracle suite")
    add_common(p_ver)
    lists_help = "random rate lists of the mean check; the variance check runs max(lists // 2, 5)"
    p_ver.add_argument("--lists", type=int, default=50, help=lists_help)
    p_ver.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo samples per list")
    p_ver.add_argument("--trials", type=int, default=100_000, help="trials per tail-bound cell")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with _log_to_stderr(args.log_level):
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:  # any other fault still gets a message and the exit code
            logger.debug("unexpected fault in %s", args.command, exc_info=exc)
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
