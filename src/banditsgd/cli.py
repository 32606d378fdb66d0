"""Command-line entry points: run, compare, bounds, verify."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, harness, verify
from .latency import WorkerPool


def _build_config(args) -> harness.ExperimentConfig:
    overrides = {}
    for key in ("schedule", "variant", "out_dir", "seeds", "policies"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "config", None):
        return harness.ExperimentConfig.from_file(args.config, **overrides)
    return harness.ExperimentConfig.from_mapping(overrides)


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
        print(
            f"{policy}: final_error={entry['final_error_mean']:.6g} "
            f"time={entry['final_time_mean']:.2f} employments={entry['total_employments']}"
        )
    print(f"tables -> {config.out_dir}")
    return 0


def _cmd_bounds(args) -> int:
    config = _build_config(args)
    if args.rates:
        pool = WorkerPool(np.array([float(tok) for tok in args.rates.split(",")]))
    else:
        pool = harness.build_pool(config, config.seeds[0])
    if pool.n < config.b:
        raise ValueError(f"pool has {pool.n} workers but b={config.b}")
    problem = None
    if config.switching_points() is None:
        if not config.simulate_sgd:
            raise ValueError("computed schedule mode needs simulate_sgd=true")
        problem = harness.build_problem(config, config.seeds[0])
    schedule, _ = harness.resolve_schedule(config, problem)

    gaps = analysis.compute_gaps(pool, schedule)
    js = [int(tok) for tok in args.j.split(",")] if args.j else list(schedule.switching_points)
    eps_grid = [float(tok) for tok in args.eps.split(",")]
    payload = {
        "rates": pool.rates.tolist(),
        "switching_points": list(schedule.switching_points),
        "budget": schedule.budget,
        "optimal_means": gaps.optimal_means.tolist(),
        "worst_means": gaps.worst_means.tolist(),
        "delta_max": gaps.delta_max.tolist(),
        "delta_min": gaps.delta_min,
        "regret_bounds": [],
        "time_bounds": [],
    }
    bound_ok = pool.theorem_valid and 0.0 < gaps.delta_min < float("inf")
    for j in js:
        row = {"iter": j}
        if bound_ok:
            plain = analysis.regret_bound(pool, schedule, j, gaps=gaps, tail_term=config.bound_tail_term)
            truncated = analysis.regret_bound(
                pool, schedule, j, gaps=gaps, tail_term=config.bound_tail_term, log_truncated=True
            )
            row.update(
                bound_log_iter=plain,
                bound_log_truncated=truncated,
                bound_tighter=min(plain, truncated),
            )
        payload["regret_bounds"].append(row)
        for eps in eps_grid:
            regret = args.regret
            if regret is None:
                regret = row.get("bound_tighter", 0.0)
            time_bound, prob = analysis.completion_time_bound(pool, schedule, j, regret, eps)
            payload["time_bounds"].append(
                {"iter": j, "epsilon": eps, "regret": regret, "time_bound": time_bound, "probability": prob}
            )
    if not bound_ok:
        payload["regret_bound_note"] = (
            "regret bound skipped: needs every rate >= 1 and a positive finite minimum gap"
        )
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"bounds -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify(args) -> int:
    config = _build_config(args)
    lists = args.lists if args.lists is not None else config.mc_lists
    samples = args.samples if args.samples is not None else config.mc_samples
    results = verify.oracle_suite(lists, samples, args.trials, args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"{status} {res.name}: {res.detail}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="banditsgd",
        description="Seeded simulator for cost-efficient distributed SGD with bandit worker selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--schedule", help="'computed' or comma-separated switching points")
        p.add_argument("--variant", choices=("plain", "scaled"), help="radius variant for the bare 'cmab' policy")

    p_run = sub.add_parser("run", help="run one policy/seed and write its trace CSV")
    add_common(p_run)
    p_run.add_argument("--policy", required=True, choices=harness.POLICY_NAMES)
    p_run.add_argument("--seed", required=True, type=int)
    p_run.add_argument("--out", required=True, help="trace CSV path")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run all configured policies/seeds and write figure tables")
    add_common(p_cmp)
    p_cmp.add_argument("--out", dest="out_dir", help="output directory")
    p_cmp.add_argument("--seeds", help="comma-separated seed list override")
    p_cmp.add_argument("--policies", help="comma-separated policy list override")
    p_cmp.set_defaults(func=_cmd_compare)

    p_bnd = sub.add_parser("bounds", help="evaluate gap, regret, and completion-time bounds")
    add_common(p_bnd)
    p_bnd.add_argument("--rates", help="comma-separated worker rates (else sampled from the config)")
    p_bnd.add_argument("--j", help="comma-separated iterations (default: switching points)")
    p_bnd.add_argument("--eps", default="0.5,1,2", help="comma-separated confidence parameters")
    p_bnd.add_argument("--regret", type=float, help="regret value for the time bound (default: worst-case bound)")
    p_bnd.add_argument("--out", help="JSON output path (default: stdout)")
    p_bnd.set_defaults(func=_cmd_bounds)

    p_ver = sub.add_parser("verify", help="Monte Carlo oracle suite")
    add_common(p_ver)
    p_ver.add_argument("--lists", type=int, help="random rate lists per closed-form check")
    p_ver.add_argument("--samples", type=int, help="Monte Carlo samples per list")
    p_ver.add_argument("--trials", type=int, default=100_000, help="trials per tail-bound cell")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
