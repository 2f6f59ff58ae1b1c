"""Command-line entry points for estimation, accounting, benchmarks and checks.

Every subcommand prints one JSON document (or writes it with --out), with
keys sorted so identical runs produce identical bytes. Exit codes: 0 on
success, 1 for input or configuration errors, 2 for bad command lines.
The default seed is 0, overridable with the UQE_SEED environment variable
or the --seed flag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from ._checks import check_beta, check_eps, check_finite, check_levels, check_protocol, check_q
from ._checks import check_multi_quantile_neighbor
from .accounting import (
    NeighborModel,
    QueryClass,
    compose_dp,
    guarantee_for,
    multi_quantile_guarantee,
)
from .aggregates import THRESHOLD_MODES, ClipMethod, SumConfig, dp_mean, dp_sum
from .bench import (
    ExperimentSpec,
    _check_finite,
    _pdf_curves,
    _write_pdf_curves,
    normalized_error_rows,
    records_to_json,
    run_quantile_experiment,
    run_sum_experiment,
)
from .datasets import SYNTHETIC_KINDS, generate_synthetic, load_csv
from .emq import BoundedRange
from .noise import NoiseKind, RandomSource
from .quantile import (
    Dataset,
    QuantileRequest,
    _complement,
    estimate_multiple_quantiles,
    estimate_quantile,
    estimate_quantile_unbounded,
    estimate_small_quantile_inverted,
    request_guarantee,
)
from .sparse_vector import DEFAULT_MAX_QUERIES
from .verify import DP_RATIO_MIN_TRIALS, SUITE_NAMES, run_verification_suite

ENV_SEED = "UQE_SEED"


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_SEED} must be an integer, got {raw!r}") from None


def _resolve_seed(args) -> int:
    return args.seed if args.seed is not None else _default_seed()


def _load_values(args):
    if args.input is None:
        raise ValueError("this subcommand needs --input pointing at a CSV file")
    if args.column is None:
        raise ValueError("--column is required with --input")
    return load_csv(args.input, args.column)


def _split_eps(args) -> tuple[float, float]:
    if args.eps1 is not None or args.eps2 is not None:
        if args.eps1 is None or args.eps2 is None:
            raise ValueError("give both --eps1 and --eps2, or just --epsilon")
        return args.eps1, args.eps2
    eps = args.epsilon if args.epsilon is not None else 1.0
    return eps / 2.0, eps / 2.0


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _emit(payload, out: str | None) -> None:
    """Write JSON text, or a dict as JSON, which has no inf or NaN."""
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _request(args, q: float, eps1: float, eps2: float) -> QuantileRequest:
    return QuantileRequest(
        q=q,
        eps1=eps1,
        eps2=eps2,
        beta=args.beta,
        noise=NoiseKind(args.noise),
        neighbor=NeighborModel(args.neighbor),
        max_queries=args.max_queries,
    )


def cmd_quantile(args) -> tuple[dict, int]:
    eps1, eps2 = _split_eps(args)
    req = _request(args, args.q, eps1, eps2)
    rng = RandomSource(_resolve_seed(args))
    if args.lower is not None and args.upper is not None:
        raise ValueError("give at most one of --lower / --upper")
    if args.lower is None:  # the unbounded and inverted estimators run at level 1 - q
        _complement(req)
    values = _load_values(args)
    common = {
        "q": req.q,
        "n": int(values.size),
        "eps1": req.eps1,
        "eps2": req.eps2,
        "beta": req.beta,
        "noise": req.noise.value,
        "neighbor": req.neighbor.value,
    }
    if args.lower is None and args.upper is None:
        est = estimate_quantile_unbounded(Dataset(values), req, rng)
        _check_finite([est.value], req.beta)
        g1 = request_guarantee(req)
        g2 = request_guarantee(replace(req, q=1.0 - req.q))
        payload = {
            "mode": "unbounded",
            "estimate": est.value,
            "exhausted": est.exhausted,
            "first_halt": est.first_halt,
            "second_halt": est.second_halt,
            "second_ran": est.second_ran,
            "guarantee_per_run": asdict(g1),
            "epsilon_total_worst_case": compose_dp((g1.eps_dp, g2.eps_dp)),
            **common,
        }
        return payload, 0
    if args.lower is not None:
        mode, run_q = "bounded", req.q
        est = estimate_quantile(Dataset(values, lower_bound=args.lower), req, rng)
    else:
        mode, run_q = "inverted", 1.0 - req.q
        est = estimate_small_quantile_inverted(Dataset(values), args.upper, req, rng)
    _check_finite([est.value], req.beta)
    payload = {
        "mode": mode,
        "estimate": est.value,
        "halt_index": est.halt_index,
        "exhausted": est.exhausted,
        "guarantee": asdict(request_guarantee(replace(req, q=run_q))),
        **common,
    }
    return payload, 0


def cmd_quantiles(args) -> tuple[dict, int]:
    eps1, eps2 = _split_eps(args)
    qs = _float_list(args.qs)
    req = _request(args, qs[0], eps1, eps2)
    rng = RandomSource(_resolve_seed(args))
    check_multi_quantile_neighbor(req.neighbor)
    check_levels(qs)
    values = _load_values(args)
    result = estimate_multiple_quantiles(
        Dataset(values, lower_bound=args.lower), qs, req, rng
    )
    _check_finite(result.estimates, req.beta)
    payload = {
        "qs": list(result.quantiles),
        "estimates": list(result.estimates),
        "exhausted": list(result.exhausted),
        "empty_slice": list(result.empty_slice),
        "n": int(values.size),
        "budget": asdict(result.budget),
    }
    return payload, 0


def cmd_sum(args) -> tuple[dict, int]:
    rng_range = BoundedRange(*args.range) if args.range is not None else None
    cfg = SumConfig(
        eps=args.epsilon,
        q=args.q,
        method=ClipMethod(args.method),
        beta=args.beta,
        emq_range=rng_range,
        threshold_mode=args.threshold_mode,
    )
    rng = RandomSource(_resolve_seed(args))
    values = _load_values(args)
    result = dp_mean(values, cfg, rng) if args.mean else dp_sum(values, cfg, rng)
    _check_finite([result.clip], cfg.beta)
    if not math.isfinite(result.estimate):
        raise ValueError("the released sum is not finite: the clipped data overflow a float")
    payload = asdict(result)
    payload["kind"] = "mean" if args.mean else "sum"
    payload["n"] = int(values.size)
    payload["q"] = cfg.q
    payload["method"] = cfg.method.value
    return payload, 0


def cmd_account(args) -> tuple[dict, int]:
    noise = NoiseKind(args.noise)
    if args.q is not None:
        check_q(args.q)
    if args.num_quantiles is not None:
        if args.query_class is not None or args.q is not None:
            raise ValueError("--num-quantiles gives the joint budget: drop --query-class and --q")
        check_multi_quantile_neighbor(NeighborModel(args.neighbor))
        budget = multi_quantile_guarantee(args.num_quantiles, args.eps1, args.eps2, noise)
        return {"multi_quantile": asdict(budget)}, 0
    if args.query_class is None:
        raise ValueError("give --query-class, or --num-quantiles for the joint budget")
    guarantee = guarantee_for(
        QueryClass(args.query_class),
        NeighborModel(args.neighbor),
        noise,
        args.eps1,
        args.eps2,
        q=args.q,
    )
    payload = {
        "query_class": args.query_class,
        "neighbor": args.neighbor,
        "noise": noise.value,
        "eps1": args.eps1,
        "eps2": args.eps2,
        "guarantee": asdict(guarantee),
    }
    if args.q is not None:
        payload["q"] = args.q
    return payload, 0


def _bench_data(args):
    if args.synthetic is not None:
        if args.input is not None:
            raise ValueError("give either --synthetic or --input, not both")
        rng = RandomSource(_resolve_seed(args)).spawn(999)
        return generate_synthetic(args.synthetic, args.n, rng), args.synthetic
    values = _load_values(args)
    return values, Path(args.input).stem


def cmd_bench(args) -> tuple[str, int]:
    if args.experiment == "sum" and (args.curves is not None or args.round):
        flag = "--curves" if args.curves is not None else "--round"
        raise ValueError(f"{flag} applies to the quantile experiment only")
    qs = _float_list(args.qs) if args.qs is not None else tuple(
        round(0.05 + 0.05 * i, 2) for i in range(19)
    )
    protocol = {
        "sample_size": args.sample_size,
        "outer_trials": args.outer,
        "inner_trials": args.inner,
        "seed": _resolve_seed(args),
        "eps_grid": _float_list(args.eps),
        "quantile_grid": qs,
        "methods": tuple(args.methods.split(",")),
        "perturb_scale": args.perturb_scale,
        "beta": args.beta,
        "sum_beta": args.sum_beta,
    }
    check_protocol(**protocol)
    declared_range = BoundedRange(*args.range)
    data, name = _bench_data(args)
    spec = ExperimentSpec(data, name, declared_range, round_outputs=args.round, **protocol)
    if args.experiment == "quantile":
        records = run_quantile_experiment(spec)
        if args.curves is not None:
            rows = normalized_error_rows(records)
            lines = ["eps,q,method,mae,normalized"]
            lines += [
                f"{r['eps']!r},{r['q']!r},{r['method']},{r['mae']!r},{r['normalized']!r}"
                for r in rows
            ]
            Path(args.curves).write_text("\n".join(lines) + "\n")
    else:
        records = run_sum_experiment(spec)
    return records_to_json(records, include_runtime=args.include_runtime), 0


def cmd_verify(args) -> tuple[dict, int]:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    suites = [
        run_verification_suite(name, seed=_resolve_seed(args), trials=args.trials)
        for name in names
    ]
    passed = all(s["passed"] for s in suites)
    return {"passed": passed, "suites": suites}, 0 if passed else 1


def cmd_pdf(args) -> tuple[dict, int]:
    ranges = [BoundedRange(lo, hi) for lo, hi in args.ranges or [[0.0, 10.0], [0.0, 20.0]]]
    check_q(args.q)
    check_eps(args.epsilon)
    check_beta(args.beta)
    check_finite(args.lower, "the lower bound")
    values = _load_values(args)
    # every curve before any file, so an error leaves none
    curves = [_pdf_curves(values, r, args.q, args.epsilon, args.beta, args.lower) for r in ranges]
    written = []
    for r, rows in zip(ranges, curves):
        label = f"{r.a:g}to{r.b:g}".replace("-", "m").replace(".", "p")
        written.extend(str(p) for p in _write_pdf_curves(rows, args.out_dir, label).values())
    return {"written": written}, 0


def _names(kinds) -> list[str]:
    """An enum's values, the names its command-line options accept."""
    return [k.value for k in kinds]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="uqe",
        description="Differentially private quantiles without data bounds, "
        "plus accounting, sums, benchmarks and statistical self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    io_p = argparse.ArgumentParser(add_help=False)
    io_p.add_argument("--input", help="CSV file to read")
    io_p.add_argument("--column", help="column name inside the CSV")
    io_p.add_argument("--out", help="write the JSON result here instead of stdout")

    seed_p = argparse.ArgumentParser(add_help=False)
    seed_p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default {ENV_SEED} or 0)")

    eps_p = argparse.ArgumentParser(add_help=False)
    eps_p.add_argument("--epsilon", type=float, default=None, help="total budget, split evenly")
    eps_p.add_argument("--eps1", type=float, default=None, help="threshold-noise budget")
    eps_p.add_argument("--eps2", type=float, default=None, help="per-query-noise budget")

    mech_p = argparse.ArgumentParser(add_help=False)
    mech_p.add_argument("--beta", type=float, default=1.001, help="grid ratio (> 1)")
    mech_p.add_argument("--noise", default="expo", choices=_names(NoiseKind))
    mech_p.add_argument("--neighbor", default="swap", choices=_names(NeighborModel))
    mech_p.add_argument("--max-queries", type=int, default=DEFAULT_MAX_QUERIES)

    p = sub.add_parser(
        "quantile",
        parents=[io_p, seed_p, eps_p, mech_p],
        help="one private quantile (bounded below, bounded above, or unbounded)",
    )
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--lower", type=float, default=None, help="public lower bound")
    p.add_argument("--upper", type=float, default=None, help="public upper bound (inverted run)")
    p.set_defaults(handler=cmd_quantile)

    p = sub.add_parser(
        "quantiles",
        parents=[io_p, seed_p, eps_p, mech_p],
        help="several quantiles jointly via recursive splitting",
    )
    p.add_argument("--qs", required=True, help="comma-separated quantile levels")
    p.add_argument("--lower", type=float, required=True)
    p.set_defaults(handler=cmd_quantiles)

    p = sub.add_parser(
        "sum", parents=[io_p, seed_p], help="private sum or mean with a private clip"
    )
    p.add_argument("--epsilon", type=float, default=1.0, help="budget per stage (total is 2x)")
    p.add_argument("--q", type=float, default=0.99, help="clip quantile level")
    p.add_argument("--method", default="uqe", choices=_names(ClipMethod))
    p.add_argument("--beta", type=float, default=1.01)
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"), default=None)
    p.add_argument("--threshold-mode", default=None, choices=THRESHOLD_MODES)
    p.add_argument("--mean", action="store_true", help="release the mean instead of the sum")
    p.set_defaults(handler=cmd_sum)

    p = sub.add_parser("account", help="privacy guarantees without running anything")
    p.add_argument("--query-class", default=None, choices=_names(QueryClass))
    p.add_argument("--neighbor", default="swap", choices=_names(NeighborModel))
    p.add_argument("--noise", default="expo", choices=_names(NoiseKind))
    p.add_argument("--eps1", type=float, default=0.5)
    p.add_argument("--eps2", type=float, default=0.5)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--num-quantiles", type=int, default=None, help="joint budget for m quantiles")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_account)

    p = sub.add_parser(
        "bench", parents=[io_p, seed_p], help="resampling error benchmark (JSON records)"
    )
    p.add_argument("--synthetic", choices=list(SYNTHETIC_KINDS), default=None)
    p.add_argument("--n", type=int, default=5000, help="synthetic dataset size")
    p.add_argument("--experiment", default="quantile", choices=["quantile", "sum"])
    p.add_argument("--range", type=float, nargs=2, metavar=("LO", "HI"), required=True)
    p.add_argument("--sample-size", type=int, default=500)
    p.add_argument("--outer", type=int, default=20)
    p.add_argument("--inner", type=int, default=50)
    p.add_argument("--eps", type=str, default="1.0", help="comma-separated budgets")
    p.add_argument("--qs", type=str, default=None, help="comma-separated quantile levels")
    p.add_argument("--methods", default="uqe,emq")
    p.add_argument("--perturb-scale", type=float, default=0.1)
    p.add_argument("--beta", type=float, default=1.001)
    p.add_argument("--sum-beta", type=float, default=1.001)
    p.add_argument(
        "--round", action="store_true", help="round outputs to integers (quantile experiment only)"
    )
    p.add_argument("--include-runtime", action="store_true")
    p.add_argument("--curves", default=None, help="also write normalized-error CSV here")
    p.set_defaults(handler=cmd_bench)

    p = sub.add_parser("verify", help="statistical self-checks")
    p.add_argument("--suite", default="all", choices=["all", *SUITE_NAMES])
    p.add_argument(
        "--trials",
        type=int,
        default=200_000,
        help=f"Monte Carlo trials per check; dp-ratio runs at least {DP_RATIO_MIN_TRIALS:,}",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser(
        "pdf", parents=[io_p], help="step-density curves under different assumed ranges"
    )
    p.add_argument("--q", type=float, default=0.9)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.001)
    p.add_argument("--lower", type=float, default=0.0)
    p.add_argument(
        "--ranges",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        action="append",
        default=None,
        help="repeatable; default is 0 10 and 0 20",
    )
    p.add_argument("--out-dir", default="figures")
    p.set_defaults(handler=cmd_pdf)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, code = args.handler(args)
        _emit(payload, getattr(args, "out", None))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
