"""Command-line experiment runner.

Subcommands: `bench` (one algorithm or a suite), `phistar` (certified
optimum), `check` (verification suite), `toygen` (emit a synthetic returns
file). Exit codes: 0 success, 1 input error, 2 run abort.
"""

import argparse
import math
import sys
from contextlib import nullcontext

import numpy as np

from .errors import ConfigError, DivergenceError, InputError
from .harness import (ALGORITHMS, check_roster, open_output, polish_phi_star,
                      run_benchmark)
from .problem import full_gradient
from .problems import (TOY_KINDS, build_bellman, build_mean_variance,
                       build_toy, load_returns_csv, synthetic_returns,
                       write_returns_csv)
from .prox import prox_step
from .solver import SCHEDULES, RunConfig
from .verify import all_passed, run_all_checks, suite_inputs, write_report_csv


#: the synthetic draw's size and seed flags with their defaults; --data refuses them
_SIZE_FLAGS = {"--n": 200, "--d": 10, "--problem-seed": 0}


def _add_size_flags(parser):
    parser.add_argument("--n", type=int, help="synthetic rows: meanvar returns, bellman "
                        f"matrices, toy inner maps (default {_SIZE_FLAGS['--n']})")
    parser.add_argument("--d", type=int, help="decision dimension, bellman's state count "
                        f"(default {_SIZE_FLAGS['--d']})")
    parser.add_argument("--problem-seed", type=int, help="synthetic data seed, >= 0 "
                        f"(default {_SIZE_FLAGS['--problem-seed']})")


def _value(args, flag):
    return getattr(args, flag[2:].replace("-", "_"))


def _sizes(args):
    """n, d and the data seed of the synthetic draw, each defaulted where unset."""
    return [default if _value(args, flag) is None else _value(args, flag)
            for flag, default in _SIZE_FLAGS.items()]


#: the problem that reads each problem-specific flag; every other problem refuses it
_PROBLEM_FLAGS = {"--data": "meanvar", "--gamma": "bellman", "--toy-kind": "toy"}


def _add_problem_flags(parser):
    parser.add_argument("--problem", choices=("meanvar", "bellman", "toy"),
                        default="meanvar")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="l1 weight (default: meanvar 0.01, bellman and toy 0)")
    parser.add_argument("--radius", type=float,
                        help="box radius (default: meanvar 1, bellman 100, toy 1)")
    _add_size_flags(parser)
    parser.add_argument("--data", help="meanvar returns CSV, in place of the synthetic draw")
    parser.add_argument("--gamma", type=float, help="bellman discount (default 0.9)")
    parser.add_argument("--toy-kind", choices=TOY_KINDS, help="toy inner maps (default affine)")


#: the flag that sets each RunConfig field, as errors name it
_CONFIG_FLAGS = {"k0": "--k0", "S": "--epochs", "eta": "--eta", "a": "--a", "b": "--b",
                 "schedule": "--schedule"}


def _add_algo_flags(parser):
    parser.add_argument("--k0", type=int, help=f"first epoch length (default {RunConfig.k0})")
    parser.add_argument("--epochs", dest="S", type=int,
                        help="epoch count S >= 1 (default: fit to budget)")
    parser.add_argument("--eta", type=float, help=f"base step size (default {RunConfig.eta})")
    parser.add_argument("--a", type=int, help=f"inner batch size (default {RunConfig.a})")
    parser.add_argument("--b", type=int, help=f"outer batch size (default {RunConfig.b})")
    parser.add_argument("--budget", type=float, default=30.0,
                        help="sample budget in units of N")
    parser.add_argument("--seed", default="0", help="comma-separated seed list")
    parser.add_argument("--schedule", choices=SCHEDULES,
                        help=f"step schedule (default {RunConfig.schedule})")
    parser.add_argument("--out", default="trace.csv", help="output CSV path")


def _build_problem(args):
    """Each problem's builder sets the --lambda and --radius that are not given."""
    for flag, problem in _PROBLEM_FLAGS.items():
        if problem != args.problem and _value(args, flag) is not None:
            raise InputError(f"{flag} is read only by --problem {problem}, not {args.problem}")
    given = {name: value for name, value in (("lam", args.lam), ("radius", args.radius))
           if value is not None}
    if args.data is not None:
        unread = [flag for flag in _SIZE_FLAGS if _value(args, flag) is not None]
        if unread:
            raise InputError(
                f"{', '.join(unread)} not read with --data, whose file sets the returns")
        return build_mean_variance(load_returns_csv(args.data), **given)
    n, d, seed = _sizes(args)
    if args.problem == "meanvar":
        return build_mean_variance(synthetic_returns(n, d, seed), **given)
    if args.problem == "bellman":
        gamma = 0.9 if args.gamma is None else args.gamma
        return build_bellman(d, n, gamma, seed, **given)
    return build_toy(args.toy_kind or "affine", d=d, m=n, seed=seed, **given)


def _screen_start(problem):
    """One stderr line when x = 0, where every run and the optimum's polish
    start, already passes the prox-gradient optimality test prox(0 - grad F(0)
    / ell, 1 / ell) = 0, that is |grad F(0)_i| <= lambda in every coordinate:
    such an instance measures nothing. The test costs one full gradient."""
    ell = problem.smoothness().ell
    grad = full_gradient(problem, np.zeros(problem.dims.d))
    if not prox_step(problem.regularizer, -grad / ell, 1.0 / ell).any():
        print("note: the start point x = 0 is already optimal: "
              "prox(0 - grad F(0) / ell, 1 / ell) = 0", file=sys.stderr)


def _parse_seeds(raw):
    try:
        return [int(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad seed list {raw!r}: {exc}") from None


def _bench(args):
    """One algorithm or a comma-separated roster, whose unknown names
    `run_benchmark` rejects. Each config flag goes to the chosen algorithms
    that read it; one that no chosen algorithm reads is rejected, by its flag,
    before the problem is built."""
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    params = {name: getattr(args, name) for name in _CONFIG_FLAGS
              if getattr(args, name) is not None}
    check_roster(algos, params, names=_CONFIG_FLAGS)
    problem = _build_problem(args)
    path = run_benchmark(problem, algos, args.budget, _parse_seeds(args.seed), args.out, params)
    print(f"wrote {path}")
    _screen_start(problem)
    return 0


def _phistar(args):
    if not 0 < args.budget < math.inf:
        raise InputError(f"optimum budget must be positive and finite, got {args.budget}")
    problem = _build_problem(args)
    budget = max(int(args.budget * problem.N), 100 * (problem.dims.m + problem.dims.n))
    result = polish_phi_star(problem, budget)
    print(repr(result.value))
    print(f"bound {result.bound!r} after {result.gradients} full gradients", file=sys.stderr)
    _screen_start(problem)
    return 0


def _check(args):
    """A bad seed or trial count is refused before --out is opened, and an
    unwritable --out before the first check runs."""
    suite_inputs(args.check_seed, args.trials)
    with nullcontext() if args.out is None else open_output(args.out) as report_file:
        reports = run_all_checks(seed=args.check_seed, trials=args.trials)
        for report in reports:
            print(report.format_line())
        if report_file is not None:
            write_report_csv(reports, report_file)
            print(f"wrote {args.out}")
    return 0 if all_passed(reports) else 1


def _toygen(args):
    """Writes the returns `bench --problem meanvar` draws; a size `bench` refuses writes nothing."""
    write_returns_csv(synthetic_returns(*_sizes(args)), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compopt-cli", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run one algorithm or a suite", allow_abbrev=False)
    _add_problem_flags(p_bench)
    _add_algo_flags(p_bench)
    p_bench.add_argument("--algo", default="scvrg,vrscpg",
                         help="comma-separated algorithms: " + ",".join(ALGORITHMS))

    p_phi = sub.add_parser("phistar", help="compute a certified optimum", allow_abbrev=False)
    _add_problem_flags(p_phi)
    p_phi.add_argument("--budget", type=float, default=200.0,
                       help="sample budget in units of N, spent as full gradients")

    p_check = sub.add_parser("check", help="run the verification suite", allow_abbrev=False)
    p_check.add_argument("--check-seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=20_000)
    p_check.add_argument("--out", default=None, help="optional report CSV path")

    p_toy = sub.add_parser("toygen", help="emit a synthetic returns file", allow_abbrev=False)
    _add_size_flags(p_toy)
    p_toy.add_argument("--out", default="problem_data.csv")
    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # from argparse: 2 after a usage error, 0 after --help
        return 1 if exc.code == 2 else exc.code
    try:
        if args.command == "bench":
            return _bench(args)
        if args.command == "phistar":
            return _phistar(args)
        if args.command == "check":
            return _check(args)
        return _toygen(args)  # the parser admits no other command
    except (InputError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
