"""Command-line experiment runner.

Subcommands: `run` (one algorithm), `bench` (algorithm suite), `phistar`
(certified optimum), `check` (verification suite), `toygen` (emit a
synthetic returns file). Exit codes: 0 success, 1 input error, 2 run abort.
"""

import argparse
import math
import sys
from contextlib import nullcontext

from .errors import ConfigError, DivergenceError, InputError
from .harness import (ALGORITHMS, check_roster, open_output, polish_phi_star,
                      run_benchmark)
from .problems import (TOY_KINDS, build_bellman, build_mean_variance,
                       build_toy, load_returns_csv, random_bellman_spec,
                       synthetic_returns, write_returns_csv)
from .solver import SCHEDULES, RunConfig
from .verify import all_passed, run_all_checks, suite_inputs, write_report_csv


def _add_problem_flags(parser):
    parser.add_argument("--problem", choices=("meanvar", "bellman", "toy"),
                        default="meanvar")
    parser.add_argument("--data", default=None, help="returns CSV (meanvar)")
    parser.add_argument("--lambda", dest="lam", type=float, default=1e-2,
                        help="l1 weight")
    parser.add_argument("--radius", type=float, default=1.0, help="box radius")
    parser.add_argument("--n", type=int, default=200,
                        help="synthetic sample count (meanvar rows / bellman matrices"
                             " / toy inner maps)")
    parser.add_argument("--d", type=int, default=10, help="decision dimension")
    parser.add_argument("--states", type=int, default=10, help="bellman state count")
    parser.add_argument("--gamma", type=float, default=0.9, help="bellman discount")
    parser.add_argument("--toy-kind", choices=TOY_KINDS, default="affine")
    parser.add_argument("--problem-seed", type=int, default=0,
                        help="seed for synthetic problem generation")


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
    if args.problem == "meanvar":
        if args.data is not None:
            dataset = load_returns_csv(args.data)
        else:
            dataset = synthetic_returns(args.n, args.d, args.problem_seed)
        return build_mean_variance(dataset, lam=args.lam, radius=args.radius)
    if args.data is not None:
        raise InputError(f"--data is a returns file for --problem meanvar, not {args.problem}")
    if args.problem == "bellman":
        spec = random_bellman_spec(args.states, args.n, args.gamma, args.problem_seed)
        return build_bellman(spec, lam=args.lam, radius=args.radius)
    return build_toy(args.toy_kind, d=args.d, m=args.n, seed=args.problem_seed,
                     lam=args.lam, radius=args.radius)


def _parse_seeds(raw):
    try:
        return [int(s) for s in raw.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad seed list {raw!r}: {exc}") from None


def _parse_algos(raw):
    """Comma-separated names; `run_benchmark` rejects unknown ones."""
    return [a.strip() for a in raw.split(",") if a.strip()]


def _bench(args, algos):
    """Each config flag goes to the chosen algorithms that read it; one that no
    chosen algorithm reads is rejected, by its flag, before the problem is built."""
    params = {name: getattr(args, name) for name in _CONFIG_FLAGS
              if getattr(args, name) is not None}
    check_roster(algos, params, names=_CONFIG_FLAGS)
    path = run_benchmark(_build_problem(args), algos, args.budget, _parse_seeds(args.seed),
                         args.out, params)
    print(f"wrote {path}")
    return 0


def _phistar(args):
    if not 0 < args.budget < math.inf:
        raise InputError(f"optimum budget must be positive and finite, got {args.budget}")
    problem = _build_problem(args)
    budget = max(int(args.budget * problem.N), 100 * (problem.dims.m + problem.dims.n))
    result = polish_phi_star(problem, budget)
    print(repr(result.value))
    print(f"bound {result.bound!r} after {result.gradients} full gradients", file=sys.stderr)
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
    """Writes the synthetic returns of the mean-variance problem `run` would
    build, after building it, so a size that `run` refuses writes nothing.
    Only a returns file has a reader (--data), so the other problems are refused."""
    if args.problem != "meanvar" or args.data is not None:
        raise InputError("toygen writes synthetic returns for --problem meanvar only, "
                         "and reads no --data file")
    dataset = synthetic_returns(args.n, args.d, args.problem_seed)
    build_mean_variance(dataset, lam=args.lam, radius=args.radius)
    write_returns_csv(dataset, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="compopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single algorithm")
    _add_problem_flags(p_run)
    _add_algo_flags(p_run)
    p_run.add_argument("--algo", default="scvrg",
                       help="one algorithm: " + ",".join(ALGORITHMS))

    p_bench = sub.add_parser("bench", help="run an algorithm suite")
    _add_problem_flags(p_bench)
    _add_algo_flags(p_bench)
    p_bench.add_argument("--algo", default="scvrg,vrscpg",
                         help="comma-separated algorithms")

    p_phi = sub.add_parser("phistar", help="compute a certified optimum")
    _add_problem_flags(p_phi)
    p_phi.add_argument("--budget", type=float, default=200.0,
                       help="sample budget in units of N, spent as full gradients")

    p_check = sub.add_parser("check", help="run the verification suite")
    p_check.add_argument("--check-seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=20_000)
    p_check.add_argument("--out", default=None, help="optional report CSV path")

    p_toy = sub.add_parser("toygen", help="emit a synthetic returns file")
    _add_problem_flags(p_toy)
    p_toy.add_argument("--out", default="problem_data.csv")
    return parser


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # from argparse: 2 after a usage error, 0 after --help
        return 1 if exc.code == 2 else exc.code
    try:
        if args.command == "run":
            algos = _parse_algos(args.algo)
            if len(algos) != 1:
                raise InputError("`run` takes exactly one algorithm; use `bench` for suites")
            return _bench(args, algos)
        if args.command == "bench":
            return _bench(args, _parse_algos(args.algo))
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
