"""Experiment runner: builds problems, computes reference optima, runs
algorithm suites and writes plot-ready trace CSVs."""

import logging
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from . import baselines
from .errors import ConfigError, DivergenceError, InputError
from .problem import CompositionProblem, full_gradient, objective
from .prox import prox_step
from .solver import RunConfig, predicted_total_samples, run_scvrg
from .trace import TRACE_HEADER, Recorder

log = logging.getLogger(__name__)

#: the RunConfig fields each algorithm reads; a run's `params` may set only these
FIELDS_READ = {"scvrg": {"S", "k0", "eta", "a", "b", "schedule"},
               "vrscpg": {"eta", "a", "b"},
               "scgd": set(), "ascpg": set(), "agd": set()}
ALGORITHMS = tuple(FIELDS_READ)

#: each algorithm's runner, (problem, config, x0, recorder) -> final iterate; a
#: runner is looked up when called, so a patched or traced function is the one run
RUNNERS = {"scvrg": lambda *run: run_scvrg(*run).x,
           "vrscpg": lambda *run: baselines.run_vrscpg(*run),
           "scgd": lambda *run: baselines.run_scgd(*run),
           "ascpg": lambda *run: baselines.run_ascpg(*run),
           "agd": lambda *run: baselines.run_agd(*run)}


@dataclass(frozen=True)
class PhiStar:
    """value = Phi(x+), value - Phi* <= bound, after `gradients` full gradients."""

    value: float
    bound: float
    gradients: int


def polish_phi_star(problem: CompositionProblem, budget: int) -> PhiStar:
    """Restart-FISTA from x = 0 within budget // (m + n) full gradients.

    Step 1/L backtracks on the gradient test ||grad F(x+) - grad F(y)|| <=
    L ||x+ - y|| (Beck & Teboulle 2009), which roundoff near the optimum does
    not trip as it does a function-value test: L starts at ell / 4096, doubles
    per failed trial up to the closed-form ell and shrinks by 0.9 per step.
    Momentum restarts when (y - x+).(x+ - x) > 0 (O'Donoghue & Candes 2015).
    Stops once G = L (y - x+) has ||G|| <= 1e-12 (||grad F(y)|| + 1).
    Bound: s = G + grad F(x+) - grad F(y) is a subgradient of Phi at x+, so
    for convex F, Phi(x+) - Phi* <= ||s|| 2 R sqrt(d) whatever L is. The
    gradient test gives ||s|| <= 2 ||G||; roundoff in s is ~1e-16 ||grad F||.
    """
    m, n = problem.dims.m, problem.dims.n
    if budget < 100 * (m + n):
        raise ConfigError(f"optimum budget must be >= 100 * (m + n) = {100 * (m + n)}")
    reg = problem.regularizer
    ell = problem.smoothness().ell
    cap, L, t_k, bound, used, grad_y = budget // (m + n), ell / 4096, 1.0, math.inf, 0, None
    x = y = np.zeros(problem.dims.d)
    while used + (grad_y is None) < cap:
        if grad_y is None:
            grad_y, used = full_gradient(problem, y), used + 1
        x_new = prox_step(reg, y - grad_y / L, 1.0 / L)
        grad_new, used = full_gradient(problem, x_new), used + 1
        if L < ell and np.linalg.norm(grad_new - grad_y) > L * np.linalg.norm(x_new - y):
            L = min(2.0 * L, ell)
            continue
        G = L * (y - x_new)
        bound = float(np.linalg.norm(G + grad_new - grad_y) * 2.0 * reg.radius * math.sqrt(x.size))
        x_prev, x = x, x_new
        if np.linalg.norm(G) <= 1e-12 * (np.linalg.norm(grad_y) + 1.0):
            break
        if (y - x) @ (x - x_prev) > 0.0:
            t_k, y, grad_y = 1.0, x, grad_new
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            t_k, y, grad_y = t_next, x + ((t_k - 1.0) / t_next) * (x - x_prev), None
        L *= 0.9
    else:
        log.warning("phi_star polish did not converge within %d full gradients", cap)
    log.info("phi_star polish: L = %.3g, closed-form ell = %.3g (%.0fx), "
             "%d full gradients, certificate %.3g", L, ell, ell / L, used, bound)
    return PhiStar(objective(problem, x), bound, used)


def compute_phi_star(problem: CompositionProblem, budget: int) -> float:
    """`polish_phi_star(problem, budget).value`: at most budget // (m + n) full gradients."""
    return polish_phi_star(problem, budget).value


def scvrg_config_for_budget(problem: CompositionProblem, max_samples: int,
                            seed: int, **knobs) -> RunConfig:
    """Largest doubling-epoch schedule that RunConfig accepts and whose exact
    sample count fits the budget; `knobs` are the other RunConfig fields.

    Returns S=1 even when one epoch costs more than the budget, and logs a
    warning then: such a run stops inside its first epoch.
    """
    if max_samples is None:
        raise ConfigError("scvrg fits its epoch count to its sample budget: "
                          "max_samples is required")
    m, n = problem.dims.m, problem.dims.n
    config = RunConfig(S=1, seed=seed, **knobs)
    epoch_cost = predicted_total_samples(config, m, n)
    if epoch_cost > max_samples:
        log.warning("one scvrg epoch costs %d samples, more than the budget of %d; "
                    "the run stops inside its first epoch", epoch_cost, max_samples)
    while True:
        try:
            longer = replace(config, S=config.S + 1)
        except ConfigError:  # its schedule horizon would reach 2^63
            return config
        if predicted_total_samples(longer, m, n) > max_samples:
            return config
        config = longer


def check_roster(algorithms: list, params: dict, names: dict | None = None):
    """Raise ConfigError for an empty roster, InputError for an unknown
    algorithm, and ConfigError for a field of `params` that no algorithm in
    `algorithms` reads (FIELDS_READ). The error spells each field as `names`
    maps it (by default, the field name)."""
    if not algorithms:
        raise ConfigError("at least one algorithm is required")
    unknown = [a for a in algorithms if a not in FIELDS_READ]
    if unknown:
        raise InputError(f"unknown algorithms {unknown}; choose from {ALGORITHMS}")
    unread = set(params) - set().union(*(FIELDS_READ[a] for a in algorithms))
    if unread:
        spelled = sorted((names or {}).get(f, f) for f in unread)
        raise ConfigError(f"{', '.join(spelled)} not read by {' or '.join(algorithms)}")


def _algorithm_config(problem: CompositionProblem, algorithm: str, seed: int,
                      max_samples: int, params: dict) -> RunConfig:
    """The config `algorithm` runs: RunConfig's defaults overridden by the
    fields of `params` it reads (FIELDS_READ); an scvrg run without S gets the
    budget-fitted schedule."""
    params = {f: v for f, v in params.items() if f in FIELDS_READ[algorithm]}
    if algorithm == "scvrg" and "S" not in params:
        return scvrg_config_for_budget(problem, max_samples, seed, **params)
    # only scvrg reads S; the other algorithms need a valid placeholder
    return RunConfig(**{"S": 1, **params}, seed=seed)


def _run(problem: CompositionProblem, algorithm: str, config: RunConfig,
         max_samples: int, phi_star: float | None):
    """Run `algorithm` under `config` from x = 0, charged to a Recorder of its
    own with a row about every N samples; returns (x, trace rows)."""
    recorder = Recorder(problem, max_samples, phi_star, every=problem.N)
    return RUNNERS[algorithm](problem, config, np.zeros(problem.dims.d), recorder), recorder.rows


def run_one(problem: CompositionProblem, algorithm: str, seed: int,
            max_samples: int, phi_star: float | None = None,
            params: dict | None = None):
    """Run a single (algorithm, seed) pair from x = 0 under
    `_algorithm_config(..., params)`, whose fields `algorithm` must read;
    returns (x, trace rows)."""
    params = params or {}
    check_roster([algorithm], params)
    config = _algorithm_config(problem, algorithm, seed, max_samples, params)
    return _run(problem, algorithm, config, max_samples, phi_star)


def open_output(path: str):
    """`path` opened for writing, after making its directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w")


def run_benchmark(problem: CompositionProblem, algorithms: list, budget: float,
                  seeds: list, out: str, params: dict | None = None) -> str:
    """Run every (algorithm, seed) pair at `budget` x N samples and write one
    trace CSV to `out`. `params` holds RunConfig fields, each given to the
    algorithms in the roster that read it (FIELDS_READ). Every input and every
    config is checked, and `out` opened, before phi* or any run starts.

    Aborted runs contribute a single marker row (epoch = iter = -1, NaN
    objective); the remaining runs continue, and once the CSV is written a
    DivergenceError names the aborted runs.
    """
    params = params or {}
    if not 0 < budget < math.inf:
        raise ConfigError(f"sample budget must be positive and finite, got {budget}")
    max_samples = int(round(budget * problem.N))
    if max_samples < 1:
        raise ConfigError(f"sample budget {budget:g} x N = {problem.N} rounds to 0 samples")
    check_roster(algorithms, params)
    if not seeds:
        raise ConfigError("at least one seed is required")
    for seed in seeds:
        RunConfig(S=1, seed=seed)  # RunConfig owns the seed's range
    for name, chosen in (("algorithms", algorithms), ("seeds", seeds)):
        repeated = sorted({c for c in chosen if chosen.count(c) > 1})
        if repeated:
            raise ConfigError(f"repeated {name} {repeated}")
    # each algorithm's config for the first seed; the runs replace only the seed
    configs = {a: _algorithm_config(problem, a, seeds[0], max_samples, params)
               for a in algorithms}
    aborted = []
    with open_output(out) as fh:
        phi_star = compute_phi_star(problem, max(10 * max_samples,
                                                 200 * (problem.dims.m + problem.dims.n)))
        fh.write(TRACE_HEADER + "\n")
        for algorithm in algorithms:
            for seed in seeds:
                try:
                    _, rows = _run(problem, algorithm, replace(configs[algorithm], seed=seed),
                                   max_samples, phi_star)
                except DivergenceError as exc:
                    log.warning("run (%s, seed %d) aborted: %s", algorithm, seed, exc)
                    rows = [exc.row]
                    aborted.append(f"{algorithm} seed {seed} ({exc})")
                fh.writelines(row.to_csv_row() + "\n" for row in rows)
    if aborted:
        raise DivergenceError(f"{len(aborted)} of {len(algorithms) * len(seeds)} "
                              f"runs diverged, trace written to {out}: " + "; ".join(aborted))
    return out
