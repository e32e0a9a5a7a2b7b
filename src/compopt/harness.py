"""Experiment runner: builds problems, computes reference optima, runs
algorithm suites and writes plot-ready trace CSVs."""

import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from .baselines import BaselineConfig
from .errors import ConfigError, DivergenceError, InputError
from .problem import CompositionProblem, lipschitz_bounds
from .solver import RunConfig, predicted_total_samples, run_scvrg
from .trace import TRACE_HEADER, TraceRecord, abort_record

log = logging.getLogger(__name__)

ALGORITHMS = ("scvrg", "vrscpg", "scgd", "ascpg", "agd")

#: hard cap on trace rows per run; longer traces are decimated
MAX_TRACE_ROWS = 10_000


@dataclass
class ExperimentSpec:
    """One benchmark: a problem, an algorithm roster, a sample budget in units
    of N, and the seeds to average over."""

    problem: CompositionProblem
    algorithms: list
    budget: float
    seeds: list
    out: str
    algo_params: dict = field(default_factory=dict)
    phi_star: float | None = None
    phi_star_budget: int | None = None

    def __post_init__(self):
        if self.budget <= 0:
            raise ConfigError("sample budget must be positive")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise InputError(f"unknown algorithms {unknown}; choose from {ALGORITHMS}")


def compute_phi_star(problem: CompositionProblem, budget: int) -> float:
    """High-accuracy objective optimum estimate.

    A long doubling-epoch run spends half of the budget; the restart-FISTA
    loop of `baselines.restart_fista` (step 1/ell) then polishes its result
    until a step lowers the objective by < 1e-14 * (|Phi| + 1), or the budget
    runs out. Returns the objective at the polished point, the lowest the
    polish has seen. Logs a warning if the polish does not reach the
    tolerance within budget.
    """
    m, n = problem.dims.m, problem.dims.n
    if budget < 100 * (m + n):
        raise ConfigError(f"optimum budget must be >= 100 * (m + n) = {100 * (m + n)}")
    config = scvrg_config_for_budget(problem, budget // 2, seed=0, a=min(5, m), b=min(5, n))
    result = run_scvrg(problem, config, np.zeros(problem.dims.d), max_samples=budget // 2)

    ell = lipschitz_bounds(problem, problem.regularizer.radius).ell
    # accelerated polish; plain prox-gradient crawls on flat instances and
    # would dominate the error of every downstream gap
    steps = baselines.restart_fista(problem, result.x, 1.0 / ell, "phi_star polish")
    for _ in range(max((budget - result.samples) // (m + n), 10)):
        _, phi, decrease = next(steps)
        if decrease is not None and decrease < 1e-14 * (abs(phi) + 1.0):
            return phi
    log.warning("phi_star polish did not converge within budget; returning best value seen")
    return phi


def scvrg_config_for_budget(problem: CompositionProblem, max_samples: int,
                            seed: int, k0: int = 10, eta: float = 0.01,
                            a: int = 5, b: int = 5, schedule: str = "adaptive") -> RunConfig:
    """Largest doubling-epoch schedule whose exact sample count fits the budget.

    Returns S=1 even when one epoch costs more than the budget, and logs a
    warning then: such a run stops inside its first epoch.
    """
    m, n = problem.dims.m, problem.dims.n
    epoch_cost = predicted_total_samples(RunConfig(S=1, k0=k0, a=a, b=b, eta=eta), m, n)
    if epoch_cost > max_samples:
        log.warning("one scvrg epoch costs %d samples, more than the budget of %d; "
                    "the run stops inside its first epoch", epoch_cost, max_samples)
    S = 1
    while predicted_total_samples(
            RunConfig(S=S + 1, k0=k0, a=a, b=b, eta=eta), m, n) <= max_samples:
        S += 1
    return RunConfig(S=S, k0=k0, eta=eta, a=a, b=b, seed=seed, schedule=schedule)


def _decimate(rows: list) -> list:
    if len(rows) <= MAX_TRACE_ROWS:
        return rows
    keep = np.unique(np.linspace(0, len(rows) - 1, MAX_TRACE_ROWS).astype(int))
    return [rows[i] for i in keep]


def run_one(problem: CompositionProblem, algorithm: str, seed: int,
            max_samples: int, phi_star: float | None = None,
            params: dict | None = None):
    """Run a single (algorithm, seed) pair; returns (x, trace rows)."""
    params = dict(params or {})
    N = problem.N
    a = int(params.pop("a", 5))
    b = int(params.pop("b", 5))
    trace_every = max(1, math.ceil(N / (a + b)))
    x0 = params.pop("x0", np.zeros(problem.dims.d))
    if algorithm == "scvrg":
        S = params.pop("S", None)
        k0 = int(params.pop("k0", 10))
        eta = float(params.pop("eta", 0.01))
        schedule = params.pop("schedule", "adaptive")
        if S is not None:
            config = RunConfig(S=int(S), k0=k0, eta=eta, a=a, b=b, seed=seed,
                               schedule=schedule)
        else:
            config = scvrg_config_for_budget(problem, max_samples, seed, k0=k0,
                                             eta=eta, a=a, b=b, schedule=schedule)
        if params:
            raise ConfigError(f"unused scvrg parameters: {sorted(params)}")
        result = run_scvrg(problem, config, x0, phi_star=phi_star,
                           trace_every=trace_every, max_samples=max_samples)
        return result.x, result.trace
    config = BaselineConfig(max_samples=max_samples, seed=seed, a=a, b=b,
                            trace_every=trace_every, **params)
    runner = {"vrscpg": baselines.run_vrscpg, "scgd": baselines.run_scgd,
              "ascpg": baselines.run_ascpg, "agd": baselines.run_agd}[algorithm]
    return runner(problem, config, x0, phi_star=phi_star)


def run_benchmark(spec: ExperimentSpec) -> str:
    """Run every (algorithm, seed) pair and write one trace CSV.

    Aborted runs contribute a single marker row (epoch = iter = -1, NaN
    objective); the remaining runs continue.
    """
    problem = spec.problem
    N = problem.N
    max_samples = int(round(spec.budget * N))
    phi_star = spec.phi_star
    if phi_star is None:
        budget = spec.phi_star_budget or max(10 * max_samples,
                                             200 * (problem.dims.m + problem.dims.n))
        phi_star = compute_phi_star(problem, budget)
    rows: list[TraceRecord] = []
    for algorithm in spec.algorithms:
        for seed in spec.seeds:
            params = spec.algo_params.get(algorithm, {})
            try:
                _, trace = run_one(problem, algorithm, seed, max_samples,
                                   phi_star=phi_star, params=params)
            except DivergenceError as exc:
                log.warning("run (%s, seed %d) aborted: %s", algorithm, seed, exc)
                rows.append(abort_record(algorithm, seed, max_samples, N))
                continue
            rows.extend(_decimate(trace))
    out_dir = os.path.dirname(os.path.abspath(spec.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(spec.out, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_row() + "\n")
    return spec.out
