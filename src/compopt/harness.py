"""Experiment runner: builds problems, computes reference optima, runs
algorithm suites and writes plot-ready trace CSVs."""

import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines
from .errors import ConfigError, DivergenceError, InputError
from .problem import CompositionProblem, full_gradient, objective
from .prox import prox_step
from .solver import RunConfig, predicted_total_samples, run_scvrg
from .trace import TRACE_HEADER, Recorder, TraceRecord

log = logging.getLogger(__name__)

#: the RunConfig fields each algorithm reads; a run's `params` may set only these
FIELDS_READ = {"scvrg": {"S", "k0", "eta", "a", "b", "schedule"},
               "vrscpg": {"eta", "a", "b"},
               "scgd": set(), "ascpg": set(), "agd": set()}
ALGORITHMS = tuple(FIELDS_READ)

#: hard cap on trace rows per run; longer traces are decimated
MAX_TRACE_ROWS = 10_000


@dataclass
class ExperimentSpec:
    """One benchmark: a problem, an algorithm roster, a sample budget in units
    of N, the seeds to average over, and the RunConfig fields `params`, each
    given to the algorithms that read it. Every config is built here, so a bad
    setting, or one no chosen algorithm reads, fails before any run starts."""

    problem: CompositionProblem
    algorithms: list
    budget: float
    seeds: list
    out: str
    params: dict = field(default_factory=dict)
    #: each algorithm's config for the first seed; runs replace only the seed
    configs: dict = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < self.budget < math.inf:
            raise ConfigError(f"sample budget must be positive and finite, got {self.budget}")
        if self.max_samples < 1:
            raise ConfigError(f"sample budget {self.budget:g} x N = {self.problem.N} "
                              "rounds to 0 samples")
        check_roster(self.algorithms, self.params)
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        for seed in self.seeds:
            RunConfig(S=1, seed=seed)  # RunConfig owns the seed's range
        for name, chosen in (("algorithms", self.algorithms), ("seeds", self.seeds)):
            repeated = sorted({c for c in chosen if chosen.count(c) > 1})
            if repeated:
                raise ConfigError(f"repeated {name} {repeated}")
        self.configs = {a: _algorithm_config(self.problem, a, self.seeds[0], self.max_samples,
                                            self.params)
                        for a in self.algorithms}

    @property
    def max_samples(self) -> int:
        return int(round(self.budget * self.problem.N))


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
    """Largest doubling-epoch schedule whose exact sample count fits the budget;
    `knobs` are the other RunConfig fields.

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
    while predicted_total_samples(replace(config, S=config.S + 1), m, n) <= max_samples:
        config = replace(config, S=config.S + 1)
    return config


def _decimate(rows: list) -> list:
    if len(rows) <= MAX_TRACE_ROWS:
        return rows
    keep = np.unique(np.linspace(0, len(rows) - 1, MAX_TRACE_ROWS).astype(int))
    return [rows[i] for i in keep]


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


def _run_config(problem: CompositionProblem, algorithm: str, config: RunConfig,
                recorder: Recorder):
    """Run `algorithm` from x = 0, charged to `recorder`; returns its final iterate."""
    runner = {"scvrg": lambda *args: run_scvrg(*args).x, "vrscpg": baselines.run_vrscpg,
              "scgd": baselines.run_scgd, "ascpg": baselines.run_ascpg,
              "agd": baselines.run_agd}[algorithm]
    return runner(problem, config, np.zeros(problem.dims.d), recorder)


def run_one(problem: CompositionProblem, algorithm: str, seed: int,
            max_samples: int, phi_star: float | None = None,
            params: dict | None = None):
    """Run a single (algorithm, seed) pair from x = 0 under
    `_algorithm_config(..., params)`, whose fields `algorithm` must read;
    returns (x, trace rows)."""
    params = params or {}
    check_roster([algorithm], params)
    config = _algorithm_config(problem, algorithm, seed, max_samples, params)
    recorder = Recorder(problem, max_samples, phi_star, every=problem.N)
    return _run_config(problem, algorithm, config, recorder), recorder.rows


def run_benchmark(spec: ExperimentSpec) -> str:
    """Run every (algorithm, seed) pair and write one trace CSV.

    Aborted runs contribute a single marker row (epoch = iter = -1, NaN
    objective); the remaining runs continue, and once the CSV is written a
    DivergenceError names the aborted runs.
    """
    problem, max_samples = spec.problem, spec.max_samples
    phi_star = compute_phi_star(problem, max(10 * max_samples,
                                             200 * (problem.dims.m + problem.dims.n)))
    rows: list[TraceRecord] = []
    aborted = []
    for algorithm in spec.algorithms:
        for seed in spec.seeds:
            config = replace(spec.configs[algorithm], seed=seed)
            recorder = Recorder(problem, max_samples, phi_star, every=problem.N)
            try:
                _run_config(problem, algorithm, config, recorder)
            except DivergenceError as exc:
                log.warning("run (%s, seed %d) aborted: %s", algorithm, seed, exc)
                rows.append(recorder.abort_row())
                aborted.append(f"{algorithm} seed {seed} ({exc})")
                continue
            rows.extend(_decimate(recorder.rows))
    out_dir = os.path.dirname(os.path.abspath(spec.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(spec.out, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_row() + "\n")
    if aborted:
        raise DivergenceError(f"{len(aborted)} of {len(spec.algorithms) * len(spec.seeds)} "
                              f"runs diverged, trace written to {spec.out}: " + "; ".join(aborted))
    return spec.out
