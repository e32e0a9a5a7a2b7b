"""Shared per-iteration trace schema and the recorder that is every run's ledger."""

import math
import numbers
from dataclasses import dataclass

from .errors import ConfigError, DivergenceError
from .problem import objective

#: bit-exact CSV header for benchmark output
TRACE_HEADER = "algorithm,seed,epoch,iter,samples,samples_per_N,objective,gap"


@dataclass(frozen=True)
class TraceRecord:
    """One accounting row: where a run was after `samples` oracle samples."""

    algorithm: str
    seed: int
    epoch: int
    iteration: int
    samples: int
    samples_per_N: float
    objective: float
    gap: float | None = None

    def to_csv_row(self) -> str:
        gap = "" if self.gap is None else repr(float(self.gap))
        return (f"{self.algorithm},{self.seed},{self.epoch},{self.iteration},"
                f"{self.samples},{self.samples_per_N!r},{float(self.objective)!r},{gap}")


class Recorder:
    """One run's ledger: its sample budget, the samples charged against it and
    its trace rows. The caller builds it; the runner names the run and writes
    its first row at its start point with `start`, after any samples spent
    before it. It aborts the run once a step's iterate is non-finite or a
    row's objective exceeds 1e6 * (|Phi(x0)| + 1).

    One inner index costs 1 (the g_j/dg_j pair at one point), one outer index
    costs 1 and a full snapshot costs m + n. The snapshot and the estimators
    charge nothing: each cost is charged by the loop that checks `affords` for
    it, so a run never charges more than its budget.

    `record_step` keeps a row at the first step whose samples reach the next
    multiple of `every` above the previous row's (None: none). A row that
    repeats the previous row's (epoch, iteration, samples) is dropped: no
    sample was charged in between, so the iterate is unchanged.
    """

    def __init__(self, problem, budget: int, phi_star: float | None = None,
                 every: int | None = None):
        if budget is None:
            raise ConfigError("a run stops only once its sample budget is spent: "
                              "max_samples is required")
        if not isinstance(budget, numbers.Integral) or budget < 1:
            raise ConfigError(f"sample budget must be positive and whole, got {budget!r}")
        self.problem = problem
        self.budget = budget
        self.samples = 0
        self.phi_star = phi_star
        self.every = every
        self.next_row = self.phi_limit = math.inf
        self.rows: list[TraceRecord] = []

    def start(self, algorithm: str, seed: int, x):
        """Name the run and write its first row, at x (epoch 0, iteration 0)."""
        self.algorithm, self.seed = algorithm, seed
        self.record(0, 0, x)
        self.phi_limit = 1e6 * (abs(self.rows[0].objective) + 1.0)

    def affords(self, cost: int) -> bool:
        """Whether charging `cost` more keeps the run within its budget; every
        algorithm starts a snapshot or a step only when it does."""
        return self.samples + cost <= self.budget

    def charge(self, cost: int):
        self.samples += int(cost)

    def _abort(self, what: str, epoch: int, iteration: int):
        """Raise DivergenceError; its `row` marks the aborted run at its charged
        samples: epoch = iter = -1, NaN objective."""
        error = DivergenceError(f"{self.algorithm}: {what} at epoch {epoch}, iteration {iteration}")
        error.row = TraceRecord(algorithm=self.algorithm, seed=self.seed, epoch=-1, iteration=-1,
                                samples=self.samples, samples_per_N=self.samples / self.problem.N,
                                objective=math.nan, gap=math.nan)
        raise error

    def check_finite(self, epoch: int, steps: int, x):
        """Abort the run if the iterate after `steps` steps is non-finite."""
        # x is a prox output, in [-R, R] or NaN: its sum is finite iff every entry is
        if not math.isfinite(x.sum()):
            self._abort("non-finite iterate", epoch, steps)

    def record_step(self, epoch: int, steps: int, x):
        """Check the iterate after `steps` steps, and record it if the cadence is due."""
        self.check_finite(epoch, steps, x)
        if self.samples >= self.next_row:
            self.record(epoch, steps, x)

    def record(self, epoch: int, iteration: int, x):
        if self.rows and (self.rows[-1].epoch, self.rows[-1].iteration,
                          self.rows[-1].samples) == (epoch, iteration, self.samples):
            return
        obj = objective(self.problem, x)
        if obj > self.phi_limit:
            self._abort(f"objective {obj:g} exceeded the divergence limit", epoch, iteration)
        gap = None if self.phi_star is None else obj - self.phi_star
        if self.every is not None:
            self.next_row = (self.samples // self.every + 1) * self.every
        self.rows.append(TraceRecord(
            algorithm=self.algorithm, seed=self.seed, epoch=epoch, iteration=iteration,
            samples=self.samples, samples_per_N=self.samples / self.problem.N,
            objective=obj, gap=gap))
