"""Shared per-iteration trace schema and the recorder every algorithm uses."""

import math
from dataclasses import dataclass

from .errors import DivergenceError
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
    """Collects one run's trace rows at the samples its meter has charged,
    starting with the row at x0 (epoch 0, iteration 0), and aborts the run
    once the objective exceeds 1e6 * (|Phi(x0)| + 1).

    `record_step` keeps a row every `every` steps (None: none). A row that
    repeats the previous row's (epoch, iteration, samples) is dropped: no
    sample was charged in between, so the iterate is unchanged.
    """

    def __init__(self, problem, algorithm: str, seed: int, meter, x0,
                 phi_star: float | None = None, every: int | None = None):
        self.problem = problem
        self.algorithm = algorithm
        self.seed = seed
        self.meter = meter
        self.phi_star = phi_star
        self.every = every
        self.phi_limit = math.inf
        self.rows: list[TraceRecord] = []
        self.record(0, 0, x0)
        self.phi_limit = 1e6 * (abs(self.rows[0].objective) + 1.0)

    def record_step(self, epoch: int, steps: int, x):
        """Record the iterate after `steps` steps if the cadence is due."""
        if self.every is not None and steps % self.every == 0:
            self.record(epoch, steps, x)

    def record(self, epoch: int, iteration: int, x):
        if self.rows and (self.rows[-1].epoch, self.rows[-1].iteration,
                          self.rows[-1].samples) == (epoch, iteration, self.meter.total):
            return
        obj = objective(self.problem, x)
        if obj > self.phi_limit:
            raise DivergenceError(
                f"{self.algorithm}: objective {obj:g} exceeded the divergence limit "
                f"at epoch {epoch}, iteration {iteration}")
        gap = None if self.phi_star is None else obj - self.phi_star
        self.rows.append(TraceRecord(
            algorithm=self.algorithm, seed=self.seed, epoch=epoch, iteration=iteration,
            samples=self.meter.total, samples_per_N=self.meter.total / self.problem.N,
            objective=obj, gap=gap))


def abort_record(algorithm: str, seed: int, samples: int, N: int) -> TraceRecord:
    """Marker row appended when a run is aborted (divergence): epoch/iter = -1, NaN objective."""
    return TraceRecord(algorithm=algorithm, seed=seed, epoch=-1, iteration=-1,
                       samples=samples, samples_per_N=samples / N,
                       objective=math.nan, gap=math.nan)

