"""Reference algorithms for head-to-head benchmarking.

These are standard published methods, reimplemented here (not the original
authors' code): full-batch accelerated proximal gradient with restarts (AGD),
the two-timescale compositional stochastic gradient method (SCGD), its
accelerated proximal variant (ASC-PG), and the constant-epoch variance-reduced
method (VRSC-PG). All of them emit the shared trace schema with the same
sample-charging rules as the main solver, so their x-axes are comparable.
Every runner takes `run_scvrg`'s arguments: a `RunConfig`, a sample budget,
phi* for the gap column and a trace cadence. SCGD, ASC-PG and AGD read only
the config's seed; VRSC-PG also reads eta, a and b.
"""

import math
from dataclasses import replace

import numpy as np

from .errors import ConfigError
from .estimators import SampleMeter, minibatch_rng
from .problem import CompositionProblem, full_gradient, objective, start_point
from .prox import prox_step
from .solver import RunConfig, run_epoch
from .trace import Recorder


#: SCGD and ASC-PG schedules: steps ALPHA0 / t^P_X, tracker weights BETA0 / t^P_Y
ALPHA0, P_X, BETA0, P_Y = 0.1, 0.75, 1.0, 0.5


def _budget_meter(max_samples, algorithm) -> SampleMeter:
    """The run's meter; these runs stop only once their budget is spent, so
    they require one."""
    if max_samples is None:
        raise ConfigError(f"{algorithm} runs until its sample budget is spent: "
                          "max_samples is required")
    return SampleMeter(max_samples)


def run_agd(problem: CompositionProblem, config: RunConfig, x0, max_samples: int,
            phi_star: float | None = None, trace_every: int | None = None):
    """Accelerated full-batch proximal gradient with function restarts.

    Step 1/ell from the problem's smoothness bound; every iteration charges
    m + n samples (one full gradient). A step that would raise the objective
    is not taken: the momentum restarts from the current iterate instead.
    """
    m, n = problem.dims.m, problem.dims.n
    meter = _budget_meter(max_samples, "agd")
    step = 1.0 / problem.smoothness().ell
    x = start_point(problem, x0)
    rec = Recorder(problem, "agd", config.seed, meter, x, phi_star, every=trace_every)
    y, t_k, phi, it = x.copy(), 1.0, objective(problem, x), 0
    while meter.affords(m + n):
        it += 1
        meter.add(m + n)
        x_new = prox_step(problem.regularizer, y - step * full_gradient(problem, y), step)
        rec.check_finite(0, it, x_new)
        phi_new = objective(problem, x_new)
        if phi_new > phi:
            t_k, y = 1.0, x.copy()
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            y = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
            t_k, x, phi = t_next, x_new, phi_new
        rec.record_step(0, it, x)
    rec.record(0, it, x)
    return x, rec.rows


def run_scgd(problem: CompositionProblem, config: RunConfig, x0, max_samples: int,
             phi_star: float | None = None, trace_every: int | None = None):
    """Two-timescale compositional SGD with a running inner-value tracker.

    y_t tracks g(x_t) with weight BETA0 / t^P_Y; steps use ALPHA0 / t^P_X.
    Each iteration charges 2 samples (one inner, one outer).
    """
    return _scgd_core(problem, config.seed, x0, max_samples, phi_star, trace_every,
                      accelerated=False)


def run_ascpg(problem: CompositionProblem, config: RunConfig, x0, max_samples: int,
              phi_star: float | None = None, trace_every: int | None = None):
    """Accelerated proximal variant of the two-timescale method.

    The inner tracker is refreshed at an extrapolated query point
    z = x_t + (1/beta_t)(x_{t+1} - x_t), which corrects the tracker's lag;
    the iterate update itself carries no momentum. Charges 3 samples per
    iteration (inner VJP at x, inner value at z, one outer gradient).
    """
    return _scgd_core(problem, config.seed, x0, max_samples, phi_star, trace_every,
                      accelerated=True)


def _scgd_core(problem, seed, x0, max_samples, phi_star, trace_every, accelerated):
    m, n = problem.dims.m, problem.dims.n
    tag, cost = ("ascpg", 3) if accelerated else ("scgd", 2)
    meter = _budget_meter(max_samples, tag)
    x = start_point(problem, x0)
    if accelerated:
        # seed the tracker with one inner sample at the start point
        rng0 = minibatch_rng(seed, 0, 0, stream=2)
        y = problem.inner_value(int(rng0.integers(m)), x)
        meter.add(1)
    else:
        y = np.zeros(problem.dims.k)
    rec = Recorder(problem, tag, seed, meter, x, phi_star, every=trace_every)
    t = 0
    while meter.affords(cost):
        t += 1
        rng = minibatch_rng(seed, 0, t, stream=2)
        j = int(rng.integers(m))
        i = int(rng.integers(n))
        beta_t = min(1.0, BETA0 / t**P_Y)
        alpha_t = ALPHA0 / t**P_X
        if accelerated:
            grad = problem.inner_vjp(j, x, problem.outer_grad(i, y))
            x_new = prox_step(problem.regularizer, x - alpha_t * grad, alpha_t)
            z = x + (1.0 / beta_t) * (x_new - x)
            j2 = int(rng.integers(m))
            y = (1.0 - beta_t) * y + beta_t * problem.inner_value(j2, z)
            x = x_new
        else:
            y = (1.0 - beta_t) * y + beta_t * problem.inner_value(j, x)
            grad = problem.inner_vjp(j, x, problem.outer_grad(i, y))
            x = prox_step(problem.regularizer, x - alpha_t * grad, alpha_t)
        meter.add(cost)
        rec.record_step(0, t, x)
    rec.record(0, t, x)
    return x, rec.rows


def run_vrscpg(problem: CompositionProblem, config: RunConfig, x0, max_samples: int,
               phi_star: float | None = None, trace_every: int | None = None):
    """Constant-epoch variance-reduced proximal method.

    Runs the solver's epoch engine with epochs of K = ceil((m+n)^(2/3)) steps
    and a constant step; the reference point for each snapshot is the last
    iterate. Charges m + n per snapshot and a + b per inner step.
    """
    K = math.ceil((problem.dims.m + problem.dims.n) ** (2.0 / 3.0))
    engine = replace(config, schedule="constant")
    x = start_point(problem, x0)
    rec = Recorder(problem, "vrscpg", config.seed, _budget_meter(max_samples, "vrscpg"), x,
                   phi_star, every=trace_every)
    epoch = 1
    while (info := run_epoch(problem, x, x, K, 0, engine, epoch, rec)) is not None:
        x, epoch = info.x_last, epoch + 1
    return x, rec.rows
