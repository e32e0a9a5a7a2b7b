"""Reference algorithms for head-to-head benchmarking.

These are standard published methods, reimplemented here (not the original
authors' code): full-batch accelerated proximal gradient with restarts (AGD),
the two-timescale compositional stochastic gradient method (SCGD), its
accelerated proximal variant (ASC-PG), and the constant-epoch variance-reduced
method (VRSC-PG). All of them emit the shared trace schema with the same
sample-charging rules as the main solver, so their x-axes are comparable.
Every runner takes `run_scvrg`'s arguments `(problem, config, x0, recorder)`:
the caller's `Recorder` holds the budget, phi* for the gap column and the
trace cadence, and the runner returns its final iterate. The config fields
each runner reads are listed in `harness.FIELDS_READ`.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from .estimators import _scalar_draws, minibatch_rng
from .problem import CompositionProblem, full_gradient, objective, start_point
from .prox import prox_step
from .solver import RunConfig, _minibatches, run_epoch
from .trace import Recorder


#: SCGD and ASC-PG schedules: steps ALPHA0 / t^P_X, tracker weights BETA0 / t^P_Y
ALPHA0, P_X, BETA0, P_Y = 0.1, 0.75, 1.0, 0.5


def run_agd(problem: CompositionProblem, config: RunConfig, x0, rec: Recorder):
    """Accelerated full-batch proximal gradient with function restarts.

    Step 1/ell from the problem's smoothness bound; every iteration charges
    m + n samples (one full gradient). A step that would raise the objective
    is not taken: the momentum restarts from the current iterate instead.
    """
    m, n = problem.dims.m, problem.dims.n
    step = 1.0 / problem.smoothness().ell
    x = start_point(problem, x0)
    rec.start("agd", config.seed, x)
    y, t_k, phi, it = x.copy(), 1.0, objective(problem, x), 0
    while rec.affords(m + n):
        it += 1
        rec.charge(m + n)
        x_new = prox_step(problem.regularizer, y - step * full_gradient(problem, y), step)
        rec.check_finite(0, it, x_new)
        phi_new = objective(problem, x_new)
        if phi_new > phi:
            t_k, y = 1.0, x.copy()
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            y = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
            t_k, x, phi = t_next, x_new, phi_new
        rec.step(0, 0, it, x)  # its m + n were charged before x_new's check
    rec.record(0, it, x)
    return x


def run_scgd(problem: CompositionProblem, config: RunConfig, x0, rec: Recorder):
    """Two-timescale compositional SGD with a running inner-value tracker.

    y_t tracks g(x_t) with weight BETA0 / t^P_Y; steps use ALPHA0 / t^P_X.
    Each iteration charges 2 samples (one inner, one outer).
    """
    return _scgd_core(problem, config.seed, x0, rec, accelerated=False)


def run_ascpg(problem: CompositionProblem, config: RunConfig, x0, rec: Recorder):
    """Accelerated proximal variant of the two-timescale method.

    The inner tracker is refreshed at an extrapolated query point
    z = x_t + (1/beta_t)(x_{t+1} - x_t), which corrects the tracker's lag;
    the iterate update itself carries no momentum. Charges 3 samples per
    iteration (inner VJP at x, inner value at z, one outer gradient).
    """
    return _scgd_core(problem, config.seed, x0, rec, accelerated=True)


def _scgd_core(problem, seed, x0, rec, accelerated):
    m, n = int(problem.dims.m), int(problem.dims.n)
    # each name a tracer or a test may rebind is looked up here, once per run
    draw, prox, reg = minibatch_rng, prox_step, problem.regularizer
    inner_value, inner_vjp, outer_grad = problem.inner_value, problem.inner_vjp, problem.outer_grad
    x = start_point(problem, x0)
    if accelerated:  # the tracker's seed sample at the start point, charged before its row
        # a copy: the tracker is updated in place, and an oracle may return a view
        y = np.array(inner_value(_scalar_draws(draw(seed, 0, 0, stream=2), (m,))[0], x))
        rec.charge(1)
    else:
        y = np.zeros(problem.dims.k)
    rec.start("ascpg" if accelerated else "scgd", seed, x)
    # a step's j, i (and ASC-PG's j2) are its generator's first bounded draws
    bounds, cost, t = ((m, n, m), 3, 0) if accelerated else ((m, n), 2, 0)
    while rec.affords(cost):
        t += 1
        j, i, *j2 = _scalar_draws(draw(seed, 0, t, stream=2), bounds)
        beta_t = min(1.0, BETA0 / t**P_Y)
        alpha_t = ALPHA0 / t**P_X
        # in place, the same operations in the same order as
        # y = (1 - beta_t) y + beta_t g_j(.), z = x + (1 / beta_t)(x_new - x)
        if accelerated:
            grad = inner_vjp(j, x, outer_grad(i, y))
            x_new = prox(reg, x - alpha_t * grad, alpha_t)
            z = x_new - x
            z *= 1.0 / beta_t
            z += x
            y *= 1.0 - beta_t
            y += beta_t * inner_value(j2[0], z)
            x = x_new
        else:
            y *= 1.0 - beta_t
            y += beta_t * inner_value(j, x)
            grad = inner_vjp(j, x, outer_grad(i, y))
            x = prox(reg, x - alpha_t * grad, alpha_t)
        rec.step(cost, 0, t, x)
    rec.record(0, t, x)
    return x


def run_vrscpg(problem: CompositionProblem, config: RunConfig, x0, rec: Recorder):
    """Constant-epoch variance-reduced proximal method.

    Runs the solver's epoch engine with epochs of K = ceil((m+n)^(2/3)) steps
    and a constant step; the reference point for each snapshot is the last
    iterate. Charges m + n per snapshot and a + b per inner step.
    """
    K = math.ceil((problem.dims.m + problem.dims.n) ** (2.0 / 3.0))
    engine = replace(config, schedule="constant")
    x = start_point(problem, x0)
    rec.start("vrscpg", config.seed, x)
    minibatches = _minibatches(problem, engine, ((e, K) for e in itertools.count(1)),
                               rec.budget - rec.samples)
    epoch = 1
    while (info := run_epoch(problem, x, x, K, 0, engine, epoch, rec, minibatches)) is not None:
        x, epoch = info.x_last, epoch + 1
    return x
