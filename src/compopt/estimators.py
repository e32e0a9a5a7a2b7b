"""Reference snapshots and control-variate minibatch gradient estimators.

One epoch pins a reference point x~ and caches the full inner value g~, inner
Jacobian Z~ and gradient v~ there. Minibatch estimates of the inner value and
the gradient (whose minibatch Jacobians enter only through vector-Jacobian
products) are corrected by the cached values, so their variance vanishes as
the iterate approaches the reference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .problem import CompositionProblem, inner_mean, outer_mean_grad

_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class EpochSnapshot:
    """Reference point with its exact full-batch quantities."""

    x_tilde: np.ndarray
    g_tilde: np.ndarray   # (k,)
    z_tilde: np.ndarray   # (k, d)
    v_tilde: np.ndarray   # (d,)


@dataclass(frozen=True)
class MiniBatchDraw:
    """Index draws for one iteration: A over inner maps, B over outer functions."""

    A: np.ndarray
    B: np.ndarray


@dataclass
class SampleMeter:
    """Running count of oracle samples, shared by all algorithms.

    One inner index costs 1 (the g_j/dg_j pair at one point), one outer index
    costs 1, a full snapshot costs m+n.
    """

    total: int = 0

    def add(self, count: int):
        self.total += int(count)

    def affords(self, cost: int, budget: int | None) -> bool:
        """Whether charging `cost` more keeps the total within `budget`; every
        algorithm starts a snapshot or a step only when it does."""
        return budget is None or self.total + cost <= budget


def minibatch_rng(seed: int, epoch: int, iteration: int, stream: int = 0):
    """Counter-based generator keyed by (seed, epoch, iteration, stream).

    Philox is splittable: distinct counters give independent streams, so draws
    are reproducible per iteration regardless of execution order.
    """
    key = np.uint64(np.int64(seed).view(np.uint64) & _U64)
    bg = np.random.Philox(key=key, counter=[0, epoch, iteration, stream])
    return np.random.Generator(bg)


def draw_minibatch(m: int, n: int, a: int, b: int,
                   seed: int, epoch: int, iteration: int) -> MiniBatchDraw:
    """Uniform with-replacement draws of a inner and b outer indices."""
    if a < 1 or b < 1:
        raise ConfigError(f"batch sizes must be >= 1, got a={a}, b={b}")
    rng_a = minibatch_rng(seed, epoch, iteration, stream=0)
    rng_b = minibatch_rng(seed, epoch, iteration, stream=1)
    return MiniBatchDraw(A=rng_a.integers(0, m, size=a), B=rng_b.integers(0, n, size=b))


def take_snapshot(problem: CompositionProblem, x_tilde, meter: SampleMeter | None = None) -> EpochSnapshot:
    """Full-batch snapshot at x_tilde; charges m+n samples."""
    x_tilde = np.asarray(x_tilde, dtype=float)
    g, Z = inner_mean(problem, x_tilde)
    v = Z.T @ outer_mean_grad(problem, g)
    if meter is not None:
        meter.add(problem.dims.m + problem.dims.n)
    return EpochSnapshot(x_tilde=x_tilde.copy(), g_tilde=g, z_tilde=Z, v_tilde=v)


def _batch_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over the minibatch axis -2; one pass also for a stack of trials."""
    return np.einsum("...ak->...k", rows) / rows.shape[-2]


def estimate_inner(problem: CompositionProblem, snapshot: EpochSnapshot, x, A,
                   meter: SampleMeter | None = None) -> np.ndarray:
    """Control-variate estimate of the inner value at x.

    g_t = g~ + mean_{j in A} (g_j(x) - g_j(x~)), the mean over A's last axis:
    A of shape (t, a) gives t estimates, shape (t, k). Charges A.size inner
    samples.
    """
    A = np.asarray(A)
    if A.size == 0:
        raise ConfigError("inner minibatch A must be nonempty")
    x = np.asarray(x, dtype=float)
    g_new = problem.inner_value(A, x)
    g_ref = problem.inner_value(A, snapshot.x_tilde)
    if meter is not None:
        meter.add(A.size)
    return snapshot.g_tilde + _batch_mean(g_new - g_ref)


def estimate_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x, A, B,
                      meter: SampleMeter | None = None) -> np.ndarray:
    """Variance-reduced gradient estimate built on the inner estimates.

    v_t = v~ + mean_{i in B} ( z_t^T grad f_i(g_t) - z~^T grad f_i(g~) ), where
    z_t = z~ + mean_{j in A} (dg_j(x) - dg_j(x~)) enters only through VJPs:
    v_t = v~ + z~^T (df_new - df_ref) + mean_{j in A} (dg_j(x) - dg_j(x~))^T df_new.
    Charges len(A) inner plus len(B) outer samples.
    """
    A, B = np.asarray(A), np.asarray(B)
    if B.size == 0:
        raise ConfigError("outer minibatch B must be nonempty")
    x = np.asarray(x, dtype=float)
    g_t = estimate_inner(problem, snapshot, x, A, meter=meter)
    df_new = problem.outer_grad(B, g_t).mean(axis=0)
    df_ref = problem.outer_grad(B, snapshot.g_tilde).mean(axis=0)
    dz = problem.inner_vjp(A, x, df_new) - problem.inner_vjp(A, snapshot.x_tilde, df_new)
    if meter is not None:
        meter.add(B.size)
    return snapshot.v_tilde + snapshot.z_tilde.T @ (df_new - df_ref) + dz.mean(axis=0)


def unbiased_reference_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x, B,
                                meter: SampleMeter | None = None) -> np.ndarray:
    """Unbiased gradient estimate using exact inner quantities at x.

    u_t = v~ + mean_{i in B} ( Z(x)^T grad f_i(g(x)) - z~^T grad f_i(g~) ), the
    mean over B's last axis: B of shape (t, b) gives t estimates, shape (t, d).
    Its mean over B draws is exactly grad F(x).
    """
    B = np.asarray(B)
    if B.size == 0:
        raise ConfigError("outer minibatch B must be nonempty")
    g_x, Z_x = inner_mean(problem, x)
    df_new = _batch_mean(problem.outer_grad(B, g_x))
    df_ref = _batch_mean(problem.outer_grad(B, snapshot.g_tilde))
    if meter is not None:
        meter.add(B.size)
    return snapshot.v_tilde + df_new @ Z_x - df_ref @ snapshot.z_tilde
