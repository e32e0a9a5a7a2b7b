"""Reference snapshots and control-variate minibatch gradient estimators.

One epoch pins a reference point x~ and caches the full inner value g~, inner
Jacobian Z~ and gradient v~ there, with the rows g_j(x~) and grad f_i(g~)
they average, from which every step gathers its x~ terms (the oracles are
row-exact, so a gathered row is what a fresh call returns). Minibatch estimates
of the inner value and the gradient (whose minibatch Jacobians enter only
through vector-Jacobian products) are corrected by the cached values, so their
variance vanishes as the iterate approaches the reference.

Minibatch indices come from Philox4x64-10 (Salmon et al., SC 2011), the
counter-based generator numpy's `Philox` implements: `minibatch_rng` is the
reference definition, and `draw_minibatch` hashes a whole batch of steps'
counters in one numpy pass and reproduces its draws bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .problem import ALL, CompositionProblem, check_point, inner_mean, mean_jacobian

# Philox4x64 multipliers (for words 0 and 2) and Weyl key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# the multipliers' 32-bit (lo, hi) halves, shape (2, 2, 1)
_M_HALVES = np.stack((_PHILOX_M & _LO32, _PHILOX_M >> _S32))


@dataclass(frozen=True)
class EpochSnapshot:
    """Reference point with its exact full-batch quantities and their rows."""

    x_tilde: np.ndarray
    g_tilde: np.ndarray   # (k,)
    z_tilde: np.ndarray   # (k, d)
    v_tilde: np.ndarray   # (d,)
    g_rows: np.ndarray    # (m, k): g_j(x~)
    df_rows: np.ndarray   # (n, k): grad f_i(g~)


@dataclass(frozen=True)
class MiniBatchDraw:
    """Index draws for one iteration: A over inner maps, B over outer functions."""

    A: np.ndarray
    B: np.ndarray


@dataclass
class SampleMeter:
    """Running count of oracle samples against a run's sample budget (None:
    unbudgeted), shared by all algorithms.

    One inner index costs 1 (the g_j/dg_j pair at one point), one outer index
    costs 1, a full snapshot costs m+n. The snapshot and the estimators charge
    nothing: each cost is charged by the loop that checks `affords` for it.
    """

    budget: int | None = None
    total: int = 0

    def __post_init__(self):
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"sample budget must be positive, got {self.budget}")

    def add(self, count: int):
        self.total += int(count)

    def affords(self, cost: int) -> bool:
        """Whether charging `cost` more keeps the total within the budget; every
        algorithm starts a snapshot or a step only when it does."""
        return self.budget is None or self.total + cost <= self.budget


def _seed_key(seed) -> np.uint64:
    """Philox key word 0: the int64 seed's two's-complement bits."""
    seed = int(seed)
    if not -2**63 <= seed < 2**63:
        raise OverflowError(f"seed {seed} does not fit in int64")
    return np.uint64(seed % 2**64)


def minibatch_rng(seed: int, epoch: int, iteration: int, stream: int = 0):
    """Counter-based generator keyed by (seed, epoch, iteration, stream).

    Philox is splittable: distinct counters give independent streams, so draws
    are reproducible per iteration regardless of execution order.
    """
    bg = np.random.Philox(key=_seed_key(seed), counter=[0, epoch, iteration, stream])
    return np.random.Generator(bg)


def _philox_blocks(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of every counter column: (4, N) uint64 -> (4, N) uint64.

    Column c is the block numpy's `Philox(key=key)` emits at counter
    counters[:, c] (key word 1 is 0). The 64x64 -> 128-bit products are built
    from 32-bit halves, all four partial products of both words in one pass.
    """
    even, odd = counters[0::2], counters[1::2]  # words (0, 2) and (1, 3)
    k = np.array([[key], [0]], dtype=np.uint64)
    halves = np.empty((2, 1) + even.shape, dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            k += _PHILOX_W
        np.bitwise_and(even, _LO32, out=halves[0, 0])
        np.right_shift(even, _S32, out=halves[1, 0])
        p = halves * _M_HALVES  # p[i, j] = even's half i times M's half j
        mid = (p[0, 0] >> _S32) + p[1, 0]
        hi = p[1, 1] + (mid >> _S32) + ((p[0, 1] + (mid & _LO32)) >> _S32)
        even, odd = hi[::-1] ^ odd ^ k, (even * _PHILOX_M)[::-1]
    blocks = np.empty_like(counters)
    blocks[0::2], blocks[1::2] = even, odd
    return blocks


def _uint32_draws(key: np.uint64, epoch: int, steps: np.ndarray, streams) -> list:
    """The first `size` uint32 outputs of each step's generator, for each
    (stream, size) in `streams`, from one kernel call.

    Row t of the (len(steps), size) result is what minibatch_rng(seed, epoch,
    steps[t], stream) draws one uint32 at a time: block b (from 1) at counter
    [b, epoch, step, stream], each 64-bit word low half first. The values are
    held as uint64 so a bounded draw can scale them without overflow.
    """
    t = steps.size
    counters, splits = [], []
    for stream, size in streams:
        nb = -(-size // 8)
        ctr = np.empty((4, t, nb), dtype=np.uint64)
        ctr[0], ctr[1], ctr[2], ctr[3] = np.arange(1, nb + 1), epoch, steps[:, None], stream
        counters.append(ctr.reshape(4, t * nb))
        splits.append(t * nb)
    words = _philox_blocks(key, np.concatenate(counters, axis=1))
    draws = []
    for (_, size), part in zip(streams, np.split(words, np.cumsum(splits)[:-1], axis=1)):
        w = part.T.reshape(t, -1)
        draws.append(np.stack((w & _LO32, w >> _S32), axis=-1).reshape(t, -1)[:, :size])
    return draws


def _lemire(u: np.ndarray, bound: int):
    """numpy's bounded draw in [0, bound) from uint32 values u (bound <= 2^32):
    (u * bound) >> 32, rejected where the low word is under (2^32 - bound) % bound.
    Returns the draws (int64) and the rejection mask."""
    prod = u * np.uint64(bound)
    return (prod >> _S32).astype(np.int64), (prod & _LO32) < (2**32 - bound) % bound


def _bounded_rows(u: np.ndarray, bound: int, seed, epoch: int, steps: np.ndarray,
                  stream: int) -> np.ndarray:
    """Rows of draws in [0, bound) equal to minibatch_rng(seed, epoch, step,
    stream).integers(0, bound, size). A row whose uint32s hit a Lemire rejection
    draws one more value and shifts, and bound > 2^32 draws 64-bit values, so
    those rows are drawn by their reference generator instead."""
    if bound > 2**32:
        out, redo = np.empty(u.shape, dtype=np.int64), range(steps.size)
    else:
        out, rejected = _lemire(u, bound)
        redo = np.flatnonzero(rejected.any(axis=1))
    for r in redo:
        out[r] = minibatch_rng(seed, epoch, int(steps[r]), stream).integers(0, bound, size=u.shape[1])
    return out


def draw_minibatch(m: int, n: int, a: int, b: int,
                   seed: int, epoch: int, iteration) -> MiniBatchDraw:
    """Uniform with-replacement draws of a inner and b outer indices.

    `iteration` is one step index, giving A of shape (a,) and B of shape (b,),
    or a 1-D array of t step indices, giving (t, a) and (t, b). Row t is
    minibatch_rng(seed, epoch, iteration[t], stream).integers(0, m, a) with
    stream 0 for A (and likewise n, b and stream 1 for B), bit for bit, so how
    steps are batched never changes a draw.
    """
    if a < 1 or b < 1:
        raise ConfigError(f"batch sizes must be >= 1, got a={a}, b={b}")
    steps = np.atleast_1d(np.asarray(iteration, dtype=np.uint64))
    u_a, u_b = _uint32_draws(_seed_key(seed), epoch, steps, ((0, a), (1, b)))
    A = _bounded_rows(u_a, m, seed, epoch, steps, stream=0)
    B = _bounded_rows(u_b, n, seed, epoch, steps, stream=1)
    if np.ndim(iteration) == 0:
        A, B = A[0], B[0]
    return MiniBatchDraw(A=A, B=B)


def take_snapshot(problem: CompositionProblem, x_tilde) -> EpochSnapshot:
    """Full-batch snapshot at x_tilde, with its (m + n) k rows: m + n samples,
    which the caller charges."""
    x_tilde = check_point(problem, x_tilde).copy()
    g_rows = problem.inner_value(ALL, x_tilde)
    g = g_rows.mean(axis=0)
    Z = mean_jacobian(problem, x_tilde)
    df_rows = problem.outer_grad(ALL, g)
    v = Z.T @ df_rows.mean(axis=0)
    return EpochSnapshot(x_tilde=x_tilde, g_tilde=g, z_tilde=Z, v_tilde=v,
                         g_rows=g_rows, df_rows=df_rows)


def _batch_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over the minibatch axis -2; one pass also for a stack of trials."""
    return np.einsum("...ak->...k", rows) / rows.shape[-2]


def estimate_inner(problem: CompositionProblem, snapshot: EpochSnapshot, x, A) -> np.ndarray:
    """Control-variate estimate of the inner value at x.

    g_t = g~ + mean_{j in A} (g_j(x) - g_j(x~)), the mean over A's last axis:
    A of shape (t, a) gives t estimates, shape (t, k). The g_j(x~) are the
    snapshot's rows. Costs A.size inner samples.
    """
    A = np.asarray(A)
    if A.size == 0:
        raise ConfigError("inner minibatch A must be nonempty")
    x = np.asarray(x, dtype=float)
    g_new = problem.inner_value(A, x)
    return snapshot.g_tilde + _batch_mean(g_new - snapshot.g_rows[A])


def _vr_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x, g_t, A, B):
    """v_t from the inner estimate g_t: A (a,), B (b,) and
    g_t (k,) give shape (d,); A (t, a), B (t, b) and g_t (t, k) give (t, d).

    The grad f_i(g~) are the snapshot's rows. When the problem sets
    `constant_jacobian`, its inner maps are affine, so the Jacobian correction
    dz = mean_{j in A} (dg_j(x) - dg_j(x~))^T df_new is exactly zero and is
    skipped: no inner VJP is evaluated. Otherwise the pair is evaluated at x
    and x~, since its cotangent df_new changes every step."""
    stack = g_t.ndim > 1
    df_new = _batch_mean(problem.outer_grad(B, g_t[..., None, :] if stack else g_t))
    v = snapshot.v_tilde + (df_new - _batch_mean(snapshot.df_rows[B])) @ snapshot.z_tilde
    if problem.constant_jacobian is not None:
        return v
    # a step keeps one (k,) point and cotangent (the oracles' one-point path); a
    # stack copies its cotangents out to (t, a, k): einsum over (t, 1, k) is ~3x slower
    u = np.repeat(df_new[..., None, :], A.shape[-1], axis=-2) if stack else df_new
    return v + _batch_mean(problem.inner_vjp(A, x, u) - problem.inner_vjp(A, snapshot.x_tilde, u))


def estimate_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x, A, B) -> np.ndarray:
    """Variance-reduced gradient estimate built on the inner estimates.

    v_t = v~ + mean_{i in B} ( z_t^T grad f_i(g_t) - z~^T grad f_i(g~) ), where
    z_t = z~ + mean_{j in A} (dg_j(x) - dg_j(x~)) enters only through VJPs:
    v_t = v~ + z~^T (df_new - df_ref) + mean_{j in A} (dg_j(x) - dg_j(x~))^T df_new.
    A of shape (t, a) and B of shape (t, b) give t estimates, shape (t, d).
    Costs A.size inner plus B.size outer samples.
    """
    A, B = np.asarray(A), np.asarray(B)
    if B.size == 0:
        raise ConfigError("outer minibatch B must be nonempty")
    x = np.asarray(x, dtype=float)
    g_t = estimate_inner(problem, snapshot, x, A)
    return _vr_gradient(problem, snapshot, x, g_t, A, B)


def unbiased_reference_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x,
                                B) -> np.ndarray:
    """Unbiased gradient estimate using exact inner quantities at x.

    u_t = v~ + mean_{i in B} ( Z(x)^T grad f_i(g(x)) - z~^T grad f_i(g~) ), the
    mean over B's last axis: B of shape (t, b) gives t estimates, shape (t, d).
    The grad f_i(g~) are the snapshot's rows. Its mean over B draws is exactly
    grad F(x).
    """
    B = np.asarray(B)
    if B.size == 0:
        raise ConfigError("outer minibatch B must be nonempty")
    g_x, Z_x = inner_mean(problem, x)
    df_new = _batch_mean(problem.outer_grad(B, g_x))
    df_ref = _batch_mean(snapshot.df_rows[B])
    return snapshot.v_tilde + df_new @ Z_x - df_ref @ snapshot.z_tilde
