"""Reference snapshots and control-variate minibatch gradient estimators.

One epoch pins a reference point x~ and caches the full inner value g~, inner
Jacobian Z~ and gradient v~ there, with the rows g_j(x~) and grad f_i(g~)
they average, from which every step gathers its x~ terms (the oracles are
row-exact, so a gathered row is what a fresh call returns). Minibatch estimates
of the inner value and the gradient (whose minibatch Jacobians enter only
through vector-Jacobian products) are corrected by the cached values, so their
variance vanishes as the iterate approaches the reference. An oracle call
whose point (and cotangent) every index shares evaluates all components once
and gathers the rows when its index array holds at least as many indices as
there are components, which the batch sizes of the paper's contraction regime
often do; row-exactness makes that the per-index call's bits, and the samples
charged are still the indices drawn. A minibatch's mean of the rows
grad f_i(g~) does not depend on the iterate, so the epoch engine computes it
for a block of steps at once and hands each step its row.

Minibatch indices come from Philox4x64-10 (Salmon et al., SC 2011), the
counter-based generator numpy's `Philox` implements: `minibatch_rng` is the
reference definition, and `draw_minibatch` hashes the counters of a batch of
steps, of one epoch or of many, in one numpy pass and reproduces their draws
bit for bit. `minibatch_rng` hands `Philox` a `_PhiloxKey` seed object that
yields the key (seed bits, 0), so numpy gathers no OS entropy for a
`SeedSequence` that the key would overwrite; the draws are those of
`Philox(key=..., counter=...)` on exact uint64 counter words. Each seed is
checked once, and its key object, with its read-only state, is built once and
cached. A step's generator is read only as raw 64-bit words: `_scalar_draws`
applies numpy's bounded draw to them, as consecutive `integers(bound)` calls
would without their per-call cost, for an SCGD or ASC-PG step and a rejected
`draw_minibatch` row.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .problem import ALL, CompositionProblem, _row_mean, check_point, mean_jacobian

# Philox4x64 multipliers (for words 0 and 2) and Weyl key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)
# the multipliers' 32-bit halves
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32


@dataclass(frozen=True)
class EpochSnapshot:
    """Reference point with its exact full-batch quantities and their rows."""

    x_tilde: np.ndarray
    g_tilde: np.ndarray   # (k,)
    z_tilde: np.ndarray   # (k, d)
    v_tilde: np.ndarray   # (d,)
    g_rows: np.ndarray    # (m, k): g_j(x~)
    df_rows: np.ndarray   # (n, k): grad f_i(g~)


def _seed_key(seed) -> int:
    """Philox key word 0: the int64 seed's two's-complement bits, as an int."""
    if type(seed) is not int:
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        seed = int(seed)
    if not -2**63 <= seed < 2**63:
        raise OverflowError(f"seed must fit in int64, got {seed}")
    return seed % 2**64


class _PhiloxKey:
    """Seed object from which `Philox(seed=...)` reads its 128-bit key
    (key, 0), the one `Philox(key=key)` sets, as generate_state(2, uint64),
    the only request it serves. numpy takes it as a virtual `ISeedSequence`;
    it is module-level so the generator that holds it pickles. `_seeded`
    keeps one per recently used seed, so its read-only state is built once."""

    __slots__ = ("state",)

    def __init__(self, key: int):
        self.state = np.array([key, 0], dtype=np.uint64)
        self.state.flags.writeable = False

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


@functools.cache
def _philox_classes():
    """(Generator, Philox), imported on first use: `import compopt` leaves
    numpy.random unloaded, which keeps a process's resident set small."""
    from numpy.random import Generator, Philox
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_PhiloxKey)
    return Generator, Philox


@functools.lru_cache(maxsize=64)
def _seeded(seed: int) -> tuple:
    """(Generator, Philox, key object) for an int seed, checked once."""
    return (*_philox_classes(), _PhiloxKey(_seed_key(seed)))


def minibatch_rng(seed: int, epoch: int, iteration: int, stream: int = 0):
    """Counter-based generator keyed by (seed, epoch, iteration, stream).

    Philox is splittable: distinct counters give independent streams, so draws
    are reproducible per iteration regardless of execution order. The counter
    words are uint64, so a negative one raises OverflowError.
    """
    if type(seed) is not int:  # checked before the lookup: [3] has no hash, True hashes as 1
        _seed_key(seed)
        seed = int(seed)
    generator, philox, key = _seeded(seed)
    return generator(philox(key, counter=np.array([0, epoch, iteration, stream], dtype=np.uint64)))


def _scalar_draws(rng, bounds) -> list:
    """The ints that consecutive int(rng.integers(bound)) calls return, one
    per (int) bound of at most 2^32 (`ProblemDims` caps m and n below it),
    from a generator that has drawn nothing yet.

    Each bounded draw takes the next uint32 of the raw 64-bit words, low half
    first, by `_lemire`'s rule: a rejected value takes the next uint32. A
    bound of 1 takes none.
    """
    raw = rng.bit_generator.random_raw
    draws, high = [], None
    for bound in bounds:
        if bound == 1:
            draws.append(0)
            continue
        threshold = (2**32 - bound) % bound
        while True:
            if high is None:
                word = raw()
                u, high = word & 0xFFFFFFFF, word >> 32
            else:
                u, high = high, None
            prod = u * bound
            if prod & 0xFFFFFFFF >= threshold:
                break
        draws.append(prod >> 32)
    return draws


def _philox_blocks(key: int, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of every counter column, in place: each column of the
    (4, N) uint64 array becomes the block numpy's `Philox(key=key)` emits at
    that counter (key word 1 is 0). The 64x64 -> 128-bit products are built
    from 32-bit halves in four preallocated buffers: a round allocates nothing.
    """
    even, odd = counters[0::2], counters[1::2]  # words (0, 2) and (1, 3)
    k = np.array([[key], [0]], dtype=np.uint64)
    lo, hi, p, q = np.empty((4,) + even.shape, dtype=np.uint64)
    hi_swapped, lo_swapped = hi[::-1], lo[::-1]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k += _PHILOX_W
        np.bitwise_and(even, _LO32, lo)
        np.right_shift(even, _S32, hi)
        np.multiply(lo, _M_LO, p)
        np.right_shift(p, _S32, p)
        np.multiply(hi, _M_LO, q)
        np.add(p, q, p)  # mid = (lo * M_lo >> 32) + hi * M_lo
        np.multiply(lo, _M_HI, lo)
        np.bitwise_and(p, _LO32, q)
        np.add(lo, q, lo)
        np.right_shift(lo, _S32, lo)
        np.right_shift(p, _S32, p)
        np.multiply(hi, _M_HI, hi)
        np.add(hi, p, hi)
        np.add(hi, lo, hi)  # the products' high words
        np.multiply(even, _PHILOX_M, lo)  # and their low words
        np.bitwise_xor(hi_swapped, odd, even)
        np.bitwise_xor(even, k, even)
        np.copyto(odd, lo_swapped)
    return counters


def _uint32_draws(key: int, epochs, steps: np.ndarray, streams) -> list:
    """The first `size` uint32 outputs of each step's generator, for each
    (stream, size) in `streams`, from one kernel call.

    Row t of the (len(steps), size) result is what minibatch_rng(seed,
    epochs[t], steps[t], stream) draws one uint32 at a time (`epochs` may be
    one index): block b (from 1) at counter [b, epoch, step, stream], each
    64-bit word low half first, held as uint64 for the bounded draw.
    """
    blocks = [-(-size // 8) for _, size in streams]
    ctr = np.empty((4, steps.size, sum(blocks)), dtype=np.uint64)
    ctr[0] = np.concatenate([np.arange(1, nb + 1) for nb in blocks])
    ctr[1], ctr[2] = np.reshape(epochs, (-1, 1)), steps[:, None]
    ctr[3] = np.repeat([stream for stream, _ in streams], blocks)
    _philox_blocks(key, ctr.reshape(4, -1))
    draws, first = [], 0
    for (_, size), nb in zip(streams, blocks):
        w = ctr[:, :, first:first + nb].transpose(1, 2, 0).reshape(steps.size, -1)
        draws.append(np.stack((w & _LO32, w >> _S32), axis=-1).reshape(steps.size, -1)[:, :size])
        first += nb
    return draws


def _lemire(u: np.ndarray, bound: int):
    """numpy's bounded draw in [0, bound) from uint32 values u (bound <= 2^32):
    (u * bound) >> 32, rejected where the low word is under (2^32 - bound) % bound.
    Returns the draws (int64) and the rejection mask."""
    prod = u * np.uint64(bound)
    return (prod >> _S32).astype(np.int64), (prod & _LO32) < (2**32 - bound) % bound


def draw_minibatch(m: int, n: int, a: int, b: int,
                   seed: int, epoch, iteration) -> tuple[np.ndarray, np.ndarray]:
    """Uniform with-replacement draws (A, B) of a inner and b outer indices.

    `iteration` is a 1-D array of t step indices (an int is one), giving A of
    shape (t, a) and B of shape (t, b); `epoch` is one epoch index, or one per
    row. Row t is minibatch_rng(seed, epoch[t], iteration[t], stream).integers(
    0, m, a) with stream 0 for A (and likewise n, b and stream 1 for B), bit for
    bit, so how steps and epochs are batched never changes a draw. The draws
    are 32-bit: m or n above 2^32 is refused.
    """
    if a < 1 or b < 1:
        raise ConfigError(f"batch sizes must be >= 1, got a={a}, b={b}")
    if max(m, n) > 2**32:
        raise ConfigError(f"index bounds must be at most 2^32, got m={m}, n={n}")
    steps = np.atleast_1d(np.asarray(iteration, dtype=np.uint64))
    epochs = np.broadcast_to(np.asarray(epoch, dtype=np.uint64), steps.shape)
    rows = []
    for u, bound, stream in zip(_uint32_draws(_seed_key(seed), epochs, steps, ((0, a), (1, b))),
                                (m, n), (0, 1)):
        out, rejected = _lemire(u, bound)
        # a rejection draws one more uint32 and shifts the row: its generator draws it
        for r in np.flatnonzero(rejected.any(axis=1)):
            rng = minibatch_rng(seed, int(epochs[r]), int(steps[r]), stream)
            out[r] = _scalar_draws(rng, (int(bound),) * u.shape[1])
        rows.append(out)
    return tuple(rows)


def take_snapshot(problem: CompositionProblem, x_tilde) -> EpochSnapshot:
    """Full-batch snapshot at x_tilde, with its (m + n) k rows: m + n samples,
    which the caller charges."""
    x_tilde = check_point(problem, x_tilde).copy()
    g_rows = problem.inner_value(ALL, x_tilde)
    g = _row_mean(g_rows)
    Z = mean_jacobian(problem, x_tilde)
    df_rows = problem.outer_grad(ALL, g)
    v = Z.T @ _row_mean(df_rows)
    return EpochSnapshot(x_tilde=x_tilde, g_tilde=g, z_tilde=Z, v_tilde=v,
                         g_rows=g_rows, df_rows=df_rows)


def _gathered(idx: np.ndarray, count: int, oracle, *args):
    """oracle(idx, *args) for an oracle whose point (and cotangent) every
    index shares: once idx holds at least `count` indices, the number of
    components, one call over `ALL` and a gather, oracle(ALL, *args)[idx] (by
    `take`, a third of its cost). The oracles are row-exact, so the bits are
    the per-index call's."""
    if idx.size >= count:
        return oracle(ALL, *args).take(idx, axis=0)
    return oracle(idx, *args)


def _batch_mean(rows: np.ndarray) -> np.ndarray:
    """Mean over the minibatch axis -2; a stack's rows are the one-row results.
    The sum is divided in place, so a stack's rows and its mean are the only
    arrays it holds."""
    mean = np.einsum("...ak->...k", rows)
    mean /= rows.shape[-2]
    return mean


def _reference_mean(snapshot: EpochSnapshot, B: np.ndarray) -> np.ndarray:
    """df_ref = mean_{i in B} grad f_i(g~) from the snapshot's rows, over B's
    last axis: B (b,) gives (k,), and a stack of steps (t, b) gives (t, k)."""
    return _batch_mean(snapshot.df_rows.take(B, axis=0))


def _inner_estimate(problem, snapshot, x: np.ndarray, A: np.ndarray) -> np.ndarray:
    """g_t = g~ + mean_{j in A} (g_j(x) - g_j(x~)) at a float x, over the last axis
    of a nonempty index array A: A (t, a) gives (t, k). The g_j(x~) are the snapshot's
    rows, gathered by `take` and subtracted out of place (an oracle may return a
    view of its own data); an `ALL` call subtracts all m rows before its gather."""
    g_rows = snapshot.g_rows
    return snapshot.g_tilde + _batch_mean(_gathered(A, problem.dims.m, lambda idx: (
        problem.inner_value(idx, x) - (g_rows if idx is ALL else g_rows.take(idx, axis=0)))))


def _vr_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x, A, B, df_ref=None):
    """v_t on _inner_estimate's g_t from A: A (a,) and B (b,) give shape (d,);
    a stack of trials, A (t, a) and B (t, b), gives (t, d). The inputs are
    checked; df_ref is _reference_mean(snapshot, B), if the caller has it.

    The grad f_i(g~) are the snapshot's rows. When the problem sets
    `constant_jacobian`, its inner maps are affine, so the Jacobian correction
    dz = mean_{j in A} (dg_j(x) - dg_j(x~))^T df_new is exactly zero and is
    skipped: no inner VJP is evaluated. Otherwise the pair is evaluated at x
    and x~, since its cotangent df_new changes every step."""
    g_t = _inner_estimate(problem, snapshot, x, A)
    stack = g_t.ndim > 1
    # a stack's points and cotangents differ per trial, so its calls never gather
    m, n = (math.inf, math.inf) if stack else (problem.dims.m, problem.dims.n)
    y = g_t[..., None, :] if stack else g_t
    df_new = _batch_mean(_gathered(B, n, problem.outer_grad, y))
    if df_ref is None:
        df_ref = _reference_mean(snapshot, B)
    # ndarray.dot makes the BLAS call `@` makes, with its bits, at about half its per-call cost
    v = snapshot.v_tilde + (df_new - df_ref).dot(snapshot.z_tilde)
    if problem.constant_jacobian is not None:
        return v
    # a step keeps one (k,) point and cotangent (the oracles' one-point path); a
    # stack copies its cotangents out to (t, a, k): einsum over (t, 1, k) is ~3x slower
    u = np.repeat(df_new[..., None, :], A.shape[-1], axis=-2) if stack else df_new
    return v + _batch_mean(_gathered(A, m, problem.inner_vjp, x, u)
                           - _gathered(A, m, problem.inner_vjp, snapshot.x_tilde, u))


def estimate_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x, A, B,
                      df_ref=None) -> np.ndarray:
    """Variance-reduced gradient estimate built on the inner estimates.

    v_t = v~ + mean_{i in B} ( z_t^T grad f_i(g_t) - z~^T grad f_i(g~) ), where
    z_t = z~ + mean_{j in A} (dg_j(x) - dg_j(x~)) enters only through VJPs:
    v_t = v~ + z~^T (df_new - df_ref) + mean_{j in A} (dg_j(x) - dg_j(x~))^T df_new.
    A of shape (t, a) and B of shape (t, b) give t estimates, shape (t, d).
    The epoch engine passes df_ref = mean_{i in B} grad f_i(g~), which does not
    depend on x, for a block of steps at once. Costs A.size inner plus B.size
    outer samples. Each variance-reduced step calls it once, and it alone
    checks its inputs; verify's Monte-Carlo trials call `_vr_gradient`.
    """
    A, B = np.asarray(A), np.asarray(B)
    if B.size == 0:
        raise ConfigError("outer minibatch B must be nonempty")
    if A.size == 0:
        raise ConfigError("inner minibatch A must be nonempty")
    return _vr_gradient(problem, snapshot, np.asarray(x, dtype=float), A, B, df_ref)


def unbiased_reference_gradient(problem: CompositionProblem, snapshot: EpochSnapshot, x,
                                B, df_ref=None) -> np.ndarray:
    """Unbiased gradient estimate using exact inner quantities at x.

    u_t = v~ + mean_{i in B} ( Z(x)^T grad f_i(g(x)) - z~^T grad f_i(g~) ), the
    mean over B's last axis: B of shape (t, b) gives t estimates, shape (t, d).
    The grad f_i(g~) are the snapshot's rows; df_ref is their mean,
    _reference_mean(snapshot, B), if the caller has it. Its mean over B draws
    is exactly grad F(x).
    """
    B = np.asarray(B)
    if B.size == 0:
        raise ConfigError("outer minibatch B must be nonempty")
    x = check_point(problem, x)
    g_x, Z_x = _row_mean(problem.inner_value(ALL, x)), mean_jacobian(problem, x)
    df_new = _batch_mean(_gathered(B, problem.dims.n, problem.outer_grad, g_x))
    if df_ref is None:
        df_ref = _reference_mean(snapshot, B)
    return snapshot.v_tilde + df_new @ Z_x - df_ref @ snapshot.z_tilde
