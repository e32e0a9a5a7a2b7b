"""Variance-reduced compositional solver with doubling epochs and adaptive steps.

The driver runs S epochs. Epoch body s (s = 0..S-1) takes a snapshot at the
current reference, performs k0 * 2^(s+1) minibatch proximal steps, and sets the
next reference to the unweighted average of the iterates visited. A single
global counter l drives the step schedule eta * sqrt(T) / sqrt(2T - l) with
T = k0 * 2^S - k0; since the epoch lengths sum to 2T the denominator is clamped
at 1 on the final step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .estimators import (_reference_mean, _seed_key, draw_minibatch, estimate_gradient,
                         take_snapshot)
from .problem import CompositionProblem, start_point
from .prox import prox_step
from .trace import Recorder

SCHEDULES = ("adaptive", "constant")
# most minibatch indices one draw_minibatch call returns, across a run's epochs,
# and most floats one block of steps' (t, b, k) reference-mean gather holds
_DRAW_CHUNK = 2**16


@dataclass
class RunConfig:
    """Solver inputs: first epoch length k0, epoch count S, base step eta,
    batch sizes a/b, seed and step schedule mode."""

    S: int
    k0: int = 10
    eta: float = 0.01
    a: int = 5
    b: int = 5
    seed: int = 0
    schedule: str = "adaptive"

    def __post_init__(self):
        if self.k0 < 1:
            raise ConfigError(f"first epoch length k0 must be >= 1, got {self.k0}")
        if self.S < 1:
            raise ConfigError(f"epoch count S must be >= 1, got {self.S}")
        if not 0 < self.eta < math.inf:
            raise ConfigError(f"base step eta must be positive and finite, got {self.eta}")
        if not (1 <= self.a < 2**31 and 1 <= self.b < 2**31):
            raise ConfigError(f"batch sizes out of range: a={self.a}, b={self.b}")
        try:
            _seed_key(self.seed)  # an int64, not a float or bool
        except (TypeError, OverflowError) as exc:
            raise ConfigError(str(exc)) from None
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"schedule must be one of {SCHEDULES}, got {self.schedule!r}")
        # no run takes 2^63 steps, and a float step cannot hold T; S >= 64 skips 2^S
        if self.S >= 64 or self.T >= 2**63:
            raise ConfigError(f"schedule horizon T = k0 * 2^S - k0 must be below 2^63, "
                              f"got k0={self.k0}, S={self.S}")

    @property
    def T(self) -> int:
        """Schedule horizon; the epoch lengths k0*2, ..., k0*2^S sum to 2T."""
        return self.k0 * 2**self.S - self.k0

    def step(self, l: int) -> float:
        """Step size at global step counter l: eta under the constant schedule,
        else eta * sqrt(T) / sqrt(max(2T - l, 1)), nondecreasing in l."""
        if self.schedule == "constant":
            return self.eta
        T = self.T
        return self.eta * math.sqrt(T) / math.sqrt(max(2 * T - l, 1))


@dataclass(frozen=True)
class EpochInfo:
    """One epoch's record (epoch index is 1-based, matching k_s = k0*2^s)."""

    epoch: int
    x_ref: np.ndarray     # reference the snapshot was taken at
    x_start: np.ndarray   # first iterate of the epoch
    x_avg: np.ndarray     # unweighted mean of the k pre-update iterates
    x_last: np.ndarray    # iterate after the final update
    k: int
    eta_start: float
    samples_end: int
    l: int                # step counter after the epoch


@dataclass
class ScvrgResult:
    x: np.ndarray
    epochs: list
    samples: int


def _minibatches(problem: CompositionProblem, config: RunConfig, schedule, left: int):
    """Index rows (t, a) and (t, b) per block of consecutive steps of one
    epoch, in run order, for the epochs of `schedule`, (epoch index, length)
    pairs, that `left` samples pay for as run_epoch spends them. One
    draw_minibatch call serves up to _DRAW_CHUNK indices across epochs, so
    Philox's fixed cost is paid once per chunk; rows past a divergence abort
    are never charged. With a == m (b == n) each A (B) is every index once,
    so the estimate is exact, and with both nothing is drawn.
    """
    m, n, a, b = problem.dims.m, problem.dims.n, config.a, config.b
    chunk = max(1, _DRAW_CHUNK // (a + b))
    block = min(chunk, max(1, _DRAW_CHUNK // (b * problem.dims.k)))

    def drawn(pieces):  # the blocks of one draw, from their (epoch, first step, steps)
        steps = np.concatenate([np.arange(t, t + c) for _, t, c in pieces])
        if a != m or b != n:
            A, B = draw_minibatch(m, n, a, b, config.seed,
                                  np.concatenate([np.full(c, e) for e, _, c in pieces]), steps)
        A = np.broadcast_to(np.arange(m), (steps.size, m)) if a == m else A
        B = np.broadcast_to(np.arange(n), (steps.size, n)) if b == n else B
        cuts = np.cumsum([c for *_, c in pieces])[:-1]
        return zip(np.split(A, cuts), np.split(B, cuts))

    pieces, size = [], 0
    for epoch, k in schedule:
        if left < m + n + a + b:
            break
        k = min(k, (left - m - n) // (a + b))
        left -= m + n + k * (a + b)
        t = 0
        while t < k:
            count = min(block, k - t, chunk - size)
            pieces.append((epoch, t, count))
            t, size = t + count, size + count
            if size == chunk:
                yield from drawn(pieces)
                pieces, size = [], 0
    if pieces:
        yield from drawn(pieces)


def run_epoch(problem: CompositionProblem, x_ref, x0, k: int, l: int, config: RunConfig,
              epoch_index: int, recorder: Recorder, minibatches=None) -> EpochInfo | None:
    """The epoch body: a snapshot at x_ref, then k minibatch proximal steps
    from x0 against it, or None, with nothing charged, if the recorder cannot
    pay m + n + a + b. It charges m + n for the snapshot and a + b per step.

    Returns the epoch's record: the unweighted mean of the k pre-update
    iterates, the final iterate and l advanced by one per step. The index rows
    come in blocks from the run's `minibatches` (by default, this epoch's), and
    a block's reference means, which do not depend on the iterate, are
    computed at once. The epoch stops early, freezing the average, once the
    recorder cannot pay for another step. The recorder, which its runner has
    started, checks every step and keeps a row at its sample cadence and one
    at the end of the epoch, at the number of steps taken.
    """
    if k < 1:
        raise ConfigError(f"epoch length must be >= 1, got {k}")
    m, n = problem.dims.m, problem.dims.n
    step_cost = config.a + config.b
    if not recorder.affords(m + n + step_cost):
        return None
    minibatches = minibatches or _minibatches(problem, config, [(epoch_index, k)],
                                              recorder.budget - recorder.samples)
    snapshot = take_snapshot(problem, x_ref)
    recorder.charge(m + n)
    x_start = np.asarray(x0, dtype=float)
    eta_start = config.step(l)
    x = x_start.copy()
    x_sum = np.zeros_like(x)

    end = 0
    for t in range(k):
        x_sum += x
        if t == end:
            rows_A, rows_B = next(minibatches)
            df_refs = _reference_mean(snapshot, rows_B)
            start, end = t, t + len(rows_B)
        v = estimate_gradient(problem, snapshot, x, rows_A[t - start], rows_B[t - start],
                              df_refs[t - start])
        recorder.charge(step_cost)
        eta_t = config.step(l)
        l += 1
        x = prox_step(problem.regularizer, x - eta_t * v, eta_t)
        recorder.record_step(epoch_index, t + 1, x)
        if not recorder.affords(step_cost):
            x_sum += x * (k - t - 1)  # freeze the average at the stop point
            break
    recorder.record(epoch_index, t + 1, x)
    return EpochInfo(epoch=epoch_index, x_ref=snapshot.x_tilde, x_start=x_start,
                     x_avg=x_sum / k, x_last=x, k=k, eta_start=eta_start,
                     samples_end=recorder.samples, l=l)


def run_scvrg(problem: CompositionProblem, config: RunConfig, x0,
              recorder: Recorder) -> ScvrgResult:
    """Full doubling-epoch run: S epoch bodies, returning the final reference.

    Epoch body s (0-based) has length k0 * 2^(s+1); its snapshot is taken at
    the previous epoch's average (the initial point for s = 0) and its first
    iterate is the previous epoch's last iterate. Per-epoch sample charge is
    m + n + k * (a + b); no snapshot or step starts that the recorder's
    budget cannot pay for. A budget of `predicted_total_samples` runs all S
    epochs in full.
    """
    x_ref = x_cur = start_point(problem, x0)
    recorder.start("scvrg", config.seed, x_ref)
    schedule = [(s + 1, config.k0 * 2 ** (s + 1)) for s in range(config.S)]
    minibatches = _minibatches(problem, config, schedule, recorder.budget - recorder.samples)
    l = 0
    epochs: list[EpochInfo] = []
    for epoch, k in schedule:
        info = run_epoch(problem, x_ref, x_cur, k, l, config, epoch, recorder, minibatches)
        if info is None:
            break
        epochs.append(info)
        l, x_ref, x_cur = info.l, info.x_avg, info.x_last
    return ScvrgResult(x=x_ref, epochs=epochs, samples=recorder.samples)


def predicted_total_samples(config: RunConfig, m: int, n: int) -> int:
    """Exact sample count of S full epochs: sum_s m + n + k_s (a+b), where the
    epoch lengths k_s sum to 2T."""
    return config.S * (m + n) + 2 * config.T * (config.a + config.b)
