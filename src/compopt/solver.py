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
from .estimators import SampleMeter, draw_minibatch, estimate_gradient, take_snapshot
from .problem import CompositionProblem, start_point
from .prox import prox_step
from .trace import Recorder

SCHEDULES = ("adaptive", "constant")
# most minibatch indices one draw_minibatch call returns within an epoch
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


def derive_theorem_params(D_x: float, D_Phi: float, ell: float, epsilon: float) -> RunConfig:
    """Worst-case-analysis configuration for a target tolerance epsilon.

    k0 = 10, S = floor(log2((6 D_Phi + 15 ell D_x^2) / eps)) + 1,
    eta = D_x^2 / (10 D_Phi + 25 ell D_x^2),
    a = ceil(1620 ell^2 D_x^4 / eps^2), b = ceil(810 ell^2 D_x^4 / eps^2).
    """
    for name, value in (("D_x", D_x), ("D_Phi", D_Phi), ("ell", ell), ("epsilon", epsilon)):
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    S = max(1, math.floor(math.log2((6 * D_Phi + 15 * ell * D_x**2) / epsilon)) + 1)
    eta = D_x**2 / (10 * D_Phi + 25 * ell * D_x**2)
    a = math.ceil(1620 * ell**2 * D_x**4 / epsilon**2)
    b = math.ceil(810 * ell**2 * D_x**4 / epsilon**2)
    if a >= 2**31 or b >= 2**31:
        raise ConfigError(
            f"tolerance {epsilon:g} requires batch sizes a={a}, b={b}; "
            "use a practical configuration (e.g. a=b=5) instead")
    return RunConfig(S=S, k0=10, eta=eta, a=a, b=b, schedule="adaptive")


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
    trace: list
    epochs: list
    samples: int
    l_final: int


def run_epoch(problem: CompositionProblem, x_ref, x0, k: int, l: int, config: RunConfig,
              epoch_index: int, recorder: Recorder) -> EpochInfo | None:
    """The epoch body: a snapshot at x_ref, then k minibatch proximal steps
    from x0 against it, or None, with nothing charged, if the recorder's meter
    cannot pay m + n + a + b. It charges m + n for the snapshot and a + b per step.

    Returns the epoch's record: the unweighted mean of the k pre-update
    iterates, the final iterate and l advanced by one per step. When a == m
    (resp. b == n) the draw enumerates every index once, making the estimate
    exact; otherwise indices are sampled uniformly with replacement, drawn for
    up to _DRAW_CHUNK indices' worth of steps at a time. The epoch stops
    early, freezing the average, once the meter cannot pay for another step.
    The recorder checks every step, and keeps a row at its cadence and one at
    the end of the epoch, at the number of steps taken.
    """
    if k < 1:
        raise ConfigError(f"epoch length must be >= 1, got {k}")
    m, n = problem.dims.m, problem.dims.n
    meter, step_cost = recorder.meter, config.a + config.b
    if not meter.affords(m + n + step_cost):
        return None
    snapshot = take_snapshot(problem, x_ref)
    meter.add(m + n)
    x_start = np.asarray(x0, dtype=float)
    eta_start = config.step(l)
    x = x_start.copy()
    x_sum = np.zeros_like(x)

    full_A = np.arange(m) if config.a == m else None
    full_B = np.arange(n) if config.b == n else None
    sampled = full_A is None or full_B is None
    chunk = max(1, _DRAW_CHUNK // step_cost)

    for t in range(k):
        x_sum += x
        if sampled and t % chunk == 0:
            draw = draw_minibatch(m, n, config.a, config.b, config.seed, epoch_index,
                                  np.arange(t, min(t + chunk, k)))
        A = full_A if full_A is not None else draw.A[t % chunk]
        B = full_B if full_B is not None else draw.B[t % chunk]
        v = estimate_gradient(problem, snapshot, x, A, B)
        meter.add(step_cost)
        eta_t = config.step(l)
        l += 1
        x = prox_step(problem.regularizer, x - eta_t * v, eta_t)
        recorder.record_step(epoch_index, t + 1, x)
        if not meter.affords(step_cost):
            x_sum += x * (k - t - 1)  # freeze the average at the stop point
            break
    recorder.record(epoch_index, t + 1, x)
    return EpochInfo(epoch=epoch_index, x_ref=snapshot.x_tilde, x_start=x_start,
                     x_avg=x_sum / k, x_last=x, k=k, eta_start=eta_start,
                     samples_end=meter.total, l=l)


def run_scvrg(problem: CompositionProblem, config: RunConfig, x0,
              max_samples: int | None = None, phi_star: float | None = None,
              trace_every: int | None = None) -> ScvrgResult:
    """Full doubling-epoch run: S epoch bodies, returning the final reference.

    Epoch body s (0-based) has length k0 * 2^(s+1); its snapshot is taken at
    the previous epoch's average (the initial point for s = 0) and its first
    iterate is the previous epoch's last iterate. Per-epoch sample charge is
    m + n + k * (a + b); no snapshot or step starts that max_samples cannot
    pay for.
    """
    x_ref = x_cur = start_point(problem, x0)
    recorder = Recorder(problem, "scvrg", config.seed, SampleMeter(max_samples), x_ref,
                        phi_star, every=trace_every)
    l = 0
    epochs: list[EpochInfo] = []
    for s in range(config.S):
        info = run_epoch(problem, x_ref, x_cur, config.k0 * 2 ** (s + 1), l, config,
                         s + 1, recorder)
        if info is None:
            break
        epochs.append(info)
        l, x_ref, x_cur = info.l, info.x_avg, info.x_last
    return ScvrgResult(x=x_ref, trace=recorder.rows, epochs=epochs,
                       samples=recorder.meter.total, l_final=l)


def predicted_total_samples(config: RunConfig, m: int, n: int) -> int:
    """Exact sample count of a full (unbudgeted) run: sum_s m + n + k_s (a+b)."""
    total = 0
    for s in range(config.S):
        total += m + n + config.k0 * 2 ** (s + 1) * (config.a + config.b)
    return total
