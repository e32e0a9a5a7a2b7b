"""Empirical checks of the estimator contracts: finite-difference gradient
validation, exhaustive unbiasedness, Monte-Carlo domination of the variance
bounds, and the per-epoch potential contraction proxy.

The Monte-Carlo checks evaluate the production estimators on a trial axis of
index draws, shapes (trials, a) and (trials, b): u_t from
`unbiased_reference_gradient` and v_t from `estimators._vr_gradient`, the body
of the solver's `estimate_gradient`; no estimator step is written out here.

The variance bounds are one-sided (upper bounds), so the checks assert
domination with a stated slack, never equality. Monte-Carlo slack is 1.05 plus
a roundoff floor for zero bounds, and the seed-averaged contraction threshold
0.75 (0.5 + 1e-6 in deterministic full-batch mode); at the default trial
counts the false-failure probability is negligible.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import estimators
from .errors import ConfigError
from .estimators import EpochSnapshot, take_snapshot, unbiased_reference_gradient
from .problem import CompositionProblem, full_gradient, objective, smooth_value
from .problems import (build_bellman, build_mean_variance, build_toy, data_rng,
                       synthetic_returns)
from .solver import RunConfig, predicted_total_samples, run_scvrg
from .trace import Recorder

FD_TOL = 1e-5  # relative error of the analytic gradient against central differences
UNBIASED_TOL = 1e-12  # relative error of the enumerated mean of u_t
SCALING_REL_TOL = 0.10  # relative tolerance on the coupling variance's 1/a ratio
MC_SLACK = 1.05
MC_CHUNK = 20_000  # Monte-Carlo trials per draw
# trials per estimator evaluation, which bounds its (t, a, k) rows and the
# (t, a, k, d) gathers of its inner VJP stacks, and of its inner values when t * a < m
MC_SLICE = 5_000
CONTRACTION_THRESHOLD = 0.75
CONTRACTION_SEEDS = 20  # seeds the stochastic contraction check averages over
CONTRACTION_THRESHOLD_DETERMINISTIC = 0.5 + 1e-6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: measured value against its reference bound."""

    name: str
    passed: bool
    measured: float
    bound: float
    trials: int
    seed: int
    skipped: bool = False
    detail: str = ""

    def format_line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        line = (f"[{status}] {self.name}: measured={self.measured:.6g} "
                f"bound={self.bound:.6g} trials={self.trials} seed={self.seed}")
        if self.detail:
            line += f" ({self.detail})"
        return line

    def to_csv_row(self) -> str:
        return (f"{self.name},{str(self.passed).lower()},{float(self.measured)!r},"
                f"{float(self.bound)!r},{self.trials},{self.seed}")


REPORT_HEADER = "name,pass,measured,bound,trials,seed"


def write_report_csv(reports, fh):
    """Write the reports as CSV rows under REPORT_HEADER to the text file `fh`."""
    fh.write(REPORT_HEADER + "\n")
    for report in reports:
        fh.write(report.to_csv_row() + "\n")


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------

def fd_gradient(problem: CompositionProblem, x) -> np.ndarray:
    """Central finite differences of the smooth part F, step 1e-6 (1 + ||x||)."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    return np.array([(smooth_value(problem, x + e) - smooth_value(problem, x - e)) / (2 * h)
                     for e in h * np.eye(x.size)])  # e = h e_t, with +0.0 elsewhere


def check_gradient_fd(problem: CompositionProblem, points, name: str = "gradient_fd",
                      seed: int = 0) -> CheckReport:
    """Max relative error between the analytic gradient and central differences."""
    worst = 0.0
    for x in points:
        analytic = full_gradient(problem, x)
        numeric = fd_gradient(problem, x)
        scale = max(np.linalg.norm(analytic), 1e-12)
        worst = max(worst, np.linalg.norm(numeric - analytic) / scale)
    return CheckReport(name=name, passed=worst <= FD_TOL, measured=worst, bound=FD_TOL,
                       trials=len(points), seed=seed)


def check_unbiasedness(problem: CompositionProblem, snapshot: EpochSnapshot, x,
                       b: int = 1, seed: int = 0) -> CheckReport:
    """Exhaustive-enumeration mean of the unbiased estimate vs the exact gradient.

    Enumerates all n^b equally likely outer draws; restricted to n <= 4, b <= 2
    so enumeration stays exact.
    """
    n = problem.dims.n
    if n > 4 or b > 2:
        raise ConfigError(f"exhaustive regime requires n <= 4 and b <= 2, got n={n}, b={b}")
    draws = np.array(list(itertools.product(range(n), repeat=b)))   # (n^b, b)
    mean = unbiased_reference_gradient(problem, snapshot, x, draws).mean(axis=0)
    exact = full_gradient(problem, x)
    rel = np.linalg.norm(mean - exact) / max(np.linalg.norm(exact), 1e-300)
    return CheckReport(name="unbiasedness", passed=rel <= UNBIASED_TOL, measured=rel,
                       bound=UNBIASED_TOL, trials=len(draws), seed=seed)


# ---------------------------------------------------------------------------
# Monte-Carlo variance-bound checks
# ---------------------------------------------------------------------------

def _check_trials(trials):
    if trials < 1:
        raise ConfigError(f"Monte-Carlo trial count must be >= 1, got {trials}")


def _mc_mean_sq(problem, a, b, trials, seed, deviation):
    """Monte-Carlo mean of ||deviation(A, B)||^2 over uniform draws A (t, a)
    and B (t, b), drawn MC_CHUNK trials at a time and evaluated MC_SLICE at a
    time."""
    _check_trials(trials)
    m, n = problem.dims.m, problem.dims.n
    rng = np.random.default_rng(seed)
    acc = 0.0
    for done in range(0, trials, MC_CHUNK):
        t = min(MC_CHUNK, trials - done)
        A = rng.integers(0, m, size=(t, a))
        B = rng.integers(0, n, size=(t, b))
        for s in range(0, t, MC_SLICE):
            acc += float(np.sum(deviation(A[s:s + MC_SLICE], B[s:s + MC_SLICE]) ** 2))
    return acc / trials


def _simulate_vu_sq(problem, snapshot, x, a, b, trials, seed):
    """Monte-Carlo mean of ||v_t - u_t||^2 with shared B, and its reference mean,
    per paired draw."""
    def deviation(A, B):
        df_ref = estimators._reference_mean(snapshot, B)
        return (estimators._vr_gradient(problem, snapshot, x, A, B, df_ref)
                - unbiased_reference_gradient(problem, snapshot, x, B, df_ref))
    return _mc_mean_sq(problem, a, b, trials, seed, deviation)


def _dominated(name, measured, bound, snapshot, trials, seed) -> CheckReport:
    """A domination check's report, passed when measured <= MC_SLACK * bound + a roundoff
    floor: a bound of 0 (x == x~, or x == x~ == x*) still measures squared norms ~eps^2."""
    floor = 1e-24 * max(1.0, float(np.sum(snapshot.v_tilde**2)))
    return CheckReport(name=name, passed=measured <= MC_SLACK * bound + floor,
                       measured=measured, bound=bound, trials=trials, seed=seed)


def _bound_terms(problem: CompositionProblem, snapshot: EpochSnapshot, x):
    """ell, the summed objective gaps and the summed squared distances to the
    certified optimum at x and at the reference: the inputs of the Lemma 2
    and combined variance bounds."""
    if problem.x_star is None or problem.phi_star is None:
        raise ConfigError("the variance bounds require a problem with a certified optimum")
    ell = problem.smoothness().ell
    x = np.asarray(x, float)
    xs, ps = problem.x_star, problem.phi_star
    gap_x = objective(problem, x) - ps
    gap_ref = objective(problem, snapshot.x_tilde) - ps
    d_x = float(np.sum((x - xs) ** 2))
    d_ref = float(np.sum((snapshot.x_tilde - xs) ** 2))
    return ell, gap_x + gap_ref, d_x + d_ref


def check_lemma1(problem: CompositionProblem, snapshot: EpochSnapshot, x,
                 a: int, b: int, trials: int = 100_000, seed: int = 0) -> CheckReport:
    """Domination check for the estimator-coupling variance bound.

    Compares the Monte-Carlo mean of ||v_t - u_t||^2 against
    2 ell^2 ||x - x~||^2 / a.
    """
    ell = problem.smoothness().ell
    dist_sq = float(np.sum((np.asarray(x, float) - snapshot.x_tilde) ** 2))
    bound = 2.0 * ell**2 * dist_sq / a
    measured = _simulate_vu_sq(problem, snapshot, x, a, b, trials, seed)
    return _dominated("lemma1_domination", measured, bound, snapshot, trials, seed)


def check_lemma1_scaling(problem: CompositionProblem, snapshot: EpochSnapshot, x,
                         a: int, b: int, trials: int = 100_000, seed: int = 0) -> CheckReport:
    """Doubling a should halve the coupling variance to within SCALING_REL_TOL."""
    small = _simulate_vu_sq(problem, snapshot, x, a, b, trials, seed)
    large = _simulate_vu_sq(problem, snapshot, x, 2 * a, b, trials, seed + 1)
    ratio = small / large
    passed = abs(ratio - 2.0) <= 2.0 * SCALING_REL_TOL
    return CheckReport(name="lemma1_inverse_a_scaling", passed=passed, measured=ratio,
                       bound=2.0, trials=trials, seed=seed,
                       detail=f"relative tolerance {SCALING_REL_TOL:g}")


def check_lemma2(problem: CompositionProblem, snapshot: EpochSnapshot, x,
                 b: int, trials: int = 100_000, seed: int = 0) -> CheckReport:
    """Domination check for the unbiased-estimator variance bound.

    Compares the Monte-Carlo mean of ||u_t - grad F(x)||^2 against
    16 ell (gaps) / b + 12 ell^2 (squared distances) / b, with the objective
    gaps and distances to the certified optimum taken at x and the reference.
    """
    ell, gaps, dists = _bound_terms(problem, snapshot, x)
    grad = full_gradient(problem, x)
    measured = _mc_mean_sq(problem, 0, b, trials, seed, lambda _, B: (  # no inner draws
        unbiased_reference_gradient(problem, snapshot, x, B) - grad))
    bound = 16.0 * ell * gaps / b + 12.0 * ell**2 * dists / b
    return _dominated("lemma2_domination", measured, bound, snapshot, trials, seed)


def check_combined_bound(problem: CompositionProblem, snapshot: EpochSnapshot, x,
                         a: int, b: int, trials: int = 100_000, seed: int = 0) -> CheckReport:
    """Domination of ||v_t - grad F(x)||^2 by the combined variance bound."""
    ell, gaps, dists = _bound_terms(problem, snapshot, x)
    grad = full_gradient(problem, x)
    measured = _mc_mean_sq(problem, a, b, trials, seed, lambda A, B: (
        estimators._vr_gradient(problem, snapshot, x, A, B) - grad))
    bound = (16.0 * ell * gaps / b
             + (4.0 * ell**2 / a + 12.0 * ell**2 / b) * dists)
    return _dominated("combined_bound_domination", measured, bound, snapshot, trials, seed)


# ---------------------------------------------------------------------------
# epoch contraction proxy
# ---------------------------------------------------------------------------

def contraction_hypotheses(ell: float, beta: float, T: int):
    """The contraction theorem's hypotheses as (a_min, b_min, eta_max):
    a >= 2 ell^2 / beta^2, b >= ell^2 / beta^2 and
    eta <= min(1/(30 beta T ell), 1/(25 ell))."""
    return (2.0 * ell**2 / beta**2, ell**2 / beta**2,
            min(1.0 / (30.0 * beta * T * ell), 1.0 / (25.0 * ell)))


def epoch_potentials(problem: CompositionProblem, config: RunConfig, beta: float,
                     x0) -> np.ndarray:
    """Per-epoch composite potential: objective gap plus weighted distance
    terms at each epoch's reference, first iterate and first step, from a full
    run's epoch records, and once more at the run's closing point. Phi at x0
    and at each epoch's last iterate (the next first iterate) is read from the
    rows the run's recorder keeps there."""
    if problem.x_star is None or problem.phi_star is None:
        raise ConfigError("contraction check requires a problem with a certified optimum")
    xs, ps, ell = problem.x_star, problem.phi_star, problem.smoothness().ell
    budget = predicted_total_samples(config, problem.dims.m, problem.dims.n)
    recorder = Recorder(problem, budget)
    # by keyword: perfbench times this call through a (problem, config, x0, **kwargs) wrapper
    result = run_scvrg(problem, config, x0, recorder=recorder)
    last = result.epochs[-1]
    # (reference, first iterate, first step, k_s = k0 * 2^s) for s = 0..S
    points = [(e.x_ref, e.x_start, e.eta_start, e.k // 2) for e in result.epochs]
    points.append((result.x, last.x_last, config.step(last.l), last.k))
    phi_start = [row.objective for row in recorder.rows]
    phi_ref = phi_start[:1] + [objective(problem, x_ref) for x_ref, *_ in points[1:]]
    return np.array([phi_r - ps
                     + 4.5 * beta * ell * float(np.sum((x_ref - xs) ** 2))
                     + 3.0 * float(np.sum((x_start - xs) ** 2)) / (4.0 * eta0 * k_s)
                     + 1.5 * (phi_s - ps) / k_s
                     for (x_ref, x_start, eta0, k_s), phi_r, phi_s
                     in zip(points, phi_ref, phi_start, strict=True)])


def check_epoch_contraction(problem: CompositionProblem, config: RunConfig,
                            beta: float, seeds) -> CheckReport:
    """Seed-averaged potential must contract by the threshold factor per epoch,
    from x0 = (R/2, ..., R/2).

    The `contraction_hypotheses` are verified first; a config that cannot
    satisfy them yields a skipped report.
    """
    ell = problem.smoothness().ell
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    deterministic = config.a == problem.dims.m and config.b == problem.dims.n
    threshold = (CONTRACTION_THRESHOLD_DETERMINISTIC if deterministic
                 else CONTRACTION_THRESHOLD)
    a_min, b_min, eta_max = contraction_hypotheses(ell, beta, config.T)
    reasons = []
    # full enumeration makes the gradient estimate exact, so the batch-size
    # hypotheses (which only control its variance) are vacuous there
    if not deterministic:
        if config.a < a_min:
            reasons.append(f"a={config.a} < 2 ell^2/beta^2 = {a_min:.3g}")
        if config.b < b_min:
            reasons.append(f"b={config.b} < ell^2/beta^2 = {b_min:.3g}")
    if config.eta > eta_max:
        reasons.append(f"eta={config.eta:.3g} > {eta_max:.3g}")
    if reasons:
        return CheckReport(name="epoch_contraction", passed=False, measured=np.nan,
                           bound=threshold, trials=len(seeds), seed=config.seed,
                           skipped=True, detail="; ".join(reasons))
    x0 = np.full(problem.dims.d, 0.5 * problem.regularizer.radius)
    averaged = sum(epoch_potentials(problem, replace(config, seed=int(seed)), beta, x0)
                   for seed in seeds) / len(seeds)
    ratios = averaged[1:] / averaged[:-1]
    measured = float(np.max(ratios))
    return CheckReport(name="epoch_contraction", passed=measured <= threshold,
                       measured=measured, bound=threshold, trials=len(seeds),
                       seed=config.seed,
                       detail="ratios " + ", ".join(f"{r:.4f}" for r in ratios))


# ---------------------------------------------------------------------------
# aggregate runner (CLI `check` subcommand)
# ---------------------------------------------------------------------------

def suite_inputs(seed: int, trials: int):
    """The contraction config and the fixture generator of `run_all_checks(seed,
    trials)`; raises for a seed or trial count the suite refuses."""
    config = RunConfig(S=3, k0=10, seed=seed)
    rng = data_rng(seed)
    _check_trials(trials)
    return config, rng


def run_all_checks(seed: int = 0, trials: int = 20_000):
    """Standard fixture suite; smaller trial counts than the acceptance tests
    so the CLI stays interactive."""
    config, rng = suite_inputs(seed, trials)  # before any check runs
    reports = []

    builders = {
        "toy_identity": build_toy("identity", d=3, m=4, n=3, seed=seed),
        "toy_affine": build_toy("affine", d=3, m=4, n=3, seed=seed),
        "toy_mixed": build_toy("mixed", d=3, m=4, n=2, seed=seed),
        "meanvar": build_mean_variance(synthetic_returns(50, 4, seed), lam=1e-2),
        "bellman": build_bellman(5, 8, 0.9, seed),
    }
    for label, problem in builders.items():
        R = problem.regularizer.radius
        points = rng.uniform(-0.9 * R, 0.9 * R, size=(20, problem.dims.d))
        reports.append(check_gradient_fd(problem, points, name=f"gradient_fd_{label}",
                                         seed=seed))

    toy = builders["toy_affine"]
    x_ref = rng.uniform(-0.5, 0.5, size=toy.dims.d)
    x = rng.uniform(-0.5, 0.5, size=toy.dims.d)
    snapshot = take_snapshot(toy, x_ref)
    reports.append(check_unbiasedness(toy, snapshot, x, b=2, seed=seed))
    reports.append(check_lemma1(toy, snapshot, x, a=2, b=2, trials=trials, seed=seed))
    reports.append(check_lemma1_scaling(toy, snapshot, x, a=2, b=2,
                                        trials=max(trials, 50_000), seed=seed))
    # the affine toy's u_t has zero variance (constant Jacobians, and
    # grad f_i(y) - grad f_i(y') the same for every i), so Lemma 2 and the
    # combined bound run on the mixed toy, whose outer gradients differ by
    # scale; on the affine toy the combined bound would measure Lemma 1's
    # ||v_t - u_t||^2 again
    mixed = builders["toy_mixed"]
    mixed_snapshot = take_snapshot(mixed, x_ref)
    reports.append(check_lemma2(mixed, mixed_snapshot, x, b=2, trials=trials, seed=seed))
    reports.append(check_combined_bound(mixed, mixed_snapshot, x, a=2, b=2,
                                        trials=trials, seed=seed))

    # the affine toy's estimator genuinely varies with the minibatch draws,
    # unlike the identity toy whose control variates cancel all noise exactly
    contraction_toy = build_toy("affine", d=3, m=12, n=8, seed=seed)
    ell = contraction_toy.smoothness().ell
    beta = 0.9
    a_min, b_min, eta_max = contraction_hypotheses(ell, beta, config.T)
    stochastic = replace(config, eta=eta_max, a=math.ceil(a_min), b=math.ceil(b_min))
    deterministic = replace(config, eta=eta_max, a=12, b=8)
    reports.append(check_epoch_contraction(contraction_toy, stochastic, beta,
                                           seeds=range(CONTRACTION_SEEDS)))
    reports.append(check_epoch_contraction(contraction_toy, deterministic, beta,
                                           seeds=[seed]))
    return reports


def all_passed(reports) -> bool:
    return all(report.passed or report.skipped for report in reports)
