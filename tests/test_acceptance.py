"""Acceptance suite: end-to-end properties the library must satisfy.

Each test states its tolerance inline; the slow relative-ordering benchmark
(criterion 10 analogue) is the only test that takes more than a minute.
"""

import itertools
import math
import time

import numpy as np
import pytest

from compopt.estimators import draw_minibatch, estimate_gradient, take_snapshot
from compopt.harness import compute_phi_star, run_one
from compopt.problem import full_gradient, objective
from compopt.problems import build_bellman, build_mean_variance, build_toy, synthetic_returns
from compopt.prox import Regularizer, prox_step
from compopt.solver import RunConfig, predicted_total_samples, run_scvrg
from compopt.verify import (check_epoch_contraction, check_gradient_fd,
                            check_lemma1, check_lemma1_scaling, check_lemma2,
                            check_unbiasedness)
from conftest import run
from test_prox import numeric_prox_1d


def all_builders(seed=0):
    return {
        "meanvar": build_mean_variance(synthetic_returns(50, 4, seed), lam=1e-2),
        "bellman": build_bellman(5, 8, 0.9, seed),
        "toy_identity": build_toy("identity", d=3, m=4, n=3, seed=seed),
        "toy_affine": build_toy("affine", d=3, m=4, n=3, seed=seed),
        "toy_mixed": build_toy("mixed", d=3, m=4, n=2, seed=seed),
    }


class TestGradientCorrectness:
    """Criterion 1: analytic gradients match central differences, rel <= 1e-5."""

    def test_all_builders(self):
        start = time.time()
        rng = np.random.default_rng(0)
        for label, problem in all_builders().items():
            R = problem.regularizer.radius
            points = rng.uniform(-0.9 * min(R, 1.0), 0.9 * min(R, 1.0),
                                 size=(20, problem.dims.d))
            report = check_gradient_fd(problem, points, name=f"gradient_fd_{label}")
            assert report.passed, f"{label}: rel error {report.measured:g}"
        assert time.time() - start < 10.0


class TestEstimatorFixedPoint:
    """Criterion 2: v_t evaluated at the snapshot point equals v~ (<= 1e-12)."""

    def test_hundred_random_snapshots(self):
        rng = np.random.default_rng(1)
        problems = [build_toy("affine", d=3, m=5, n=4, seed=0),
                    build_toy("mixed", d=3, m=4, n=3, seed=1),
                    build_mean_variance(synthetic_returns(20, 3, seed=2), lam=1e-2)]
        for trial in range(100):
            problem = problems[trial % len(problems)]
            x_ref = rng.uniform(-0.5, 0.5, size=problem.dims.d)
            snap = take_snapshot(problem, x_ref)
            (A,), (B,) = draw_minibatch(problem.dims.m, problem.dims.n, 2, 2,
                                        seed=trial, epoch=1, iteration=[0])
            v = estimate_gradient(problem, snap, snap.x_tilde, A, B)
            assert np.max(np.abs(v - snap.v_tilde)) <= 1e-12


class TestUnbiasedness:
    """Criterion 3: exhaustive mean of u_t equals grad F(x), rel <= 1e-12."""

    def test_fifty_random_pairs(self):
        toy = build_toy("mixed", d=3, m=4, n=2, seed=0)  # n <= 4
        rng = np.random.default_rng(2)
        for trial in range(50):
            x_ref = rng.uniform(-0.6, 0.6, size=3)
            x = rng.uniform(-0.6, 0.6, size=3)
            snap = take_snapshot(toy, x_ref)
            report = check_unbiasedness(toy, snap, x, b=2, seed=trial)
            assert report.passed, f"trial {trial}: rel {report.measured:g}"


class TestLemma1Domination:
    """Criterion 4: coupling variance under 1.05x its bound; 1/a scaling."""

    def test_domination_and_scaling(self):
        start = time.time()
        toy = build_toy("affine", d=3, m=4, n=3, seed=0)
        rng = np.random.default_rng(3)
        snap = take_snapshot(toy, rng.uniform(-0.5, 0.5, size=3))
        x = rng.uniform(-0.5, 0.5, size=3)
        report = check_lemma1(toy, snap, x, a=2, b=2, trials=100_000, seed=0)
        assert report.passed
        assert report.measured <= 1.05 * report.bound
        scaling = check_lemma1_scaling(toy, snap, x, a=2, b=2, trials=100_000, seed=0)
        assert scaling.passed
        assert abs(scaling.measured - 2.0) <= 0.2
        assert time.time() - start < 60.0


class TestLemma2Domination:
    """Criterion 5: unbiased-estimator variance under 1.05x its bound."""

    def test_domination(self):
        toy = build_toy("affine", d=3, m=4, n=3, seed=0)
        assert toy.x_star is not None
        rng = np.random.default_rng(4)
        snap = take_snapshot(toy, rng.uniform(-0.5, 0.5, size=3))
        x = rng.uniform(-0.5, 0.5, size=3)
        report = check_lemma2(toy, snap, x, b=2, trials=100_000, seed=0)
        assert report.passed
        assert report.measured <= 1.05 * report.bound

    def test_domination_mixed(self):
        # unlike the affine toy's, the mixed toy's u_t has nonzero variance
        toy = build_toy("mixed", d=3, m=4, n=2, seed=0)
        assert toy.x_star is not None
        rng = np.random.default_rng(4)
        snap = take_snapshot(toy, rng.uniform(-0.5, 0.5, size=3))
        x = rng.uniform(-0.5, 0.5, size=3)
        report = check_lemma2(toy, snap, x, b=2, trials=100_000, seed=0)
        assert report.passed
        assert 0.0 < report.measured <= 1.05 * report.bound


class TestEpochContraction:
    """Criterion 6: seed-averaged potentials contract by 0.75 per epoch under
    the step/batch hypotheses; 0.5 + 1e-6 in deterministic full-batch mode."""

    def fixture(self):
        problem = build_toy("affine", d=3, m=12, n=8, seed=0)
        ell = problem.smoothness().ell
        beta, S = 0.9, 3
        T = 10 * 2**S - 10
        eta = min(1.0 / (30.0 * beta * T * ell), 1.0 / (25.0 * ell))
        return problem, ell, beta, S, eta

    def test_stochastic_hypotheses_satisfied_and_contracting(self):
        problem, ell, beta, S, eta = self.fixture()
        a_min = int(np.ceil(2.0 * ell**2 / beta**2))
        b_min = int(np.ceil(ell**2 / beta**2))
        config = RunConfig(S=S, k0=10, eta=eta, a=a_min, b=b_min, seed=0)
        report = check_epoch_contraction(problem, config, beta, seeds=range(20))
        assert not report.skipped, report.detail
        assert report.passed and report.measured <= 0.75, report.detail

    def test_deterministic_full_batch(self):
        problem, ell, beta, S, eta = self.fixture()
        config = RunConfig(S=S, k0=10, eta=eta, a=12, b=8, seed=0)
        report = check_epoch_contraction(problem, config, beta, seeds=[0])
        assert not report.skipped, report.detail
        assert report.passed and report.measured <= 0.5 + 1e-6, report.detail


class TestSampleAccounting:
    """Criterion 7: exact integer sample totals.

    The per-epoch ledger sum_s (m + n + k_s (a + b)) is exact for every S. The
    closed-form display S (m + n) + 2^S k0 (a + b) coincides with it at S = 1;
    for larger S its minibatch term brackets the exact one from below, with
    2^(S+1) k0 (a + b) bracketing from above.
    """

    def test_trace_total_matches_ledger(self):
        toy = build_toy("affine", d=3, m=7, n=5, seed=0)
        for S in (1, 2, 3):
            config = RunConfig(S=S, k0=4, eta=1e-3, a=3, b=2, seed=0)
            result, rows = run(run_scvrg, toy, config, np.zeros(3), 10**9)
            ledger = sum(7 + 5 + 4 * 2 ** (s + 1) * (3 + 2) for s in range(S))
            assert result.samples == ledger
            assert rows[-1].samples == ledger
            assert predicted_total_samples(config, 7, 5) == ledger

    def test_closed_form_display(self):
        m, n, k0, a, b = 7, 5, 4, 3, 2
        for S in (1, 2, 3, 4):
            exact = sum(m + n + k0 * 2 ** (s + 1) * (a + b) for s in range(S))
            display = S * (m + n) + 2**S * k0 * (a + b)
            upper = S * (m + n) + 2 ** (S + 1) * k0 * (a + b)
            if S == 1:
                assert exact == display
            assert display <= exact <= upper


class TestFullBatchDegeneration:
    """Criterion 8: a = m, b = n with a constant step reproduces proximal
    gradient descent elementwise (<= 1e-12 over 50 steps)."""

    def oracle_steps(self, problem, x0, eta, steps):
        x = np.asarray(x0, float).copy()
        history = []
        for _ in range(steps):
            x = prox_step(problem.regularizer, x - eta * full_gradient(problem, x), eta)
            history.append(x.copy())
        return history

    def test_matches_prox_gradient(self):
        toy = build_toy("mixed", d=3, m=4, seed=0, lam=0.05)
        m, n = toy.dims.m, toy.dims.n
        eta = 0.02
        oracle = self.oracle_steps(toy, np.zeros(3), eta, 50)
        # 50 steps = one epoch of k = 50 (k0 = 25, S = 1)
        config = RunConfig(S=1, k0=25, eta=eta, a=m, b=n, seed=0,
                           schedule="constant")
        result, _ = run(run_scvrg, toy, config, np.zeros(3),
                        predicted_total_samples(config, m, n))
        np.testing.assert_allclose(result.epochs[0].x_last, oracle[-1],
                                   rtol=0, atol=1e-12)
        # epoch boundaries of a doubling run hit steps 10 and 30
        config = RunConfig(S=2, k0=5, eta=eta, a=m, b=n, seed=0,
                           schedule="constant")
        result, _ = run(run_scvrg, toy, config, np.zeros(3),
                        predicted_total_samples(config, m, n))
        np.testing.assert_allclose(result.epochs[0].x_last, oracle[9],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.epochs[1].x_last, oracle[29],
                                   rtol=0, atol=1e-12)


class TestProxCorrectness:
    """Criterion 9: prox matches a 1-D numeric oracle (<= 1e-8) and is
    nonexpansive, 10^3 random inputs/pairs each."""

    def test_numeric_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            lam = rng.uniform(0.0, 2.0)
            radius = rng.uniform(0.2, 3.0)
            eta = rng.uniform(0.01, 2.0)
            x = rng.uniform(-5.0, 5.0)
            reg = Regularizer(lam=lam, radius=radius)
            got = prox_step(reg, np.array([x]), eta)[0]
            assert abs(got - numeric_prox_1d(lam, radius, x, eta)) <= 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(6)
        reg = Regularizer(lam=0.4, radius=1.2)
        for _ in range(1000):
            x, y = rng.normal(size=(2, 5)) * 3.0
            eta = rng.uniform(0.01, 2.0)
            px, py = prox_step(reg, x, eta), prox_step(reg, y, eta)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


class TestRelativeOrdering:
    """Criterion 10: on a synthetic mean-variance instance (N=2000, d=25,
    lambda=1e-2, budget 30N, 5 seeds) the seed-averaged final gaps order as
    scvrg <= vrscpg <= min(scgd, ascpg), with agd worst."""

    def test_ordering(self):
        start = time.time()
        problem = build_mean_variance(synthetic_returns(2000, 25, seed=7), lam=1e-2)
        budget = 30 * problem.N
        phi_star = compute_phi_star(problem, budget=100 * budget)
        final_gaps = {}
        for algo in ("scvrg", "vrscpg", "scgd", "ascpg", "agd"):
            gaps = []
            for seed in range(5):
                _, trace = run_one(problem, algo, seed, budget, phi_star=phi_star)
                gaps.append(trace[-1].gap)
            final_gaps[algo] = float(np.mean(gaps))
        assert final_gaps["scvrg"] <= final_gaps["vrscpg"], final_gaps
        assert final_gaps["vrscpg"] <= min(final_gaps["scgd"],
                                           final_gaps["ascpg"]), final_gaps
        assert final_gaps["agd"] == max(final_gaps.values()), final_gaps
        assert time.time() - start < 300.0


class TestKnownOptimumConvergence:
    """Criterion 11: Bellman chain (10 states, m=20, gamma=0.9, lambda=0,
    box inactive) reaches gap <= 1e-6 within 200 (m + n) samples, measured
    against the dense linear-solve optimum."""

    def test_bellman_convergence(self):
        problem = build_bellman(10, 20, 0.9, seed=0)
        assert problem.regularizer.lam == 0.0
        assert np.max(np.abs(problem.x_star)) < problem.regularizer.radius
        m, n = problem.dims.m, problem.dims.n
        budget = 200 * (m + n)
        # the residual system is flat (ell ~ 0.1), so the step must be large
        _, trace = run_one(problem, "scvrg", 0, budget,
                           phi_star=problem.phi_star,
                           params={"eta": 3.0, "a": 5, "b": 1})
        assert trace[-1].samples <= budget
        assert trace[-1].gap <= 1e-6
        # cross-check the certified optimum against an explicit dense solve
        x_direct = np.linalg.lstsq(problem.A_bar, -problem.b_bar, rcond=None)[0]
        np.testing.assert_allclose(problem.x_star, x_direct, atol=1e-10)
