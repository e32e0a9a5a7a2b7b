"""Tests for the baseline roster: accounting, degenerate cases, convergence."""

import numpy as np
import pytest

from compopt.baselines import (ALPHA0, BaselineConfig, run_agd, run_ascpg,
                               run_scgd, run_vrscpg)
from compopt.errors import ConfigError
from compopt.problem import full_gradient, objective
from compopt.problems import build_toy
from compopt.prox import prox_step
from compopt.solver import RunConfig, run_scvrg


@pytest.fixture
def toy():
    return build_toy("identity", d=3, m=4, n=4, seed=0)


class TestBaselineConfig:
    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigError):
            BaselineConfig(max_samples=0)

    def test_rejects_bad_steps(self):
        for eta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                BaselineConfig(max_samples=10, eta=eta)

    def test_rejects_bad_batch_sizes(self):
        for batches in (dict(a=0, b=0), dict(a=0), dict(b=2**31)):
            with pytest.raises(ConfigError):
                BaselineConfig(max_samples=10, **batches)


class TestAgd:
    def test_charges_m_plus_n_per_iteration(self, toy):
        cfg = BaselineConfig(max_samples=8 * 5, seed=0)
        _, rows = run_agd(toy, cfg, np.zeros(3))
        assert rows[-1].samples == 8 * 5  # 5 iterations at m+n = 8

    def test_matches_unconstrained_accelerated_oracle(self):
        """lam=0, huge box: trajectory equals hand-rolled FISTA (no restarts fire
        on a convex quadratic with monotone objective)."""
        toy = build_toy("affine", d=2, m=3, n=3, seed=1, radius=1e12)
        ell = toy.smoothness().ell
        step = 1.0 / ell
        x = y = np.zeros(2)
        t_k = 1.0
        for _ in range(50):
            x_new = y - step * full_gradient(toy, y)
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            y = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
            t_k, x = t_next, x_new
        cfg = BaselineConfig(max_samples=50 * 6, seed=0)
        got, _ = run_agd(toy, cfg, np.zeros(2))
        np.testing.assert_allclose(got, x, atol=1e-10)

    def test_converges_on_toy(self, toy):
        cfg = BaselineConfig(max_samples=200 * 8, seed=0)
        x, _ = run_agd(toy, cfg, np.zeros(3))
        assert objective(toy, x) - toy.phi_star <= 1e-8


class TestScgd:
    def test_charges_two_per_iteration(self, toy):
        cfg = BaselineConfig(max_samples=100, seed=0)
        _, rows = run_scgd(toy, cfg, np.zeros(3))
        assert rows[-1].samples == 100

    def test_singleton_reduces_to_exact_gradient_step(self):
        """m=n=1 and beta_1=1: the first update is an exact prox-gradient step."""
        toy = build_toy("affine", d=2, m=1, n=1, seed=2)
        cfg = BaselineConfig(max_samples=2, seed=0)
        x, _ = run_scgd(toy, cfg, np.zeros(2))
        expected = prox_step(toy.regularizer,
                             -ALPHA0 * full_gradient(toy, np.zeros(2)), ALPHA0)
        np.testing.assert_allclose(x, expected, atol=1e-14)

    def test_tracker_in_hull_for_affine_inner(self, toy):
        # identity inner map: y_t must stay a convex combination of iterates,
        # all inside the box, so componentwise |y_t| <= radius
        cfg = BaselineConfig(max_samples=2000, seed=1)
        x, rows = run_scgd(toy, cfg, np.zeros(3))
        assert np.max(np.abs(x)) <= toy.regularizer.radius + 1e-12

    def test_long_run_convergence(self, toy):
        cfg = BaselineConfig(max_samples=200_000, seed=0)
        x, _ = run_scgd(toy, cfg, np.zeros(3))
        assert objective(toy, x) - toy.phi_star <= 1e-2


class TestAscpg:
    def test_long_run_convergence(self, toy):
        cfg = BaselineConfig(max_samples=200_000, seed=0)
        x, _ = run_ascpg(toy, cfg, np.zeros(3))
        assert objective(toy, x) - toy.phi_star <= 1e-2

    def test_stays_near_scgd_regime(self, toy):
        """With lam=0 the accelerated variant lands in the same basin: final
        gaps differ by under 10% of the initial gap."""
        cfg = BaselineConfig(max_samples=20_000, seed=0)
        init_gap = objective(toy, np.zeros(3)) - toy.phi_star
        g1 = objective(toy, run_scgd(toy, cfg, np.zeros(3))[0]) - toy.phi_star
        g2 = objective(toy, run_ascpg(toy, cfg, np.zeros(3))[0]) - toy.phi_star
        assert abs(g1 - g2) <= 0.1 * init_gap

    def test_feasible_iterates(self, toy):
        cfg = BaselineConfig(max_samples=5000, seed=3)
        x, _ = run_ascpg(toy, cfg, np.zeros(3))
        assert np.max(np.abs(x)) <= toy.regularizer.radius + 1e-12


class TestVrscpg:
    def test_epoch_sample_accounting(self, toy):
        K = 4  # ceil((m + n)^(2/3)) at m + n = 8
        cfg = BaselineConfig(max_samples=3 * (8 + K * 10), seed=0, a=5, b=5)
        _, rows = run_vrscpg(toy, cfg, np.zeros(3))
        assert rows[-1].samples == 3 * (8 + K * 10)

    def test_matches_scvrg_first_epoch(self):
        """K = k_1 = 2 k0, one epoch, constant step, same seed: identical iterates."""
        toy = build_toy("affine", d=2, m=3, n=3, seed=4)
        k0 = 2  # K = ceil((m + n)^(2/3)) = 4 at m + n = 6
        scvrg_cfg = RunConfig(S=1, k0=k0, eta=0.01, a=2, b=2, seed=11,
                              schedule="constant")
        res = run_scvrg(toy, scvrg_cfg, np.zeros(2))
        K = 2 * k0
        base_cfg = BaselineConfig(max_samples=6 + K * 4, seed=11, eta=0.01, a=2, b=2)
        x, _ = run_vrscpg(toy, base_cfg, np.zeros(2))
        np.testing.assert_array_equal(x, res.epochs[0].x_last)

    def test_converges_at_small_budget(self, toy):
        cfg = BaselineConfig(max_samples=100 * 8, seed=0, eta=0.05)
        x, _ = run_vrscpg(toy, cfg, np.zeros(3))
        assert objective(toy, x) - toy.phi_star <= 1e-6


class TestTraceSchema:
    def test_monotone_samples_and_common_schema(self, toy):
        for runner in (run_agd, run_scgd, run_ascpg, run_vrscpg):
            cfg = BaselineConfig(max_samples=500, seed=0, trace_every=3)
            _, rows = runner(toy, cfg, np.zeros(3))
            samples = [r.samples for r in rows]
            assert samples == sorted(samples)
            assert all(r.samples_per_N == r.samples / toy.N for r in rows)

    def test_no_consecutive_duplicate_rows(self, toy):
        # trace_every=2 divides VRSC-PG's K=4 and ASC-PG's 46 iterations, so
        # each one's last step row would repeat as its end-of-run row
        cfg = BaselineConfig(max_samples=139, seed=0, trace_every=2)
        for runner in (run_agd, run_scgd, run_ascpg, run_vrscpg):
            _, rows = runner(toy, cfg, np.zeros(3))
            keys = [(r.epoch, r.iteration, r.samples) for r in rows]
            assert all(a != b for a, b in zip(keys, keys[1:])), runner.__name__
