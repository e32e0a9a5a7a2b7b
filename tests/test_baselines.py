"""Tests for the baseline roster: accounting, degenerate cases, convergence."""

import numpy as np
import pytest

from compopt import baselines
from compopt.baselines import ALPHA0, run_agd, run_ascpg, run_scgd, run_vrscpg
from compopt.errors import ConfigError, InputError
from compopt.estimators import minibatch_rng
from compopt.harness import ALGORITHMS, run_one
from compopt.problem import full_gradient, objective
from compopt.problems import build_bellman, build_mean_variance, build_toy, synthetic_returns
from compopt.prox import prox_step
from compopt.solver import RunConfig, predicted_total_samples, run_scvrg
from compopt.trace import Recorder
from conftest import key_seeded_rng, run


@pytest.fixture
def toy():
    return build_toy("identity", d=3, m=4, n=4, seed=0)


def config(seed=0, **fields):
    """A RunConfig for a baseline; S sizes only scvrg's schedule."""
    return RunConfig(S=1, seed=seed, **fields)


class TestSampleBudget:
    def test_rejects_bad_budget(self, toy):
        # the Recorder holds the budget, so every run refuses a bad one
        for budget in (0, -5, 2.5, True):
            with pytest.raises(ConfigError, match="sample budget must be positive"):
                Recorder(toy, budget)
            for algorithm in ALGORITHMS:
                with pytest.raises(ConfigError, match="sample budget must be positive"):
                    run_one(toy, algorithm, 0, budget)

    @pytest.mark.parametrize("every", [0, -5, 2.5, True])
    def test_rejects_bad_trace_cadence(self, toy, every):
        # 0 divided by zero at the start row, -5 kept a row after every step,
        # 2.5 set a float cadence and True a cadence of 1
        with pytest.raises(ConfigError, match="trace cadence must be None or a positive integer"):
            Recorder(toy, 100, every=every)

    @pytest.mark.parametrize("call", [
        *[pytest.param(lambda p, budget, r=r: run(r, p, config(), np.zeros(3), budget),
                       id=r.__name__) for r in (run_agd, run_scgd, run_ascpg, run_vrscpg)],
        *[pytest.param(lambda p, budget, a=a: run_one(p, a, 0, budget),
                       id=f"run_one-{a}") for a in ALGORITHMS]])
    def test_unbudgeted_baseline_is_config_error(self, toy, call):
        # each of these runs stops only once its budget is spent, and run_one
        # fits scvrg's epoch count to its budget
        with pytest.raises(ConfigError, match="max_samples is required"):
            call(toy, None)


class TestStartPoint:
    @pytest.mark.parametrize("runner", [run_scvrg, run_vrscpg, run_scgd, run_ascpg, run_agd])
    @pytest.mark.parametrize("x0, message", [
        ([2.0, 0.0, 0.0], "outside the feasible box"),
        ([np.nan, 0.0, 0.0], "non-finite"),
        ([0.0, 0.0], "shape"),
    ], ids=["infeasible", "nan", "shape"])
    def test_bad_start_is_input_error_before_any_oracle(self, toy, monkeypatch, runner,
                                                        x0, message):
        # every runner checks its start point first; ASC-PG's tracker sample
        # would otherwise query the inner map there
        for oracle in ("inner_value", "inner_vjp", "outer_value", "outer_grad"):
            monkeypatch.setattr(toy, oracle, lambda *a: pytest.fail("oracle called"))
        with pytest.raises(InputError, match=message):
            run(runner, toy, config(), np.array(x0), 100)


class TestAgd:
    def test_charges_m_plus_n_per_iteration(self, toy):
        _, rows = run(run_agd, toy, config(), np.zeros(3), 8 * 5)
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
        got, _ = run(run_agd, toy, config(), np.zeros(2), 50 * 6)
        np.testing.assert_allclose(got, x, atol=1e-10)

    def test_converges_on_toy(self, toy):
        x, _ = run(run_agd, toy, config(), np.zeros(3), 200 * 8)
        assert objective(toy, x) - toy.phi_star <= 1e-8


class TestScgd:
    def test_charges_two_per_iteration(self, toy):
        _, rows = run(run_scgd, toy, config(), np.zeros(3), 100)
        assert rows[-1].samples == 100

    def test_singleton_reduces_to_exact_gradient_step(self):
        """m=n=1 and beta_1=1: the first update is an exact prox-gradient step."""
        toy = build_toy("affine", d=2, m=1, n=1, seed=2)
        x, _ = run(run_scgd, toy, config(), np.zeros(2), 2)
        expected = prox_step(toy.regularizer,
                             -ALPHA0 * full_gradient(toy, np.zeros(2)), ALPHA0)
        np.testing.assert_allclose(x, expected, atol=1e-14)

    def test_tracker_in_hull_for_affine_inner(self, toy):
        # identity inner map: y_t must stay a convex combination of iterates,
        # all inside the box, so componentwise |y_t| <= radius
        x, rows = run(run_scgd, toy, config(1), np.zeros(3), 2000)
        assert np.max(np.abs(x)) <= toy.regularizer.radius + 1e-12

    def test_long_run_convergence(self, toy):
        x, _ = run(run_scgd, toy, config(), np.zeros(3), 200_000)
        assert objective(toy, x) - toy.phi_star <= 1e-2


class TestAscpg:
    def test_long_run_convergence(self, toy):
        x, _ = run(run_ascpg, toy, config(), np.zeros(3), 200_000)
        assert objective(toy, x) - toy.phi_star <= 1e-2

    def test_stays_near_scgd_regime(self, toy):
        """With lam=0 the accelerated variant lands in the same basin: final
        gaps differ by under 10% of the initial gap."""
        init_gap = objective(toy, np.zeros(3)) - toy.phi_star
        g1 = objective(toy, run(run_scgd, toy, config(), np.zeros(3), 20_000)[0]) - toy.phi_star
        g2 = objective(toy, run(run_ascpg, toy, config(), np.zeros(3), 20_000)[0]) - toy.phi_star
        assert abs(g1 - g2) <= 0.1 * init_gap

    def test_feasible_iterates(self, toy):
        x, _ = run(run_ascpg, toy, config(3), np.zeros(3), 5000)
        assert np.max(np.abs(x)) <= toy.regularizer.radius + 1e-12

    def test_first_row_follows_the_tracker_seed(self, toy):
        # the tracker's seeding draw is charged before the start-point row
        _, rows = run(run_ascpg, toy, config(), np.zeros(3), 100)
        assert (rows[0].epoch, rows[0].iteration, rows[0].samples) == (0, 0, 1)


class TestScgdDraws:
    """SCGD builds one generator per step and ASC-PG one more for its tracker
    seed, so generator calls count samples: a step costs 2 (SCGD) or 3
    (ASC-PG), and ASC-PG's seed sample 1. Each step makes one call of each
    oracle and one prox step, and ASC-PG's seed one more inner value. Their
    draws are numpy's key-seeded Philox draws, byte for byte in every trace
    row and the final iterate."""

    @pytest.mark.parametrize("seed", [0, -3])
    @pytest.mark.parametrize("runner, ledger, seeds", [
        (run_scgd, lambda samples, calls: samples == 2 * calls, 0),
        (run_ascpg, lambda samples, calls: samples == 1 + 3 * (calls - 1), 1)],
        ids=["scgd", "ascpg"])
    def test_calls_match_ledger_and_key_seeded_draws(self, monkeypatch, runner, ledger, seeds,
                                                     seed):
        problem = build_mean_variance(synthetic_returns(40, 4, seed=0))
        budget, x0 = 5 * problem.N + 1, np.zeros(problem.dims.d)
        calls = {"draw": 0, "inner_value": 0, "inner_vjp": 0, "outer_grad": 0, "prox": 0}

        def counted(name, fn, one_index=False):
            def call(*args, **kwargs):
                # the start point's and the trace rows' objectives call over ALL
                calls[name] += not one_index or isinstance(args[0], int)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(baselines, "minibatch_rng", counted("draw", minibatch_rng))
        monkeypatch.setattr(baselines, "prox_step", counted("prox", prox_step))
        for oracle in ("inner_value", "inner_vjp", "outer_grad"):
            monkeypatch.setattr(problem, oracle, counted(oracle, getattr(problem, oracle), True))
        x, rows = run(runner, problem, config(seed), x0, budget, every=problem.N)
        assert ledger(rows[-1].samples, calls["draw"])
        steps = calls["draw"] - seeds
        assert steps > 0 and calls == {"draw": steps + seeds, "inner_value": steps + seeds,
                                       "inner_vjp": steps, "outer_grad": steps, "prox": steps}
        monkeypatch.undo()
        monkeypatch.setattr(baselines, "minibatch_rng", key_seeded_rng)
        x_ref, rows_ref = run(runner, problem, config(seed), x0, budget, every=problem.N)
        assert x.tobytes() == x_ref.tobytes()
        assert [r.to_csv_row() for r in rows] == [r.to_csv_row() for r in rows_ref]

    @pytest.mark.parametrize("seed", [0, -3])
    @pytest.mark.parametrize("runner", [run_scgd, run_ascpg], ids=["scgd", "ascpg"])
    @pytest.mark.parametrize("build", [
        lambda: build_mean_variance(synthetic_returns(40, 4, seed=0)),
        lambda: build_bellman(5, 8, 0.9, seed=1)],  # n = 1
        ids=["meanvar", "bellman"])
    def test_raw_word_draws_match_generator_draws(self, generator_draws, build, runner, seed):
        problem = build()
        budget, x0 = 5 * problem.N + 1, np.zeros(problem.dims.d)
        x, rows = run(runner, problem, config(seed), x0, budget, every=problem.N)
        with generator_draws():
            x_ref, rows_ref = run(runner, problem, config(seed), x0, budget, every=problem.N)
        assert x.tobytes() == x_ref.tobytes()
        assert [r.to_csv_row() for r in rows] == [r.to_csv_row() for r in rows_ref]


class TestVrscpg:
    def test_epoch_sample_accounting(self, toy):
        K = 4  # ceil((m + n)^(2/3)) at m + n = 8
        _, rows = run(run_vrscpg, toy, config(a=5, b=5), np.zeros(3), 3 * (8 + K * 10))
        assert rows[-1].samples == 3 * (8 + K * 10)

    def test_matches_scvrg_first_epoch(self):
        """K = k_1 = 2 k0, one epoch, constant step, same seed: identical iterates."""
        toy = build_toy("affine", d=2, m=3, n=3, seed=4)
        k0 = 2  # K = ceil((m + n)^(2/3)) = 4 at m + n = 6
        scvrg_cfg = RunConfig(S=1, k0=k0, eta=0.01, a=2, b=2, seed=11,
                              schedule="constant")
        res, _ = run(run_scvrg, toy, scvrg_cfg, np.zeros(2),
                     predicted_total_samples(scvrg_cfg, 3, 3))
        K = 2 * k0
        x, _ = run(run_vrscpg, toy, config(11, eta=0.01, a=2, b=2), np.zeros(2), 6 + K * 4)
        np.testing.assert_array_equal(x, res.epochs[0].x_last)

    def test_converges_at_small_budget(self, toy):
        x, _ = run(run_vrscpg, toy, config(eta=0.05), np.zeros(3), 100 * 8)
        assert objective(toy, x) - toy.phi_star <= 1e-6


class TestTraceSchema:
    def test_monotone_samples_and_common_schema(self, toy):
        for runner in (run_agd, run_scgd, run_ascpg, run_vrscpg):
            _, rows = run(runner, toy, config(), np.zeros(3), 500, every=3)
            samples = [r.samples for r in rows]
            assert samples == sorted(samples)
            assert all(r.samples_per_N == r.samples / toy.N for r in rows)

    def test_no_consecutive_duplicate_rows(self, toy):
        # a cadence of 2 samples keeps every step's row, so each one's last
        # step row would repeat as its end-of-run row
        for runner in (run_agd, run_scgd, run_ascpg, run_vrscpg):
            _, rows = run(runner, toy, config(), np.zeros(3), 139, every=2)
            keys = [(r.epoch, r.iteration, r.samples) for r in rows]
            assert all(a != b for a, b in zip(keys, keys[1:])), runner.__name__
