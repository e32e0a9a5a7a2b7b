"""Tests for the benchmark harness: phi* computation, CSV emission."""

import logging
from pathlib import Path

import numpy as np
import pytest

from compopt import harness
from compopt.errors import ConfigError, InputError
from compopt.harness import (ExperimentSpec, compute_phi_star, polish_phi_star,
                             run_benchmark, run_one, scvrg_config_for_budget)
from compopt.problems import (AffineQuadraticProblem, build_bellman,
                              build_mean_variance, build_toy,
                              random_bellman_spec, synthetic_returns)
from compopt.prox import Regularizer
from compopt.solver import predicted_total_samples
from compopt.trace import TRACE_HEADER


class TestExperimentSpec:
    def make(self, **kw):
        kwargs = dict(problem=build_toy("identity", d=2, m=3, n=3, seed=0),
                      algorithms=["scvrg"], budget=10.0, seeds=[0], out="t.csv")
        kwargs.update(kw)
        return ExperimentSpec(**kwargs)

    def test_valid(self):
        self.make()

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigError):
            self.make(budget=0.0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InputError):
            self.make(algorithms=["sgd"])

    def test_rejects_empty_seeds(self):
        with pytest.raises(ConfigError):
            self.make(seeds=[])

    @pytest.mark.parametrize("kw", [dict(algorithms=["scvrg", "scgd", "scvrg"]),
                                    dict(seeds=[0, 1, 0])])
    def test_rejects_repeats(self, kw):
        with pytest.raises(ConfigError, match="repeated"):
            self.make(**kw)

    @pytest.mark.parametrize("algorithms, params", [
        (["scgd", "ascpg", "agd"], {"eta": 0.5}), (["vrscpg", "agd"], {"k0": 3}),
        (["vrscpg"], {"S": 2}), (["scvrg"], {"seed": 1})])
    def test_rejects_params_no_algorithm_reads(self, algorithms, params):
        with pytest.raises(ConfigError, match="not read by"):
            self.make(algorithms=algorithms, params=params)


class TestComputePhiStar:
    def test_identity_toy_matches_closed_form(self):
        toy = build_toy("identity", d=3, m=6, n=5, seed=0, lam=0.05)
        got = compute_phi_star(toy, budget=100_000)
        assert abs(got - toy.phi_star) <= 1e-10

    def test_bellman_matches_linear_solve(self):
        p = build_bellman(random_bellman_spec(4, 6, 0.9, seed=1))
        got = compute_phi_star(p, budget=100_000)
        assert abs(got - p.phi_star) <= 1e-10

    def test_affine_unregularized_matches_lstsq_value(self):
        toy = build_toy("affine", d=3, m=4, n=4, seed=2, lam=0.0)
        got = compute_phi_star(toy, budget=100_000)
        assert abs(got - toy.phi_star) <= 1e-10

    def test_budget_floor_enforced(self):
        toy = build_toy("identity", d=2, m=3, n=3, seed=0)
        with pytest.raises(ConfigError):
            compute_phi_star(toy, budget=10)


def _stiff_toy():
    """Affine toy with condition number 1e8 and x* = (0.5, 0.5): the polish
    needs far more than 100 full gradients to meet its stop."""
    A = np.tile(np.diag([1.0, 1e-4]), (3, 1, 1))
    centers = np.array([[0.4, 4e-5], [0.6, 6e-5]])
    return AffineQuadraticProblem(A, np.zeros((3, 2)), centers, np.ones(2), Regularizer())


CERTIFIED = {
    "identity": lambda: build_toy("identity", d=3, m=6, n=5, seed=0, lam=0.05),
    "affine": lambda: build_toy("affine", d=3, m=4, n=4, seed=2, lam=0.0),
    "mixed": lambda: build_toy("mixed", d=3, m=4, n=4, seed=0, lam=0.0),
    "bellman_4x6": lambda: build_bellman(random_bellman_spec(4, 6, 0.9, seed=1)),
    "bellman_10x20": lambda: build_bellman(random_bellman_spec(10, 20, 0.9, seed=0)),
    "stiff": _stiff_toy,
}


class TestPolishPhiStar:
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_bound_brackets_certified_optimum(self, name):
        p = CERTIFIED[name]()
        assert p.phi_star is not None
        result = polish_phi_star(p, budget=100_000)
        roundoff = 1e-15 * (abs(p.phi_star) + 1.0)
        assert -roundoff <= result.value - p.phi_star <= result.bound + roundoff
        assert np.isfinite(result.bound) and result.bound >= 0.0
        assert result.value == compute_phi_star(p, budget=100_000)

    @pytest.mark.parametrize("build", [
        lambda: build_mean_variance(synthetic_returns(200, 10, seed=0), lam=1e-2),
        _stiff_toy], ids=["meanvar", "stiff"])
    def test_full_gradients_within_cap(self, build, monkeypatch):
        p = build()
        budget = 100 * (p.dims.m + p.dims.n)
        calls = []
        real = harness.full_gradient
        monkeypatch.setattr(harness, "full_gradient",
                            lambda problem, x: calls.append(1) or real(problem, x))
        result = polish_phi_star(p, budget)
        assert len(calls) == result.gradients <= budget // (p.dims.m + p.dims.n)

    def test_warns_when_cap_is_reached(self, caplog):
        p = _stiff_toy()
        with caplog.at_level(logging.WARNING, logger="compopt.harness"):
            result = polish_phi_star(p, budget=100 * (p.dims.m + p.dims.n))
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "phi_star polish did not converge" in caplog.text
        # the bound still holds at the last accepted point
        assert 0.0 <= result.value - p.phi_star <= result.bound

    def test_converged_run_logs_one_info_line(self, caplog):
        p = build_mean_variance(synthetic_returns(200, 10, seed=0), lam=1e-2)
        with caplog.at_level(logging.INFO, logger="compopt.harness"):
            result = polish_phi_star(p, budget=100 * (p.dims.m + p.dims.n))
        assert [r.levelno for r in caplog.records] == [logging.INFO]
        line = caplog.records[0].getMessage()
        assert f"{result.gradients} full gradients" in line and "closed-form ell" in line


class TestScvrgConfigForBudget:
    def test_fits_budget(self):
        p = build_mean_variance(synthetic_returns(50, 3, seed=0))
        cfg = scvrg_config_for_budget(p, max_samples=5000, seed=0)
        assert predicted_total_samples(cfg, 50, 50) <= 5000
        bigger = type(cfg)(S=cfg.S + 1, k0=cfg.k0, eta=cfg.eta, a=cfg.a, b=cfg.b)
        assert predicted_total_samples(bigger, 50, 50) > 5000

    def test_warns_when_one_epoch_exceeds_budget(self, caplog):
        # one epoch on the N=3 toy costs 3 + 3 + 20 * (5 + 5) = 206 samples
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        with caplog.at_level(logging.WARNING, logger="compopt.harness"):
            assert scvrg_config_for_budget(toy, max_samples=206, seed=0).S == 1
            assert not caplog.records
            assert scvrg_config_for_budget(toy, max_samples=90, seed=0).S == 1
        assert len(caplog.records) == 1
        assert "206 samples" in caplog.text and "budget of 90" in caplog.text


class TestRunBenchmark:
    def test_csv_schema_and_determinism(self, tmp_path):
        p = build_mean_variance(synthetic_returns(60, 4, seed=0), lam=1e-2)
        out = str(tmp_path / "trace.csv")
        spec = ExperimentSpec(problem=p, algorithms=["scvrg", "scgd"],
                              budget=10.0, seeds=[1, 2], out=out)
        run_benchmark(spec)
        first = Path(out).read_text()
        run_benchmark(spec)
        second = Path(out).read_text()
        assert first == second  # bit-identical rerun
        lines = first.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert lines[0] == "algorithm,seed,epoch,iter,samples,samples_per_N,objective,gap"

    def test_four_runs_monotone_samples(self, tmp_path):
        p = build_mean_variance(synthetic_returns(60, 4, seed=0), lam=1e-2)
        out = str(tmp_path / "trace.csv")
        spec = ExperimentSpec(problem=p, algorithms=["scvrg", "scgd"],
                              budget=10.0, seeds=[1, 2], out=out)
        run_benchmark(spec)
        rows = [line.split(",") for line in Path(out).read_text().strip().split("\n")[1:]]
        runs = {}
        for r in rows:
            runs.setdefault((r[0], r[1]), []).append(int(r[4]))
        assert len(runs) == 4
        for samples in runs.values():
            assert samples == sorted(samples)

    def test_gap_nonnegative_after_polish(self, tmp_path):
        toy = build_toy("identity", d=2, m=5, n=5, seed=3, lam=0.02)
        out = str(tmp_path / "trace.csv")
        spec = ExperimentSpec(problem=toy, algorithms=["scvrg", "agd"],
                              budget=200.0, seeds=[0], out=out)
        run_benchmark(spec)
        gaps = [float(line.split(",")[7])
                for line in Path(out).read_text().strip().split("\n")[1:]]
        assert min(gaps) >= -1e-9

    def test_medium_profile_under_a_minute(self, tmp_path):
        import time
        p = build_mean_variance(synthetic_returns(7240, 25, seed=0), lam=1e-2)
        start = time.time()
        x, trace = run_one(p, "scvrg", 0, 30 * p.N, phi_star=None)
        assert time.time() - start < 60.0
        assert trace[-1].samples <= 30 * p.N


class TestRunOne:
    def test_unknown_parameter_rejected(self):
        toy = build_toy("identity", d=2, m=3, n=3, seed=0)
        with pytest.raises(ConfigError):
            run_one(toy, "scvrg", 0, 1000, params={"bogus": 1})

    def test_unknown_algorithm_is_input_error(self):
        toy = build_toy("identity", d=2, m=3, n=3, seed=0)
        with pytest.raises(InputError, match="unknown algorithms"):
            run_one(toy, "sgd", 0, 1000)

    @pytest.mark.parametrize("algorithm, params", [
        ("scgd", {"k0": 5}), ("vrscpg", {"schedule": "constant"}),
        ("scvrg", {"seed": 3}), ("scvrg", {"max_samples": 10}),
        ("agd", {"trace_every": 1}), ("ascpg", {"seed": 3})])
    def test_parameters_outside_the_config_rejected(self, algorithm, params):
        # a field the algorithm does not read, or one run_one sets itself
        toy = build_toy("identity", d=2, m=3, n=3, seed=0)
        with pytest.raises(ConfigError):
            run_one(toy, algorithm, 0, 1000, params=params)

    def test_epoch_override(self):
        toy = build_toy("identity", d=2, m=3, n=3, seed=0)
        _, trace = run_one(toy, "scvrg", 0, 100_000, params={"S": 2})
        assert max(r.epoch for r in trace) == 2
