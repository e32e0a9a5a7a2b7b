"""Tests for the benchmark harness: phi* computation, CSV emission."""

import logging
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from compopt import harness
from compopt.errors import ConfigError, InputError
from compopt.harness import (ALGORITHMS, FIELDS_READ, compute_phi_star, polish_phi_star,
                             run_benchmark, run_one, scvrg_config_for_budget)
from compopt.problems import (AffineQuadraticProblem, build_bellman, build_mean_variance,
                              build_toy, synthetic_returns)
from compopt.prox import Regularizer
from compopt.solver import RunConfig, predicted_total_samples
from compopt.trace import TRACE_HEADER
from conftest import run


class TestExperimentSpec:
    """An experiment's inputs, as `run_benchmark` takes them: each bad one is
    refused with its own error before phi* is computed or `out` is opened."""

    @pytest.fixture(autouse=True)
    def phi_star_calls(self, tmp_path, monkeypatch):
        self.phi_star_calls, self.out = [], tmp_path / "t.csv"
        monkeypatch.setattr(harness, "compute_phi_star",
                            lambda *args: self.phi_star_calls.append(args) or 0.0)

    def make(self, **kw):
        kwargs = dict(problem=build_toy("identity", d=2, m=3, n=3, seed=0),
                      algorithms=["scvrg"], budget=10.0, seeds=[0], out=str(self.out))
        kwargs.update(kw)
        return run_benchmark(**kwargs)

    def refused(self, error, message, **kw):
        with pytest.raises(error) as info:
            self.make(**kw)
        assert str(info.value) == message
        assert self.phi_star_calls == [] and not self.out.exists()

    def test_valid(self):
        assert self.make() == str(self.out)
        assert len(self.phi_star_calls) == 1
        assert self.out.read_text().startswith(TRACE_HEADER + "\n")

    def test_rejects_bad_budget(self):
        self.refused(ConfigError, "sample budget must be positive and finite, got 0.0", budget=0.0)
        self.refused(ConfigError, "sample budget 1e-09 x N = 3 rounds to 0 samples", budget=1e-9)

    def test_rejects_unknown_algorithm(self):
        self.refused(InputError, f"unknown algorithms ['sgd']; choose from {ALGORITHMS}",
                     algorithms=["sgd"])

    def test_rejects_empty_seeds(self):
        self.refused(ConfigError, "at least one seed is required", seeds=[])

    def test_rejects_empty_roster(self):
        self.refused(ConfigError, "at least one algorithm is required",
                     algorithms=[], params={"eta": 0.1})

    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
    def test_rejects_seed_outside_int64_after_the_first(self, seed):
        self.refused(ConfigError, f"seed must fit in int64, got {seed}", seeds=[0, seed])

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_rejects_non_integer_seed_after_the_first(self, seed):
        self.refused(ConfigError, f"seed must be an integer, got {seed!r}", seeds=[0, seed])

    @pytest.mark.parametrize("kw", [dict(algorithms=["scvrg", "scgd", "scvrg"]),
                                    dict(seeds=[0, 1, 0])])
    def test_rejects_repeats(self, kw):
        repeated = {"algorithms": "['scvrg']", "seeds": "[0]"}
        (name,) = kw
        self.refused(ConfigError, f"repeated {name} {repeated[name]}", **kw)

    @pytest.mark.parametrize("algorithms, params", [
        (["scgd", "ascpg", "agd"], {"eta": 0.5}), (["vrscpg", "agd"], {"k0": 3}),
        (["vrscpg"], {"S": 2}), (["scvrg"], {"seed": 1})])
    def test_rejects_params_no_algorithm_reads(self, algorithms, params):
        (field,) = params
        self.refused(ConfigError, f"{field} not read by {' or '.join(algorithms)}",
                     algorithms=algorithms, params=params)


class TestRunOneSeed:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_non_integer_seed_is_config_error(self, algorithm, seed):
        # seed 1.5 (or True) would run seed 1 and write 1.5 in the seed column
        with pytest.raises(ConfigError, match="seed must be an integer"):
            run_one(build_toy("identity", d=2, m=3, n=3, seed=0), algorithm, seed, 60)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_numpy_integer_seed_runs_as_its_int(self, algorithm):
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        x, rows = run_one(toy, algorithm, np.int64(-3), 60)
        x_int, rows_int = run_one(toy, algorithm, -3, 60)
        assert x.tobytes() == x_int.tobytes()
        assert [r.to_csv_row() for r in rows] == [r.to_csv_row() for r in rows_int]


class TestFieldsRead:
    #: a value for every RunConfig field but the seed, and another one
    BASE = RunConfig(S=3, k0=5, eta=0.02, a=2, b=3, seed=1)
    OTHER = dict(S=4, k0=7, eta=0.03, a=3, b=2, schedule="constant")

    def run(self, algorithm, config):
        """The final iterate's bytes and every trace row, under a budget of
        2000 samples, more than either schedule's S epochs cost."""
        toy = build_toy("affine", d=3, m=4, n=5, seed=0)
        x, rows = run(harness.RUNNERS[algorithm], toy, config, np.zeros(3), 2000, every=1)
        return x.tobytes(), [r.to_csv_row() for r in rows]

    def test_other_values_cover_every_field_but_the_seed(self):
        assert set(self.OTHER) == {f.name for f in fields(RunConfig)} - {"seed"}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_unread_fields_leave_run_unchanged(self, algorithm):
        base = self.run(algorithm, self.BASE)
        for name in set(self.OTHER) - FIELDS_READ[algorithm]:
            assert self.run(algorithm, replace(self.BASE, **{name: self.OTHER[name]})) == base, name

    @pytest.mark.parametrize("algorithm", ["scvrg", "vrscpg"])
    def test_read_fields_change_the_run(self, algorithm):
        base = self.run(algorithm, self.BASE)
        for name in FIELDS_READ[algorithm]:
            assert self.run(algorithm, replace(self.BASE, **{name: self.OTHER[name]})) != base, name


class TestTraceCadence:
    """A cadence of N samples keeps the rows of a row-per-step run at the
    first step that reaches each next multiple of N, and every epoch's end."""

    @staticmethod
    def cadence_rows(full, every):
        """The rows a cadence of `every` samples keeps out of `full`, a trace
        with a row per step: the start row, then each row that ends its epoch
        or reaches the next multiple of `every` above the last row kept."""
        kept = [full[0]]
        for row, after in zip(full[1:], full[2:] + [None]):
            if (after is None or after.epoch != row.epoch
                    or row.samples >= (kept[-1].samples // every + 1) * every):
                kept.append(row)
        return kept

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rows_every_n_samples_are_a_subset_of_every_step(self, algorithm):
        # N = m = 20 on both. A full gradient costs m + n = 28 on the toy, and
        # scvrg's four epochs cost 862 samples, so the budget stops it inside its
        # last one; it costs m + 1 = 21 on the Bellman instance (n = 1), where
        # the epoch ends add rows
        runner = harness.RUNNERS[algorithm]
        config = RunConfig(S=4, k0=5, eta=0.02, a=3, b=2, seed=2)
        for problem in (build_toy("affine", d=3, m=20, n=8, seed=0),
                        build_bellman(3, 20, 0.9, seed=0)):
            budget, m, n = 30 * problem.N, problem.dims.m, problem.dims.n
            _, full = run(runner, problem, config, np.zeros(3), budget, every=1)
            _, rows = run(runner, problem, config, np.zeros(3), budget, every=problem.N)
            assert ([r.to_csv_row() for r in rows]
                    == [r.to_csv_row() for r in self.cadence_rows(full, problem.N)])
            ends = {(r.epoch, r.iteration) for r, after in zip(rows, rows[1:] + [None])
                    if after is None or after.epoch != r.epoch}
            cadence = [r for r in rows[1:] if (r.epoch, r.iteration) not in ends]
            assert len(cadence) <= budget // problem.N
            if algorithm == "agd":  # a step costs more than N: a row per step
                assert [r.iteration for r in rows] == list(range(budget // (m + n) + 1))


class TestComputePhiStar:
    def test_identity_toy_matches_closed_form(self):
        toy = build_toy("identity", d=3, m=6, n=5, seed=0, lam=0.05)
        got = compute_phi_star(toy, budget=100_000)
        assert abs(got - toy.phi_star) <= 1e-10

    def test_bellman_matches_linear_solve(self):
        p = build_bellman(4, 6, 0.9, seed=1)
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
    "bellman_4x6": lambda: build_bellman(4, 6, 0.9, seed=1),
    "bellman_10x20": lambda: build_bellman(10, 20, 0.9, seed=0),
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

    @pytest.mark.parametrize("k0, S", [(10, 59), (1, 63)])
    def test_budget_past_the_horizon_gets_the_longest_schedule(self, k0, S):
        # one epoch more would put T = k0 * 2^S - k0 at or past 2^63, which RunConfig refuses
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        cfg = scvrg_config_for_budget(toy, max_samples=10**30, seed=0, k0=k0)
        assert (cfg.k0, cfg.S) == (k0, S)
        with pytest.raises(ConfigError, match="below 2\\^63"):
            replace(cfg, S=S + 1)


class TestRunBenchmark:
    def test_csv_schema_and_determinism(self, tmp_path):
        p = build_mean_variance(synthetic_returns(60, 4, seed=0), lam=1e-2)
        out = str(tmp_path / "trace.csv")
        run_benchmark(p, ["scvrg", "scgd"], 10.0, [1, 2], out)
        first = Path(out).read_text()
        run_benchmark(p, ["scvrg", "scgd"], 10.0, [1, 2], out)
        second = Path(out).read_text()
        assert first == second  # bit-identical rerun
        lines = first.strip().split("\n")
        assert lines[0] == TRACE_HEADER
        assert lines[0] == "algorithm,seed,epoch,iter,samples,samples_per_N,objective,gap"

    def test_four_runs_monotone_samples(self, tmp_path):
        p = build_mean_variance(synthetic_returns(60, 4, seed=0), lam=1e-2)
        out = str(tmp_path / "trace.csv")
        run_benchmark(p, ["scvrg", "scgd"], 10.0, [1, 2], out)
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
        run_benchmark(toy, ["scvrg", "agd"], 200.0, [0], out)
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
