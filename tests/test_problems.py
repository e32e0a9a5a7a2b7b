"""Tests for the concrete problem builders and returns-data handling."""

import numpy as np
import pytest

from compopt import problems
from compopt.errors import ConfigError, InputError
from compopt.problem import full_gradient, objective, smooth_value
from compopt.problems import (AffineQuadraticProblem, MeanVarianceProblem, build_bellman,
                              build_mean_variance, build_toy, load_returns_csv,
                              synthetic_returns, write_returns_csv)
from compopt.prox import Regularizer


def mean_variance_direct(problem: MeanVarianceProblem, x) -> float:
    """Direct (non-compositional) evaluation of the penalized objective: the
    reference the compositional form must match."""
    x = np.asarray(x, dtype=float)
    px = problem.returns @ x
    mean = px.mean()
    return float(np.mean((px - mean) ** 2) - mean
                 + problem.regularizer.lam * np.sum(np.abs(x)))


class TestLoadReturnsCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "returns.csv"
        path.write_text(text)
        return str(path)

    def test_basic_load_converts_percent(self, tmp_path):
        path = self.write(tmp_path, "date,A,B\n200001,1.5,-2.0\n200002,0.0,4.0\n")
        np.testing.assert_allclose(load_returns_csv(path), [[0.015, -0.02], [0.0, 0.04]])

    def test_sentinel_rows_dropped(self, tmp_path):
        path = self.write(tmp_path,
                          "date,A\n1,1.0\n2,-99.99\n3,2.0\n")
        returns = load_returns_csv(path)
        assert returns.shape[0] == 2
        np.testing.assert_allclose(returns[:, 0], [0.01, 0.02])

    def test_minus_999_sentinel(self, tmp_path):
        path = self.write(tmp_path, "date,A\n1,1.0\n2,-999\n3,2.0\n")
        assert load_returns_csv(path).shape[0] == 2

    def test_all_zero_accepted(self, tmp_path):
        path = self.write(tmp_path, "date,A\n1,0.0\n2,0.0\n")
        np.testing.assert_array_equal(load_returns_csv(path), np.zeros((2, 1)))

    def test_unparseable_reports_line(self, tmp_path):
        path = self.write(tmp_path, "date,A\n1,1.0\n2,oops\n")
        with pytest.raises(InputError, match=":3:"):
            load_returns_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, cell):
        path = self.write(tmp_path, f"date,A,B\n1,1.0,2.0\n2,1.0,{cell}\n3,1.0,2.0\n")
        with pytest.raises(InputError, match=f"^{path}:3: non-finite value$"):
            load_returns_csv(path)

    def test_column_count_mismatch(self, tmp_path):
        path = self.write(tmp_path, "date,A\n1,1.0\n2,1.0,2.0\n")
        with pytest.raises(InputError, match=":3:"):
            load_returns_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = self.write(tmp_path, "date,A\n1,1.0\n2,-99.99\n")
        with pytest.raises(InputError, match="fewer than 2"):
            load_returns_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(InputError, match="empty"):
            load_returns_csv(self.write(tmp_path, ""))

    def test_large_profile_roundtrip(self, tmp_path):
        returns = synthetic_returns(13781, 100, seed=0)
        path = str(tmp_path / "big.csv")
        write_returns_csv(returns, path)
        back = load_returns_csv(path)
        assert back.shape == (13781, 100)
        np.testing.assert_allclose(back, returns, rtol=0, atol=1e-15)


class TestMeanVariance:
    def test_direct_formula_agreement(self):
        p = build_mean_variance(synthetic_returns(40, 6, seed=1), lam=1e-2)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=6)
            composite = objective(p, x)
            direct = mean_variance_direct(p, x)
            assert abs(composite - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_single_observation_no_variance(self):
        p = build_mean_variance(np.array([[0.2, -0.1]]), lam=0.0)
        x = np.array([0.5, 0.5])
        assert smooth_value(p, x) == pytest.approx(-(0.2 * 0.5 - 0.1 * 0.5), abs=1e-15)

    def test_dims(self):
        p = build_mean_variance(synthetic_returns(10, 3, seed=0))
        assert (p.dims.m, p.dims.n, p.dims.d, p.dims.k) == (10, 10, 3, 4)
        assert p.N == 10


class TestBellman:
    def test_builder_chains_are_row_stochastic(self):
        # each A_j = I - gamma P_j, so P_j = (I - A_j) / gamma holds one
        # distribution over next states per row
        for n_states, m, seed in ((1, 1, 0), (3, 5, 1), (10, 20, 0), (50, 8, 7)):
            p = build_bellman(n_states, m, 0.9, seed)
            P = (np.eye(n_states) - p.A) / 0.9
            np.testing.assert_allclose(P.sum(axis=2), 1.0, rtol=0.0, atol=1e-12)
            assert P.min() >= 0.0

    def test_gamma_range_enforced(self, monkeypatch):
        # a discount outside (0, 1) is refused before any chain is drawn
        def fail(seed):
            raise AssertionError("data was drawn before the discount was checked")

        monkeypatch.setattr(problems, "data_rng", fail)
        for gamma in (0.0, 1.0, 1.5, float("nan")):
            with pytest.raises(ConfigError, match=r"^discount must lie strictly in \(0, 1\)"):
                build_bellman(4, 6, gamma, 0)

    def test_gamma_zero_optimum_is_mean_reward(self):
        # gamma ~ 0: minimizing (1/2)||x - r_bar||^2, so x* = r_bar, with r_j = -b_j
        p = build_bellman(4, 6, gamma=1e-12, seed=0)
        np.testing.assert_allclose(p.x_star, -p.b.mean(axis=0), atol=1e-10)

    def test_single_chain_linear_solve(self):
        p = build_bellman(3, 1, gamma=0.9, seed=1)
        x_direct = np.linalg.solve(p.A[0], -p.b[0])
        np.testing.assert_allclose(p.x_star, x_direct, atol=1e-10)
        assert p.phi_star == pytest.approx(0.0, abs=1e-20)

    def test_gradient_is_normal_equation_residual(self):
        p = build_bellman(4, 5, gamma=0.9, seed=2)
        x = np.linspace(-1.0, 1.0, 4)
        expected = p.A_bar.T @ (p.A_bar @ x + p.b_bar)
        np.testing.assert_allclose(full_gradient(p, x), expected, atol=1e-13)

    def test_no_certified_optimum_with_l1(self):
        p = build_bellman(3, 2, gamma=0.9, seed=3, lam=0.1)
        assert p.x_star is None and p.phi_star is None


class TestToys:
    def test_identity_center_zero(self):
        toy = build_toy("identity", d=2, m=2, n=1, seed=0)
        toy.centers[:] = 0.0
        rebuilt = AffineQuadraticProblem(toy.A, toy.b, toy.centers, toy.scales,
                                         toy.regularizer)
        np.testing.assert_array_equal(rebuilt.x_star, np.zeros(2))
        assert rebuilt.phi_star == 0.0

    def test_identity_center_outside_box_clamped(self):
        toy = AffineQuadraticProblem(np.tile(np.eye(2), (2, 1, 1)), np.zeros((2, 2)),
                                     np.array([[3.0, -2.0]]), np.ones(1),
                                     Regularizer(lam=0.0, radius=1.0))
        np.testing.assert_array_equal(toy.x_star, [1.0, -1.0])

    def test_certified_optima_are_stationary(self):
        problems = [build_toy(kind, d=3, m=4, n=3, seed=5)
                    for kind in ("identity", "affine", "mixed")]
        problems.append(build_bellman(3, 5, 0.9, seed=5))
        for problem in problems:
            assert problem.x_star is not None
            rng = np.random.default_rng(0)
            for _ in range(20):
                delta = rng.normal(size=3) * 1e-4
                x = np.clip(problem.x_star + delta, -problem.regularizer.radius,
                            problem.regularizer.radius)
                assert objective(problem, x) >= problem.phi_star - 1e-12

    def test_identity_phi_star_value(self):
        toy = build_toy("identity", d=2, m=3, n=4, seed=6, lam=0.3)
        # independent evaluation at the certified minimizer
        assert objective(toy, toy.x_star) == pytest.approx(toy.phi_star, abs=1e-13)

    def test_rejects_nonpositive_mean_scale_and_bad_shapes(self):
        A, b, centers = np.tile(np.eye(2), (2, 1, 1)), np.zeros((2, 2)), np.zeros((2, 2))
        for scales in ([1.0, -1.0], [0.5, -2.0]):
            with pytest.raises(ConfigError, match="positive mean"):
                AffineQuadraticProblem(A, b, centers, np.array(scales), Regularizer())
        with pytest.raises(ConfigError, match="inconsistent shapes"):
            AffineQuadraticProblem(A, b, centers, np.ones(3), Regularizer())

    def test_mixed_kind_has_n_outer_functions(self):
        for n in (2, 3, 5):
            toy = build_toy("mixed", d=3, m=4, n=n, seed=5)
            assert toy.dims.n == n and toy.scales.mean() > 0.0
        with pytest.raises(ConfigError, match="n >= 2"):
            build_toy("mixed", n=1)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            build_toy("nope")
