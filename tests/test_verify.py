"""Tests for the empirical verification suite."""

import numpy as np
import pytest

from compopt import estimators, verify
from compopt.errors import ConfigError
from compopt.estimators import (_vr_gradient, estimate_inner, take_snapshot,
                                unbiased_reference_gradient)
from compopt.problem import full_gradient, inner_mean
from compopt.problems import build_toy
from compopt.solver import RunConfig
from compopt.verify import (REPORT_HEADER, CheckReport, all_passed,
                            check_epoch_contraction, check_gradient_fd,
                            check_lemma1, check_lemma1_scaling, check_lemma2,
                            check_unbiasedness, fd_gradient, run_all_checks,
                            write_report_csv)


@pytest.fixture
def toy():
    return build_toy("affine", d=3, m=4, n=3, seed=0)


class TestFdGradient:
    def test_matches_analytic(self, toy):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=3)
            np.testing.assert_allclose(fd_gradient(toy, x),
                                       full_gradient(toy, x), rtol=1e-6, atol=1e-8)

    def test_check_passes(self, toy):
        points = np.random.default_rng(1).uniform(-0.5, 0.5, size=(10, 3))
        report = check_gradient_fd(toy, points)
        assert report.passed and report.trials == 10

    def test_check_catches_wrong_gradient(self, toy):
        class Broken(type(toy)):
            def inner_vjp(self, idx, x, u):
                return 1.5 * super().inner_vjp(idx, x, u)

        broken = Broken(toy.A, toy.b, toy.centers, toy.scales, toy.regularizer)
        points = np.random.default_rng(1).uniform(-0.5, 0.5, size=(5, 3))
        assert not check_gradient_fd(broken, points).passed


class TestUnbiasedness:
    def test_passes_on_toy(self, toy):
        snap = take_snapshot(toy, np.array([0.1, -0.2, 0.0]))
        report = check_unbiasedness(toy, snap, np.array([0.3, 0.2, -0.1]), b=2)
        assert report.passed
        assert report.trials == toy.dims.n ** 2

    def test_rejects_large_enumeration(self):
        big = build_toy("affine", d=2, m=3, n=6, seed=1)
        snap = take_snapshot(big, np.zeros(2))
        with pytest.raises(ConfigError):
            check_unbiasedness(big, snap, np.zeros(2), b=1)


class TestVarianceBounds:
    def test_lemma1_dominates(self, toy):
        snap = take_snapshot(toy, np.array([0.2, 0.0, -0.1]))
        report = check_lemma1(toy, snap, np.array([-0.3, 0.4, 0.1]),
                              a=2, b=2, trials=40_000, seed=0)
        assert report.passed
        assert report.measured <= 1.05 * report.bound

    def test_lemma1_zero_at_reference(self, toy):
        snap = take_snapshot(toy, np.array([0.2, 0.0, -0.1]))
        report = check_lemma1(toy, snap, snap.x_tilde, a=2, b=2,
                              trials=1000, seed=0)
        assert report.passed
        assert report.bound == 0.0 and report.measured <= 1e-24

    def test_lemma1_rejects_empty_trial_count(self, toy):
        snap = take_snapshot(toy, np.array([0.2, 0.0, -0.1]))
        with pytest.raises(ConfigError):
            check_lemma1(toy, snap, snap.x_tilde, a=2, b=2, trials=0)

    def test_lemma1_scaling(self, toy):
        snap = take_snapshot(toy, np.array([0.2, 0.0, -0.1]))
        report = check_lemma1_scaling(toy, snap, np.array([-0.3, 0.4, 0.1]),
                                      a=2, b=2, trials=100_000, seed=0)
        assert report.passed
        assert abs(report.measured - 2.0) <= 0.2

    def test_lemma2_dominates(self, toy):
        snap = take_snapshot(toy, np.array([0.2, 0.0, -0.1]))
        report = check_lemma2(toy, snap, np.array([-0.3, 0.4, 0.1]),
                              b=2, trials=40_000, seed=0)
        assert report.passed

    def test_lemma2_dominates_mixed(self):
        # the affine toy's u_t has zero variance; the mixed toy's does not
        mixed = build_toy("mixed", d=3, m=4, n=2, seed=0)
        snap = take_snapshot(mixed, np.array([0.2, 0.0, -0.1]))
        report = check_lemma2(mixed, snap, np.array([-0.3, 0.4, 0.1]),
                              b=2, trials=40_000, seed=0)
        assert report.passed
        assert 0.0 < report.measured <= 1.05 * report.bound

    def test_lemma2_zero_at_optimum(self, toy):
        # x == x~ == x*: the bound is 0 and u_t == v~ == grad F(x) up to roundoff
        snap = take_snapshot(toy, toy.x_star)
        report = check_lemma2(toy, snap, toy.x_star, b=2, trials=1000, seed=0)
        assert report.passed
        assert report.measured <= 1e-24

    def test_lemma2_needs_certified_optimum(self):
        from compopt.problems import build_mean_variance, synthetic_returns
        p = build_mean_variance(synthetic_returns(20, 3, seed=0), lam=1e-2)
        snap = take_snapshot(p, np.zeros(3))
        with pytest.raises(ConfigError):
            check_lemma2(p, snap, np.zeros(3), b=2, trials=100)


class TestEpochContraction:
    def make_problem(self):
        return build_toy("affine", d=3, m=12, n=8, seed=0)

    def test_deterministic_config_contracts(self):
        problem = self.make_problem()
        ell = problem.smoothness().ell
        beta, S = 0.9, 3
        T = 10 * 2**S - 10
        eta = min(1.0 / (30.0 * beta * T * ell), 1.0 / (25.0 * ell))
        config = RunConfig(S=S, k0=10, eta=eta, a=12, b=8, seed=0)
        report = check_epoch_contraction(problem, config, beta, seeds=[0])
        assert report.passed and not report.skipped
        assert report.measured <= 0.5 + 1e-6

    def test_unsatisfiable_hypotheses_skip(self):
        problem = self.make_problem()
        config = RunConfig(S=2, k0=10, eta=0.5, a=2, b=2, seed=0)
        report = check_epoch_contraction(problem, config, beta=0.9, seeds=[0])
        assert report.skipped and not report.passed
        assert "eta" in report.detail

    def test_rejects_bad_beta(self):
        problem = self.make_problem()
        config = RunConfig(S=2, k0=10, eta=1e-4, a=12, b=8, seed=0)
        with pytest.raises(ConfigError):
            check_epoch_contraction(problem, config, beta=1.5, seeds=[0])


class TestReporting:
    def test_csv_header_and_rows(self, tmp_path):
        reports = [CheckReport(name="demo", passed=True, measured=0.5,
                               bound=1.0, trials=10, seed=0)]
        path = tmp_path / "report.csv"
        write_report_csv(reports, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == REPORT_HEADER == "name,pass,measured,bound,trials,seed"
        assert lines[1] == "demo,true,0.5,1.0,10,0"

    def test_numpy_scalars_written_as_plain_floats(self):
        report = CheckReport(name="demo", passed=np.bool_(True),
                             measured=np.float64(6.523180058084518e-11),
                             bound=np.float64(1e-5), trials=10, seed=0)
        assert report.to_csv_row() == "demo,true,6.523180058084518e-11,1e-05,10,0"

    def test_all_passed_treats_skip_as_ok(self):
        ok = CheckReport("a", True, 0.0, 1.0, 1, 0)
        skip = CheckReport("b", False, np.nan, 1.0, 1, 0, skipped=True)
        bad = CheckReport("c", False, 2.0, 1.0, 1, 0)
        assert all_passed([ok, skip])
        assert not all_passed([ok, bad])


class TestRunAllChecks:
    def test_full_suite_green(self):
        reports = run_all_checks(seed=0, trials=20_000, contraction_seeds=5)
        assert len(reports) >= 10
        failing = [r.name for r in reports if not (r.passed or r.skipped)]
        assert failing == []

    def test_combined_bound_is_not_lemma1_again(self):
        # on the affine toy u_t == grad F(x), so the combined bound would read
        # Lemma 1's ||v_t - u_t||^2; on the mixed toy it measures its own value
        for seed in range(4):
            reports = {r.name: r for r in run_all_checks(seed=seed, trials=20_000,
                                                          contraction_seeds=1)}
            combined = reports["combined_bound_domination"]
            assert combined.passed
            assert combined.measured != reports["lemma1_domination"].measured


def _biased_inner(problem, snapshot, x, A):
    return estimate_inner(problem, snapshot, x, A) + 0.3 * snapshot.g_tilde


def _plain_unbiased(problem, snapshot, x, B):
    """Z(x)^T mean_B grad f_i(g(x)), without the control variate."""
    g, Z = inner_mean(problem, x)
    return problem.outer_grad(np.asarray(B), g).mean(axis=-2) @ Z


def _biased_unbiased(problem, snapshot, x, B):
    return unbiased_reference_gradient(problem, snapshot, x, B) + 0.3 * snapshot.v_tilde


def _biased_vr(problem, snapshot, x, g_t, A, B):
    return _vr_gradient(problem, snapshot, x, g_t, A, B) + 0.3 * snapshot.v_tilde


def _plain_vr(problem, snapshot, x, g_t, A, B):
    """mean_A dg_j(x)^T mean_B grad f_i(g_t), without the control variate."""
    df = problem.outer_grad(B, g_t if g_t.ndim == 1 else g_t[..., None, :]).mean(axis=-2)
    return problem.inner_vjp(A, x, df[..., None, :]).mean(axis=-2)


def _zero_vr(problem, snapshot, x, g_t, A, B):
    return np.zeros(g_t.shape[:-1] + (problem.dims.d,))


class TestNegativeControls:
    """The suite reads the production estimators, so a broken one must fail it.
    v_t's body is patched in `estimators`, where the solver's
    `estimate_gradient` and verify's Monte-Carlo checks both read it."""

    @pytest.mark.parametrize("module, target, broken", [
        (verify, "estimate_inner", _biased_inner),
        (verify, "unbiased_reference_gradient", _plain_unbiased),
        (verify, "unbiased_reference_gradient", _biased_unbiased),
        (estimators, "_vr_gradient", _biased_vr),
        (estimators, "_vr_gradient", _plain_vr),
        (estimators, "_vr_gradient", _zero_vr),
    ], ids=["g_t_biased", "u_t_no_control_variate", "u_t_biased",
            "v_t_biased", "v_t_no_control_variate", "v_t_zero"])
    def test_broken_estimator_fails_suite(self, monkeypatch, module, target, broken):
        monkeypatch.setattr(module, target, broken)
        for seed in range(4):
            reports = run_all_checks(seed=seed, trials=20_000, contraction_seeds=2)
            assert not all_passed(reports), f"seed {seed}: every check passed"
