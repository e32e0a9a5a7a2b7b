"""Tests for the doubling-epoch driver, step schedule, and parameter derivation."""

import math

import numpy as np
import pytest

from compopt import estimators, solver
from compopt.baselines import run_vrscpg
from compopt.errors import ConfigError, InputError
from compopt.estimators import minibatch_rng
from compopt.problem import full_gradient, objective
from compopt.problems import build_toy
from compopt.prox import prox_step
from compopt.solver import RunConfig, predicted_total_samples, run_epoch, run_scvrg
from compopt.trace import Recorder
from conftest import epoch_runner, key_seeded_rng, run

# one epoch of k0 * 2 = 100 steps: schedule horizon T = 50
STEPS = RunConfig(S=1, k0=50, eta=0.01)
#: a budget more than any run here spends
AMPLE = 10**9


def exact(cfg, problem):
    """The budget that pays for exactly cfg's S epochs on `problem`."""
    return predicted_total_samples(cfg, problem.dims.m, problem.dims.n)


class TestStepSize:
    def test_first_step(self):
        assert STEPS.step(0) == pytest.approx(0.01 * np.sqrt(50) / 10.0)

    def test_midpoint_gives_base(self):
        assert STEPS.step(50) == pytest.approx(0.01)

    def test_last_guarded(self):
        assert STEPS.step(99) == pytest.approx(0.01 * np.sqrt(50))

    def test_guard_absorbs_overrun(self):
        assert STEPS.step(150) == pytest.approx(0.01 * np.sqrt(50))

    def test_nondecreasing(self):
        vals = [STEPS.step(l) for l in range(100)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestRunConfig:
    def test_horizon(self):
        assert RunConfig(S=3, k0=10).T == 70
        assert RunConfig(S=np.int64(3), k0=np.int64(10)).T == 70

    def test_horizon_just_below_2_63_steps(self):
        # T = 2^63 - 1 is accepted, and its step schedule is a float
        cfg = RunConfig(S=63, k0=1)
        assert cfg.T == 2**63 - 1
        assert cfg.step(0) == pytest.approx(cfg.eta / np.sqrt(2.0))

    def test_epoch_lengths_sum_to_2T(self):
        cfg = RunConfig(S=4, k0=5)
        assert sum(5 * 2 ** (s + 1) for s in range(4)) == 2 * cfg.T

    @pytest.mark.parametrize("bad", [dict(k0=0), dict(S=-1), dict(eta=0.0),
                                     dict(a=0), dict(b=2**31), dict(schedule="x"),
                                     dict(S=0), dict(eta=float("nan")),
                                     dict(eta=float("inf")), dict(S=64), dict(S=1100),
                                     dict(S=60, k0=9), dict(seed=2**63),
                                     dict(seed=-2**63 - 1), dict(seed=1.5), dict(seed=True),
                                     dict(seed="3"), dict(seed=np.float64(1.0)),
                                     dict(k0=2.5), dict(S=2.0), dict(a=True),
                                     dict(b=np.float64(5.0)), dict(eta=True),
                                     dict(eta="0.1")])
    def test_validation(self, bad):
        kwargs = dict(S=2)
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            RunConfig(**kwargs)


def derive_theorem_params(D_x: float, D_Phi: float, ell: float, epsilon: float) -> RunConfig:
    """Worst-case-analysis configuration for a target tolerance epsilon, the
    paper's theorem parameters; no run uses them, since their batch sizes are
    impractical, so they live here with their tests.

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


class TestDeriveTheoremParams:
    def test_worked_example(self):
        # D_x = D_Phi = ell = 1, eps = 21/2: S = floor(log2(2)) + 1 = 2, eta = 1/35
        cfg = derive_theorem_params(1.0, 1.0, 1.0, 10.5)
        assert cfg.S == 2
        assert cfg.eta == pytest.approx(1.0 / 35.0)
        assert cfg.k0 == 10

    def test_batch_sizes(self):
        cfg = derive_theorem_params(1.0, 1.0, 1.0, 1.0)
        assert cfg.a == 1620 and cfg.b == 810

    @pytest.mark.parametrize("bad", [dict(D_x=0.0), dict(D_Phi=-1.0), dict(ell=0.0),
                                     dict(epsilon=-0.5)])
    def test_validation(self, bad):
        kwargs = dict(D_x=1.0, D_Phi=1.0, ell=1.0, epsilon=1.0)
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            derive_theorem_params(**kwargs)

    def test_tiny_epsilon_overflows(self):
        with pytest.raises(ConfigError):
            derive_theorem_params(1.0, 1.0, 1.0, 1e-12)


class TestRunEpoch:
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_empty_epoch(self, k):
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        with pytest.raises(ConfigError, match=f"^epoch length must be >= 1, got {k}$"):
            run_epoch(toy, np.zeros(2), np.zeros(2), k=k, l=0, config=RunConfig(S=1),
                      epoch_index=1, recorder=None, minibatches=None)

    def test_blocks_are_pulled_as_steps_reach_them(self):
        # the epoch's rows, re-cut into blocks of 5, 1 and 6 steps, then a block
        # that no step of the epoch needs
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        cfg = RunConfig(S=1, k0=6, eta=0.02, a=2, b=2, seed=3)
        (A, B), = solver._minibatches(toy, cfg, [(1, 12)], AMPLE)

        def blocks():
            yield from zip(np.split(A, [5, 6]), np.split(B, [5, 6]))
            pytest.fail("run_epoch pulled a block past its last step")

        recorder = Recorder(toy, AMPLE)
        recorder.start("scvrg", cfg.seed, np.zeros(2))
        info = run_epoch(toy, np.zeros(2), np.zeros(2), k=12, l=0, config=cfg,
                         epoch_index=1, recorder=recorder, minibatches=blocks())
        whole, _ = run(epoch_runner(12), toy, cfg, np.zeros(2), AMPLE)
        assert info.l == 12
        np.testing.assert_array_equal(info.x_avg, whole.x_avg)
        np.testing.assert_array_equal(info.x_last, whole.x_last)

    def test_stream_a_row_short_raises(self):
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        cfg = RunConfig(S=1, k0=6, eta=0.02, a=2, b=2)
        (A, B), = solver._minibatches(toy, cfg, [(1, 12)], AMPLE)
        recorder = Recorder(toy, AMPLE)
        recorder.start("scvrg", cfg.seed, np.zeros(2))
        with pytest.raises(StopIteration):
            run_epoch(toy, np.zeros(2), np.zeros(2), k=12, l=0, config=cfg, epoch_index=1,
                      recorder=recorder, minibatches=iter([(A[:11], B[:11])]))

    def test_single_step_from_reference(self):
        # k=1 from x0 = x~: x_last = x0 - eta_1 grad F(x0), x_avg = x0
        toy = build_toy("affine", d=2, m=3, n=3, seed=0, radius=1e6)
        cfg = RunConfig(S=2, k0=1, eta=0.01, a=3, b=3)
        x0 = np.array([0.3, -0.2])
        res, _ = run(epoch_runner(1), toy, cfg, x0, AMPLE)
        eta1 = cfg.eta * np.sqrt(cfg.T) / np.sqrt(2 * cfg.T)
        np.testing.assert_allclose(res.x_last, x0 - eta1 * full_gradient(toy, x0), atol=1e-14)
        np.testing.assert_array_equal(res.x_avg, x0)
        assert res.l == 1

    def test_stationary_point_fixed(self):
        toy = build_toy("identity", d=2, m=2, n=2, seed=1, radius=5.0)
        x_star = toy.x_star
        cfg = RunConfig(S=2, k0=5, eta=0.05, a=2, b=2)
        res, _ = run(epoch_runner(10), toy, cfg, x_star, AMPLE)
        np.testing.assert_allclose(res.x_last, x_star, atol=1e-12)

    def test_average_is_pre_update_mean(self):
        toy = build_toy("affine", d=2, m=2, n=2, seed=2)
        cfg = RunConfig(S=1, k0=2, eta=0.01, a=2, b=2, schedule="constant")
        x0 = np.array([0.5, 0.5])
        # replicate the k=2 loop by hand: average covers x_0 and x_1, not x_2
        res, _ = run(epoch_runner(2), toy, cfg, x0, AMPLE)
        x1 = prox_step(toy.regularizer,
                       x0 - cfg.eta * full_gradient(toy, x0), cfg.eta)
        np.testing.assert_allclose(res.x_avg, 0.5 * (x0 + x1), atol=1e-13)

    def test_feasibility_every_iterate(self):
        toy = build_toy("affine", d=2, m=3, n=3, seed=3, lam=0.1, radius=0.5)
        cfg = RunConfig(S=3, k0=10, eta=0.5, a=2, b=2)
        _, rows = run(run_scvrg, toy, cfg, np.zeros(2), exact(cfg, toy), every=1)
        assert all(abs(row.objective) < np.inf for row in rows)

    # a + b = 400 puts 163 steps in a draw chunk. One 400-step epoch spans
    # three chunks (the last partial); with 6 + 250 * 400 samples it pays for
    # the snapshot and 249 steps, and stops mid-chunk. SCVRG's epochs of 200 and
    # 400 steps share chunks, so a chunk holds rows of two epochs; with
    # 140,012 samples its second epoch stops after 150 steps. VRSC-PG's epochs
    # of K = 4 steps: 20,000 samples pay for 12 and one step of a 13th, all
    # in one chunk. Every chunk forces a Lemire rejection on rows 1, 11, ...,
    # which their reference generators redraw, each with its row's epoch.
    @pytest.mark.parametrize("runner, max_samples, draws, steps", [
        (epoch_runner(400, l=3, epoch_index=2), 6 + 400 * 400, 3, 400),
        (epoch_runner(400, l=3, epoch_index=2), 250 * 400, 2, 249),
        (run_scvrg, 2 * 6 + 600 * 400, 4, 600),
        (run_scvrg, 2 * 6 + 350 * 400, 3, 350),
        (run_vrscpg, 20_000, 1, 49),
    ], ids=["None", "100000", "scvrg", "scvrg-budget", "vrscpg"])
    def test_chunked_draws_match_per_step_reference(self, monkeypatch, runner, max_samples,
                                                    draws, steps):
        toy = build_toy("affine", d=2, m=3, n=3, seed=5)
        cfg = RunConfig(S=2, k0=100, eta=0.05, a=300, b=100, seed=-7)
        x0 = np.array([0.4, -0.3])
        estimate, chunked_draw, lemire = (solver.estimate_gradient, solver.draw_minibatch,
                                          estimators._lemire)

        def forced_rejections(u, bound):
            out, rejected = lemire(u, bound)
            rejected[1::10, 0] = True
            return out, rejected

        def run_with(draw):
            visited, calls = [], []

            def spy_estimate(problem, snapshot, x, A, B, df_ref=None):
                visited.append(x.copy())
                return estimate(problem, snapshot, x, A, B, df_ref)

            def spy_draw(*args):
                calls.append(args[-2:])
                return draw(*args)

            monkeypatch.setattr(solver, "estimate_gradient", spy_estimate)
            monkeypatch.setattr(solver, "draw_minibatch", spy_draw)
            _, rows = run(runner, toy, cfg, x0, max_samples, every=1)
            return [r.to_csv_row() for r in rows], np.array(visited), calls

        def per_step(m, n, a, b, seed, epoch, iteration):
            pairs = list(zip(np.broadcast_to(epoch, np.shape(iteration)), iteration))
            return tuple(np.array([key_seeded_rng(seed, int(e), int(t), stream).integers(0, bound, size)
                                   for e, t in pairs])
                         for stream, bound, size in ((0, m, a), (1, n, b)))

        redrawn = []
        monkeypatch.setattr(estimators, "_lemire", forced_rejections)
        monkeypatch.setattr(estimators, "minibatch_rng",
                            lambda *key: redrawn.append(key[1]) or minibatch_rng(*key))
        chunked, chunked_x, chunk_calls = run_with(chunked_draw)
        reference, reference_x, _ = run_with(per_step)
        assert len(chunk_calls) == draws and len(chunked_x) == steps
        assert sum(len(steps) for _, steps in chunk_calls) == steps  # only paid steps are drawn
        assert redrawn == [int(e) for epochs, _ in chunk_calls for e in 2 * list(epochs[1::10])]
        np.testing.assert_array_equal(chunked_x, reference_x)
        assert chunked == reference


class TestRunScvrg:
    def test_epoch_structure(self):
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        cfg = RunConfig(S=3, k0=5, eta=0.02, a=2, b=2, seed=4)
        res, _ = run(run_scvrg, toy, cfg, np.zeros(2), exact(cfg, toy))
        assert [e.k for e in res.epochs] == [10, 20, 40]
        assert res.epochs[-1].l == 2 * cfg.T
        # chaining: each epoch starts at the previous epoch's last iterate
        np.testing.assert_array_equal(res.epochs[1].x_start, res.epochs[0].x_last)
        # reference: previous epoch's average
        np.testing.assert_array_equal(res.epochs[1].x_ref, res.epochs[0].x_avg)
        np.testing.assert_array_equal(res.x, res.epochs[-1].x_avg)

    def test_sample_accounting_exact(self):
        toy = build_toy("affine", d=3, m=4, n=5, seed=1)
        cfg = RunConfig(S=4, k0=3, eta=0.02, a=2, b=3, seed=0)
        res, _ = run(run_scvrg, toy, cfg, np.zeros(3), AMPLE)
        assert res.samples == predicted_total_samples(cfg, 4, 5)
        assert res.samples == sum(4 + 5 + 3 * 2 ** (s + 1) * (2 + 3) for s in range(4))

    def test_predicted_budget_runs_every_epoch_and_spends_it(self):
        # predicted_total_samples is the S epochs' exact cost: one sample less
        # stops the last epoch a step short
        toy = build_toy("mixed", d=3, m=4, n=5, seed=2)
        cfg = RunConfig(S=4, k0=3, eta=0.05, a=2, b=3, seed=-1)
        res, rows = run(run_scvrg, toy, cfg, np.zeros(3), exact(cfg, toy), every=1)
        assert [(e.epoch, e.k, e.l) for e in res.epochs] == \
            [(s, 3 * 2**s, 3 * (2 ** (s + 1) - 2)) for s in range(1, 5)]
        assert res.samples == res.epochs[-1].samples_end == rows[-1].samples == exact(cfg, toy)
        assert (rows[-1].epoch, rows[-1].iteration) == (4, 48)
        short, rows = run(run_scvrg, toy, cfg, np.zeros(3), exact(cfg, toy) - 1, every=1)
        assert len(short.epochs) == 4 and short.samples == exact(cfg, toy) - 5
        assert (rows[-1].epoch, rows[-1].iteration) == (4, 47)

    def test_deterministic_trace(self):
        toy = build_toy("affine", d=2, m=3, n=3, seed=5)
        cfg = RunConfig(S=3, k0=5, eta=0.02, a=2, b=2, seed=9)
        _, t1 = run(run_scvrg, toy, cfg, np.zeros(2), exact(cfg, toy), every=1)
        _, t2 = run(run_scvrg, toy, cfg, np.zeros(2), exact(cfg, toy), every=1)
        assert [r.to_csv_row() for r in t1] == [r.to_csv_row() for r in t2]

    def test_infeasible_start_rejected(self):
        toy = build_toy("affine", d=2, m=3, n=3, seed=0, radius=0.5)
        with pytest.raises(InputError):
            run(run_scvrg, toy, RunConfig(S=1), np.array([2.0, 0.0]), AMPLE)

    def test_converges_on_toy(self):
        toy = build_toy("identity", d=3, m=4, n=4, seed=0)
        cfg = RunConfig(S=4, k0=5, eta=0.05, a=4, b=4, seed=1)
        res, _ = run(run_scvrg, toy, cfg, np.zeros(3), exact(cfg, toy))
        assert objective(toy, res.x) - toy.phi_star <= 1e-8

    def test_budget_truncation(self):
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        cfg = RunConfig(S=5, k0=5, eta=0.02, a=2, b=2)
        res, _ = run(run_scvrg, toy, cfg, np.zeros(2), 200)
        assert res.samples <= 200 + (cfg.a + cfg.b)

    def test_budget_pays_for_every_step(self):
        # epochs 1-2 charge 6 + 40 and 6 + 80; epoch 3 snapshots at 138 and
        # stops after 15 steps, since a 16th would reach 202 > 200
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        cfg = RunConfig(S=5, k0=5, eta=0.02, a=2, b=2)
        res, rows = run(run_scvrg, toy, cfg, np.zeros(2), 200)
        assert res.samples == rows[-1].samples == 198
        assert len(res.epochs) == 3

    def test_run_at_the_schedule_horizon(self, monkeypatch):
        # k0 = 1, S = 63 puts T at 2^63 - 1. Epochs of 2, 4, 8 and 16 steps cost
        # 20 + 10 k each; 453 samples pay for them, a fifth snapshot and 5 steps
        toy = build_toy("affine", d=3, m=12, n=8, seed=0)
        drawn = []
        draw = solver.draw_minibatch
        monkeypatch.setattr(solver, "draw_minibatch",
                            lambda *args: drawn.append(len(args[-1])) or draw(*args))
        res, rows = run(run_scvrg, toy, RunConfig(S=63, k0=1), np.zeros(3), 453)
        assert res.samples == rows[-1].samples == 4 * 20 + 10 * 30 + 20 + 10 * 5
        assert [e.k for e in res.epochs] == [2, 4, 8, 16, 32]
        assert (rows[-1].epoch, rows[-1].iteration) == (5, 5)
        assert sum(drawn) == 2 + 4 + 8 + 16 + 5

    def test_starved_budget_writes_start_row(self):
        # one snapshot and one step cost 3 + 3 + 5 + 5 = 16 > 10
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        res, rows = run(run_scvrg, toy, RunConfig(S=1), np.zeros(2), 10)
        assert [(r.epoch, r.iteration, r.samples) for r in rows] == [(0, 0, 0)]
        assert res.samples == 0 and res.epochs == []

    def test_budget_cut_epoch_ends_at_steps_taken(self):
        # a snapshot (6) and 8 of the epoch's 20 steps (10 each) fit 90 samples
        toy = build_toy("affine", d=2, m=3, n=3, seed=0)
        _, rows = run(run_scvrg, toy, RunConfig(S=1), np.zeros(2), 90, every=1)
        rows = [(r.epoch, r.iteration, r.samples) for r in rows]
        assert rows == [(0, 0, 0)] + [(1, t, 6 + 10 * t) for t in range(1, 9)]


class TestSampleMeterCharges:
    def test_per_epoch_charge(self):
        toy = build_toy("affine", d=2, m=3, n=4, seed=0)
        cfg = RunConfig(S=1, k0=6, eta=0.02, a=2, b=2)
        info, rows = run(epoch_runner(12), toy, cfg, np.zeros(2), AMPLE)
        assert info.samples_end == rows[-1].samples == 7 + 12 * (2 + 2)

    @pytest.mark.parametrize("max_samples", [1, 3 + 4 + 2 + 2 - 1])
    def test_epoch_the_meter_cannot_pay_charges_nothing(self, max_samples):
        # an epoch starts only when its snapshot and one step, m + n + a + b, fit
        toy = build_toy("affine", d=2, m=3, n=4, seed=0)
        cfg = RunConfig(S=1, k0=6, eta=0.02, a=2, b=2)
        # the ledger itself is under test, so this test holds its Recorder
        rec = Recorder(toy, max_samples, every=1)
        rec.start("scvrg", cfg.seed, np.zeros(2))
        minibatches = solver._minibatches(toy, cfg, [(1, 12)], rec.budget - rec.samples)
        assert run_epoch(toy, np.zeros(2), np.zeros(2), k=12, l=0, config=cfg,
                         epoch_index=1, recorder=rec, minibatches=minibatches) is None
        assert rec.samples == 0
        assert [(r.epoch, r.iteration) for r in rec.rows] == [(0, 0)]

    def test_epoch_the_meter_just_pays_takes_one_step(self):
        toy = build_toy("affine", d=2, m=3, n=4, seed=0)
        cfg = RunConfig(S=1, k0=6, eta=0.02, a=2, b=2)
        info, rows = run(epoch_runner(12), toy, cfg, np.zeros(2), 3 + 4 + 2 + 2, every=1)
        assert info.l == 1 and info.samples_end == 11
        assert [(r.epoch, r.iteration, r.samples) for r in rows] == [(0, 0, 0), (1, 1, 11)]
