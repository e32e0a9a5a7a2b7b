"""Tests for snapshots, seeded draws, and the control-variate estimators."""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest

from compopt import estimators
from compopt.errors import ConfigError
from compopt.estimators import (SampleMeter, _vr_gradient, draw_minibatch,
                                estimate_gradient, estimate_inner, minibatch_rng,
                                take_snapshot, unbiased_reference_gradient)
from compopt.problem import (CompositionProblem, ProblemDims, full_gradient,
                             inner_mean)
from compopt.problems import (AffineQuadraticProblem, ReturnsDataset, build_bellman,
                              build_mean_variance, build_toy,
                              random_bellman_spec, synthetic_returns)
from compopt.prox import Regularizer
from compopt.solver import RunConfig, run_epoch
from compopt.trace import Recorder


class CurvedInnerProblem(CompositionProblem):
    """d=k=1 fixture with a nonlinear inner map: g_1(x)=x^2, g_2(x)=x,
    f_i(y) = (i+1) y^2. Its gradient estimate v_t is genuinely biased away
    from the reference (the affine toys are exactly unbiased)."""

    def __init__(self):
        super().__init__(ProblemDims(m=2, n=2, d=1, k=1),
                         Regularizer(lam=0.0, radius=10.0))

    def inner_value(self, idx, x):
        return np.array([[x[0] ** 2], [x[0]]])[idx]

    def inner_vjp(self, idx, x, u):
        return np.array([[2.0 * x[0]], [1.0]])[idx] * u

    #: f_i's weight i + 1, an array so that every index form gathers from it
    weights = np.array([1.0, 2.0])

    def outer_value(self, idx, y):
        return self.weights[idx] * y[0] ** 2

    def outer_grad(self, idx, y):
        return (2.0 * self.weights[idx])[..., None] * y


@pytest.fixture
def affine_toy():
    return build_toy("affine", d=2, m=3, n=3, seed=0)


def one_epoch_ledger(problem, k, a, b):
    """The samples column of one k-step epoch from 0, a row per step."""
    x0 = np.zeros(problem.dims.d)
    rec = Recorder(problem, "scvrg", 0, SampleMeter(), x0, every=1)
    run_epoch(problem, x0, x0, k, 0, RunConfig(S=1, a=a, b=b), 1, rec)
    return [row.samples for row in rec.rows]


#: an estimate at x = x~ is the snapshot's bit for bit on each of these
FIXED_POINT_BUILDERS = {
    "affine": lambda: build_toy("affine", d=2, m=3, n=3, seed=0),
    "meanvar-d25": lambda: build_mean_variance(synthetic_returns(2000, 25, seed=0)),
    "bellman-50x800": lambda: build_bellman(random_bellman_spec(50, 800, 0.9, seed=0)),
    "curved": CurvedInnerProblem,
}


def fixed_point_cases():
    """(name, problem, snapshot, draw of 20 steps) per FIXED_POINT_BUILDERS
    entry, the snapshot at a random point of the box."""
    rng = np.random.default_rng(6)
    for name, make in FIXED_POINT_BUILDERS.items():
        problem = make()
        m, n, d = problem.dims.m, problem.dims.n, problem.dims.d
        snap = take_snapshot(problem, rng.uniform(-0.9, 0.9, size=d) * problem.regularizer.radius)
        yield name, problem, snap, draw_minibatch(m, n, 5, 5, seed=1, epoch=1,
                                                  iteration=np.arange(20))


class TestMinibatchRng:
    def test_deterministic(self):
        a = minibatch_rng(7, 2, 5).integers(0, 100, size=8)
        b = minibatch_rng(7, 2, 5).integers(0, 100, size=8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_counters_differ(self):
        base = minibatch_rng(7, 2, 5).integers(0, 10**9, size=4)
        for epoch, it, stream in [(2, 6, 0), (3, 5, 0), (2, 5, 1)]:
            other = minibatch_rng(7, epoch, it, stream).integers(0, 10**9, size=4)
            assert not np.array_equal(base, other)

    def test_negative_seed_accepted(self):
        minibatch_rng(-3, 0, 0).integers(0, 10, size=2)

    @pytest.mark.parametrize("seed", [0, -1, -5, 2**62, -2**63, 2**63 - 1])
    def test_key_is_int64_twos_complement(self, seed):
        assert estimators._seed_key(seed) == np.int64(seed).view(np.uint64)

    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 2**64])
    def test_seed_outside_int64_raises(self, seed):
        with pytest.raises(OverflowError):
            minibatch_rng(seed, 0, 0)
        with pytest.raises(OverflowError):
            draw_minibatch(5, 5, 2, 2, seed, 0, np.arange(3))


def reference_rows(seed, epoch, steps, stream, bound, size):
    """The per-step reference draws draw_minibatch must reproduce."""
    return np.array([minibatch_rng(seed, epoch, int(t), stream).integers(0, bound, size)
                     for t in steps])


class TestDrawMinibatch:
    def test_shapes_and_ranges(self):
        draw = draw_minibatch(m=7, n=4, a=5, b=3, seed=0, epoch=1, iteration=2)
        assert draw.A.shape == (5,) and draw.B.shape == (3,)
        assert np.all((0 <= draw.A) & (draw.A < 7))
        assert np.all((0 <= draw.B) & (draw.B < 4))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            draw_minibatch(3, 3, 0, 1, 0, 0, 0)

    def test_array_iteration_matches_reference_rows(self):
        rng = np.random.default_rng(2024)
        seeds = [0, -1, -5, 2**62, 2**63 - 1, -2**63, int(rng.integers(-2**63, 2**63))]
        bounds = [1, 2, 3, 2**31 - 1, int(rng.integers(4, 10**6))]
        sizes = itertools.cycle([(1, 40), (7, 1), (93, 8)])
        for seed in seeds:
            for m, n in zip(bounds, rng.permutation(bounds)):
                a, b = next(sizes)
                epoch = int(rng.integers(0, 5))
                steps = np.sort(rng.choice(1000, size=12, replace=False))
                draw = draw_minibatch(m, int(n), a, b, seed, epoch, steps)
                assert draw.A.shape == (12, a) and draw.B.shape == (12, b)
                assert draw.A.dtype == draw.B.dtype == np.int64
                np.testing.assert_array_equal(draw.A, reference_rows(seed, epoch, steps, 0, m, a))
                np.testing.assert_array_equal(draw.B, reference_rows(seed, epoch, steps, 1, n, b))

    def test_int_iteration_is_one_row(self):
        draw = draw_minibatch(1000, 17, 93, 5, -3, 2, 41)
        rows = draw_minibatch(1000, 17, 93, 5, -3, 2, np.array([40, 41]))
        np.testing.assert_array_equal(draw.A, rows.A[1])
        np.testing.assert_array_equal(draw.B, rows.B[1])

    def counting_reference(self, monkeypatch):
        calls = []

        def counted(seed, epoch, iteration, stream=0):
            calls.append((epoch, iteration, stream))
            return minibatch_rng(seed, epoch, iteration, stream)

        monkeypatch.setattr(estimators, "minibatch_rng", counted)
        return calls

    def test_lemire_rejection_falls_back_to_reference(self, monkeypatch):
        # (2^32 - m) % m = 2^31 - 1: about half of all uint32 values are rejected
        m, steps = 2**31 + 1, np.arange(20)
        calls = self.counting_reference(monkeypatch)
        draw = draw_minibatch(m, 3, 4, 2, 11, 1, steps)
        assert any(stream == 0 for _, _, stream in calls)
        np.testing.assert_array_equal(draw.A, reference_rows(11, 1, steps, 0, m, 4))
        np.testing.assert_array_equal(draw.B, reference_rows(11, 1, steps, 1, 3, 2))

    def test_bound_above_2_32_falls_back_to_reference(self, monkeypatch):
        m, steps = 2**32 + 5, np.arange(4)
        calls = self.counting_reference(monkeypatch)
        draw = draw_minibatch(m, 2**32, 6, 6, -9, 3, steps)
        # B's bound of exactly 2^32 never rejects, so only A's rows fall back
        assert sorted(calls) == [(3, t, 0) for t in steps]
        np.testing.assert_array_equal(draw.A, reference_rows(-9, 3, steps, 0, m, 6))
        np.testing.assert_array_equal(draw.B, reference_rows(-9, 3, steps, 1, 2**32, 6))

    def test_scalar_draws_are_consecutive_bounded_uint32(self):
        # SCGD and ASC-PG draw j, i and j2 one at a time from stream 2; each
        # takes the next uint32 of the step's generator through the bounded draw
        m, n, seed, steps = 2000, 77, 5, np.arange(1, 301)
        (u,) = estimators._uint32_draws(estimators._seed_key(seed), 0,
                                        steps.astype(np.uint64), ((2, 3),))
        for row, t in zip(u, steps):
            rng = minibatch_rng(seed, 0, int(t), stream=2)
            drawn = [int(rng.integers(m)), int(rng.integers(n)), int(rng.integers(m))]
            expected = [estimators._lemire(w, bound) for w, bound in zip(row, (m, n, m))]
            assert not any(rejected for _, rejected in expected)
            assert drawn == [int(value) for value, _ in expected]


class TestTakeSnapshot:
    def test_scalar_square_snapshot(self):
        # g(x)=x, f(y)=y^2 at x~=1: g~=1, Z~=I, v~=2
        toy = AffineQuadraticProblem(np.eye(1)[None], np.zeros((1, 1)), np.zeros((1, 1)),
                                     np.ones(1), Regularizer(radius=10.0))
        snap = take_snapshot(toy, np.array([1.0]))
        np.testing.assert_allclose(snap.g_tilde, [1.0], atol=1e-15)
        np.testing.assert_allclose(snap.z_tilde, [[1.0]], atol=1e-15)
        np.testing.assert_allclose(snap.v_tilde, [2.0], atol=1e-15)

    def test_vtilde_matches_full_gradient(self, affine_toy):
        x = np.array([0.3, -0.4])
        snap = take_snapshot(affine_toy, x)
        np.testing.assert_allclose(snap.v_tilde, full_gradient(affine_toy, x), atol=1e-14)

    def test_charges_m_plus_n(self, affine_toy):
        # the snapshot charges nothing itself: its epoch charges m + n for it,
        # then a + b for the first step
        rows = one_epoch_ledger(affine_toy, k=1, a=1, b=1)
        assert rows == [0, affine_toy.dims.m + affine_toy.dims.n + 2]

    @pytest.mark.parametrize("full_batch", [take_snapshot, full_gradient])
    def test_memory_does_not_grow_as_m_k_d(self, full_batch):
        # an (m, k, d) Jacobian stack would take m * (d + 1) * d * 8 = 29 MB here
        m, d = 1000, 60
        problem = build_mean_variance(synthetic_returns(m, d, seed=0))
        x = np.full(d, 0.1)
        tracemalloc.start()
        try:
            full_batch(problem, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * m * (d + 1) * 8


class TestEstimateInner:
    def test_fixed_point_at_reference(self):
        for name, problem, snap, draw in fixed_point_cases():
            for A in (draw.A[0], draw.A):  # one step, and a (t, a) stack
                g_t = estimate_inner(problem, snap, snap.x_tilde, A)
                np.testing.assert_array_equal(g_t, np.broadcast_to(snap.g_tilde, g_t.shape),
                                              err_msg=name)

    def test_full_enumeration_exact_on_affine(self, affine_toy):
        snap = take_snapshot(affine_toy, np.zeros(2))
        x = np.array([0.5, -0.2])
        g_t = estimate_inner(affine_toy, snap, x, A=np.arange(affine_toy.dims.m))
        g_exact, _ = inner_mean(affine_toy, x)
        np.testing.assert_allclose(g_t, g_exact, atol=1e-14)

    def test_enumerated_mean_equals_inner_mean(self, affine_toy):
        # all m^a draws for a=1 average to g(x) exactly
        snap = take_snapshot(affine_toy, np.zeros(2))
        x = np.array([0.4, 0.3])
        m = affine_toy.dims.m
        mean_g = np.mean([estimate_inner(affine_toy, snap, x, A=np.array([j]))
                          for j in range(m)], axis=0)
        g_exact, _ = inner_mean(affine_toy, x)
        np.testing.assert_allclose(mean_g, g_exact, atol=1e-14)

    def test_charges_a(self, affine_toy):
        # the estimate charges nothing itself: its epoch charges each step's
        # a = 3 inner and b = 1 outer indices
        m_n = affine_toy.dims.m + affine_toy.dims.n
        assert one_epoch_ledger(affine_toy, k=2, a=3, b=1) == [0, m_n + 4, m_n + 8]


class TestEstimateGradient:
    def test_fixed_point_at_reference(self):
        # the gathered snapshot rows equal fresh x~ evaluations bit for bit,
        # so every correction is exactly zero
        for name, problem, snap, draw in fixed_point_cases():
            for t in range(20):
                v = estimate_gradient(problem, snap, snap.x_tilde, draw.A[t], draw.B[t])
                np.testing.assert_array_equal(v, snap.v_tilde, err_msg=name)
            v = estimate_gradient(problem, snap, snap.x_tilde, draw.A, draw.B)
            np.testing.assert_array_equal(v, np.broadcast_to(snap.v_tilde, v.shape), err_msg=name)

    def test_singleton_problem_exact(self):
        toy = build_toy("affine", d=2, m=1, n=1, seed=1)
        snap = take_snapshot(toy, np.zeros(2))
        x = np.array([0.4, -0.3])
        v = estimate_gradient(toy, snap, x, np.array([0]), np.array([0]))
        np.testing.assert_allclose(v, full_gradient(toy, x), atol=1e-14)

    def test_bias_vanishes_near_reference(self):
        """Enumerated mean of v_t approaches grad F(x) as x -> x_tilde."""
        problem = CurvedInnerProblem()
        x_ref = np.array([0.5])
        snap = take_snapshot(problem, x_ref)

        def enumerated_bias(x):
            vs = [estimate_gradient(problem, snap, x, np.array([j]), np.array([i]))
                  for j, i in itertools.product(range(2), range(2))]
            return np.linalg.norm(np.mean(vs, axis=0) - full_gradient(problem, x))

        far = enumerated_bias(x_ref + 0.4)
        near = enumerated_bias(x_ref + 0.004)
        at = enumerated_bias(x_ref)
        assert far > 1e-6  # the estimator really is biased away from x~
        assert at <= 1e-14
        assert near <= far / 10

    def test_affine_inner_estimator_unbiased(self):
        """Constant Jacobians + quadratic outer: v_t is exactly unbiased."""
        toy = build_toy("affine", d=2, m=2, n=2, seed=2)
        snap = take_snapshot(toy, np.array([0.1, 0.2]))
        x = np.array([0.5, -0.2])
        vs = [estimate_gradient(toy, snap, x, np.array([j]), np.array([i]))
              for j, i in itertools.product(range(2), range(2))]
        np.testing.assert_allclose(np.mean(vs, axis=0), full_gradient(toy, x), atol=1e-14)


class TestUnbiasedReference:
    def test_at_reference_equals_vtilde(self, affine_toy):
        snap = take_snapshot(affine_toy, np.array([0.25, 0.0]))
        u = unbiased_reference_gradient(affine_toy, snap, snap.x_tilde, np.array([0, 2]))
        np.testing.assert_allclose(u, snap.v_tilde, atol=1e-14)

    def test_n1_exact(self):
        toy = build_toy("affine", d=2, m=3, n=1, seed=4)
        snap = take_snapshot(toy, np.zeros(2))
        x = np.array([0.1, 0.7])
        u = unbiased_reference_gradient(toy, snap, x, np.array([0]))
        np.testing.assert_allclose(u, full_gradient(toy, x), atol=1e-14)

    def test_enumerated_mean_is_gradient(self, affine_toy):
        snap = take_snapshot(affine_toy, np.zeros(2))
        x = np.array([-0.2, 0.6])
        n = affine_toy.dims.n
        mean_u = np.mean([unbiased_reference_gradient(affine_toy, snap, x, np.array([i]))
                          for i in range(n)], axis=0)
        np.testing.assert_allclose(mean_u, full_gradient(affine_toy, x), atol=1e-14)


SHIPPED_BUILDERS = {
    "identity": lambda: build_toy("identity", d=3, m=6, n=4, seed=5),
    "affine": lambda: build_toy("affine", d=3, m=6, n=4, seed=5),
    "mixed": lambda: build_toy("mixed", d=3, m=6, n=3, seed=5),
    "bellman": lambda: build_bellman(random_bellman_spec(8, 40, 0.9, seed=5)),
    "meanvar": lambda: build_mean_variance(synthetic_returns(50, 7, seed=5)),
}

MEAN_JACOBIAN_BUILDERS = {
    "meanvar-d25": lambda: build_mean_variance(synthetic_returns(2000, 25, seed=0)),
    "meanvar-d200": lambda: build_mean_variance(synthetic_returns(2000, 200, seed=7)),
    "identity": lambda: build_toy("identity", d=4, m=5, n=4, seed=3),
    "affine": lambda: build_toy("affine", d=4, m=5, n=4, seed=3),
    "mixed": lambda: build_toy("mixed", d=4, m=5, n=3, seed=3),
    "bellman-50x200": lambda: build_bellman(random_bellman_spec(50, 200, 0.9, seed=0)),
    "bellman-10x200": lambda: build_bellman(random_bellman_spec(10, 200, 0.9, seed=0)),
}


def unit_cotangent_sweep(problem, x):
    """Mean Jacobian row c as the mean VJP against e_c over all m inner maps."""
    idx = np.arange(problem.dims.m)
    return np.array([problem.inner_vjp(idx, x, e).mean(axis=0) for e in np.eye(problem.dims.k)])


def general_path(problem):
    """A copy of problem without its constant Jacobian, so snapshots sweep and
    `_vr_gradient` evaluates the inner-VJP correction."""
    general = copy.copy(problem)
    general.constant_jacobian = None
    return general


def count_inner_vjps(problem) -> list:
    """Wrap problem.inner_vjp to record each call; returns the record."""
    calls, vjp = [], problem.inner_vjp
    problem.inner_vjp = lambda *args: calls.append(args) or vjp(*args)
    return calls


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestConstantJacobians:
    """`constant_jacobian`, the one declaration of affine inner maps: it equals
    the unit-cotangent sweep bit for bit, is read-only, and its shortcut in
    `_vr_gradient` equals the general path that curved maps keep."""

    @pytest.mark.parametrize("name", sorted(SHIPPED_BUILDERS))
    def test_declaration_holds(self, name):
        problem = SHIPPED_BUILDERS[name]()
        m, d, k = problem.dims.m, problem.dims.d, problem.dims.k
        assert problem.constant_jacobian.shape == (k, d)
        assert problem.smoothness().ell_g == 0.0
        rng = np.random.default_rng(1)
        A = rng.integers(0, m, size=9)
        for u in (rng.normal(size=k), rng.normal(size=(9, k))):
            for _ in range(5):
                x, x2 = rng.uniform(-1.0, 1.0, size=(2, d)) * problem.regularizer.radius
                assert_same_bits(problem.inner_vjp(A, x, u), problem.inner_vjp(A, x2, u))

    @pytest.mark.parametrize("name", sorted(MEAN_JACOBIAN_BUILDERS))
    def test_declaration_equals_sweep_bit_for_bit(self, name):
        problem = MEAN_JACOBIAN_BUILDERS[name]()
        rng = np.random.default_rng(0)
        x = rng.uniform(-0.9, 0.9, size=problem.dims.d) * problem.regularizer.radius
        swept = unit_cotangent_sweep(problem, x)
        assert inner_mean(problem, x)[1] is problem.constant_jacobian
        assert_same_bits(problem.constant_jacobian, swept)

    def test_zero_mean_return_keeps_the_sweeps_positive_zero(self):
        # column means +0 and -0: the sweep's 0 - r_j rows average to +0 in both
        ds = ReturnsDataset(returns=np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -1.0]]),
                            labels=("a", "b", "c"))
        p = build_mean_variance(ds, radius=10.0)
        Z, swept = p.constant_jacobian, unit_cotangent_sweep(p, np.zeros(3))
        assert np.array_equal(Z, swept) and not np.any(np.signbit(Z[-1]))

    @pytest.mark.parametrize("name", ["meanvar-d25", "affine"])
    def test_writes_to_the_shared_jacobian_raise(self, name):
        problem = MEAN_JACOBIAN_BUILDERS[name]()
        x = np.zeros(problem.dims.d)
        expected = problem.constant_jacobian.copy()
        snap = take_snapshot(problem, x)
        assert snap.z_tilde is problem.constant_jacobian
        for Z in (problem.constant_jacobian, snap.z_tilde):
            with pytest.raises(ValueError, match="read-only"):
                Z += 1.0
            with pytest.raises(ValueError, match="read-only"):
                Z[0, 0] = 7.0
        assert_same_bits(problem.constant_jacobian, expected)
        assert_same_bits(unit_cotangent_sweep(problem, x), expected)
        assert_same_bits(take_snapshot(problem, x).z_tilde, expected)

    def test_curved_problem_gets_the_sweep(self):
        # g_1 = x^2, g_2 = x: the mean Jacobian (2x + 1) / 2 moves with x
        p = CurvedInnerProblem()
        for x in (np.array([0.3]), np.array([-1.7])):
            assert p.constant_jacobian is None
            _, Z = inner_mean(p, x)
            np.testing.assert_array_equal(Z, unit_cotangent_sweep(p, x))
            np.testing.assert_array_equal(Z, [[(2.0 * x[0] + 1.0) / 2.0]])

    def test_curved_problem_keeps_the_general_path(self):
        problem = CurvedInnerProblem()
        snap = take_snapshot(problem, np.array([0.4]))
        calls = count_inner_vjps(problem)
        rng = np.random.default_rng(3)
        for step in range(1, 6):
            A, B = rng.integers(0, 2, size=(2, 4))
            estimate_gradient(problem, snap, np.array([0.1 * step]), A, B)
            assert len(calls) == 2 * step

    @pytest.mark.parametrize("name", sorted(SHIPPED_BUILDERS))
    @pytest.mark.parametrize("t", [None, 40])
    def test_shortcut_matches_general_path_bit_for_bit(self, name, t):
        problem = SHIPPED_BUILDERS[name]()
        general = general_path(problem)
        problem.inner_vjp = lambda *args: pytest.fail("the shortcut evaluated an inner VJP")
        m, n, d = problem.dims.m, problem.dims.n, problem.dims.d
        rng = np.random.default_rng(2)
        shape = () if t is None else (t,)
        calls = count_inner_vjps(general)
        for _ in range(10):
            x_ref, x = rng.uniform(-0.9, 0.9, size=(2, d)) * problem.regularizer.radius
            snap = take_snapshot(general, x_ref)
            A, B = rng.integers(0, m, size=shape + (5,)), rng.integers(0, n, size=shape + (3,))
            g_t = estimate_inner(general, snap, x, A)
            before = len(calls)
            assert_same_bits(_vr_gradient(problem, snap, x, g_t, A, B),
                             _vr_gradient(general, snap, x, g_t, A, B))
            assert len(calls) == before + 2  # the general side took the inner-VJP pair
