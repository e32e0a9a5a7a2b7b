"""Tests for the oracle model: dims, full-batch quantities, smoothness."""

import tracemalloc

import numpy as np
import pytest

from compopt.baselines import run_agd
from compopt.errors import ConfigError, InfeasibleQueryError, InputError
from compopt.estimators import (_inner_estimate, _vr_gradient, draw_minibatch,
                                estimate_gradient, take_snapshot, unbiased_reference_gradient)
from compopt.harness import polish_phi_star
from compopt.problem import (ALL, ProblemDims, SmoothnessConstants, full_gradient,
                             mean_jacobian, objective, smooth_value)
from compopt.problems import (AffineQuadraticProblem, ReturnsDataset,
                              build_bellman, build_mean_variance, build_toy,
                              random_bellman_spec, synthetic_returns)
from compopt.prox import Regularizer
from compopt.solver import RunConfig
from compopt.verify import check_lemma1
from conftest import run
from test_estimators import CurvedInnerProblem, assert_same_bits


def two_asset_problem(lam=0.0):
    """The N=2, d=1 instance with returns r_1=1, r_2=3 (fraction units)."""
    ds = ReturnsDataset(returns=np.array([[1.0], [3.0]]), labels=("a",))
    return build_mean_variance(ds, lam=lam, radius=10.0)


CONTRACT_PROBLEMS = {
    "meanvar": lambda: build_mean_variance(synthetic_returns(40, 25, seed=3)),
    "bellman": lambda: build_bellman(random_bellman_spec(6, 8, 0.9, seed=3)),
    "identity": lambda: build_toy("identity", d=4, m=5, n=4, seed=3),
    "affine": lambda: build_toy("affine", d=4, m=5, n=4, seed=3),
    "mixed": lambda: build_toy("mixed", d=4, m=5, n=2, seed=3),
    "curved": CurvedInnerProblem,
}

#: every shipped class at the sizes the benchmarks and acceptance runs use
ROW_EXACT_PROBLEMS = {
    "meanvar-d25": lambda: build_mean_variance(synthetic_returns(2000, 25, seed=0)),
    "meanvar-d200": lambda: build_mean_variance(synthetic_returns(2000, 200, seed=7)),
    "bellman-50x800": lambda: build_bellman(random_bellman_spec(50, 800, 0.9, seed=0)),
    "identity": lambda: build_toy("identity", d=4, m=5, n=4, seed=3),
    "affine": lambda: build_toy("affine", d=4, m=5, n=4, seed=3),
    "mixed": lambda: build_toy("mixed", d=4, m=5, n=2, seed=3),
}


class TestIndexContract:
    @pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
    def test_int_call_is_row_of_array_call(self, name):
        problem = CONTRACT_PROBLEMS[name]()
        m, n, d, k = problem.dims.m, problem.dims.n, problem.dims.d, problem.dims.k
        same = np.testing.assert_array_equal
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, size=d) * problem.regularizer.radius
            y, Y = rng.normal(size=k), rng.normal(size=(6, k))
            A, B = rng.integers(0, m, size=7), rng.integers(0, n, size=7)
            u, U = rng.normal(size=k), rng.normal(size=(7, k))
            G = problem.inner_value(A, x)
            V, W = problem.inner_vjp(A, x, u), problem.inner_vjp(A, x, U)
            F, D = problem.outer_value(B, y), problem.outer_grad(B, y)
            assert ((G.shape, V.shape, W.shape, F.shape, D.shape)
                    == ((7, k), (7, d), (7, d), (7,), (7, k)))
            for row, j in enumerate(A):
                same(problem.inner_value(int(j), x), G[row])
                same(problem.inner_vjp(int(j), x, u), V[row])
                same(problem.inner_vjp(int(j), x, U[row]), W[row])
            for row, i in enumerate(B):
                assert np.ndim(problem.outer_value(int(i), y)) == 0
                same(problem.outer_value(int(i), y), F[row])
                same(problem.outer_grad(int(i), y), D[row])
                # idx.shape == (): the points Y broadcast against (k,) alone
                many = problem.outer_grad(np.asarray(i), Y)
                assert many.shape == (6, k)
                for t in range(6):
                    same(problem.outer_grad(int(i), Y[t]), many[t])

    @pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
    def test_trial_axis_is_stack_of_1d_calls(self, name):
        """A (t, a) index with (t, 1, k) cotangents or points returns the t
        1-D calls stacked, and so do the estimators built on the oracles."""
        problem = CONTRACT_PROBLEMS[name]()
        same = np.testing.assert_array_equal
        m, n, d, k = problem.dims.m, problem.dims.n, problem.dims.d, problem.dims.k
        rng = np.random.default_rng(2)
        x, x_ref = rng.uniform(-0.9, 0.9, size=(2, d)) * problem.regularizer.radius
        snap = take_snapshot(problem, x_ref)
        t, a = 5, 7
        A, B = rng.integers(0, m, size=(t, a)), rng.integers(0, n, size=(t, a))
        y, U, Y = rng.normal(size=k), rng.normal(size=(t, 1, k)), rng.normal(size=(t, 1, k))
        G, V = problem.inner_value(A, x), problem.inner_vjp(A, x, U)
        F, D = problem.outer_value(B, y), problem.outer_grad(B, Y)
        g_t = _inner_estimate(problem, snap, x, A)
        u_t = unbiased_reference_gradient(problem, snap, x, B)
        v_t = estimate_gradient(problem, snap, x, A, B[:, :3])
        assert ((G.shape, V.shape, F.shape, D.shape, g_t.shape, u_t.shape, v_t.shape)
                == ((t, a, k), (t, a, d), (t, a), (t, a, k), (t, k), (t, d), (t, d)))
        for r in range(t):
            same(G[r], problem.inner_value(A[r], x))
            same(V[r], problem.inner_vjp(A[r], x, U[r, 0]))
            same(F[r], problem.outer_value(B[r], y))
            same(D[r], problem.outer_grad(B[r], Y[r, 0]))
            same(g_t[r], _inner_estimate(problem, snap, x, A[r]))
            # u_t's and v_t's (t, k) @ Z are matrix products, one row's a
            # vector product: the same sums, possibly in another order
            np.testing.assert_allclose(u_t[r], unbiased_reference_gradient(problem, snap, x, B[r]),
                                       rtol=1e-13, atol=1e-15)
            np.testing.assert_allclose(v_t[r], estimate_gradient(problem, snap, x, A[r], B[r, :3]),
                                       rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
    def test_vjp_matches_central_differences(self, name):
        problem = CONTRACT_PROBLEMS[name]()
        m, d, k = problem.dims.m, problem.dims.d, problem.dims.k
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(5):
            x = rng.uniform(-0.9, 0.9, size=d) * problem.regularizer.radius
            u, j = rng.normal(size=k), int(rng.integers(m))
            fd = np.array([u @ (problem.inner_value(j, x + h * e)
                                - problem.inner_value(j, x - h * e)) / (2 * h)
                           for e in np.eye(d)])
            np.testing.assert_allclose(problem.inner_vjp(j, x, u), fd, rtol=1e-6)


class TestRowExactness:
    """Every index form returns a component's row bit for bit: the int call,
    an (a,) call, a (t, a) call and the all-components call `ALL`. A snapshot's
    rows stand in for every step's reference terms only because of this."""

    @pytest.mark.parametrize("name", sorted(ROW_EXACT_PROBLEMS))
    def test_every_index_form_gives_the_same_row(self, name):
        problem = ROW_EXACT_PROBLEMS[name]()
        m, n, d, k = problem.dims.m, problem.dims.n, problem.dims.d, problem.dims.k
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.9, 0.9, size=d) * problem.regularizer.radius
        y, u = rng.normal(size=(2, k))
        oracles = {"inner_value": (m, lambda idx: problem.inner_value(idx, x)),
                   "inner_vjp": (m, lambda idx: problem.inner_vjp(idx, x, u)),
                   "outer_value": (n, lambda idx: problem.outer_value(idx, y)),
                   "outer_grad": (n, lambda idx: problem.outer_grad(idx, y))}
        for label, (count, oracle) in oracles.items():
            rows = oracle(ALL)
            assert rows.shape[0] == count, label
            assert_same_bits(np.array([oracle(j) for j in range(count)]), rows)
            for shape in ((5,), (40, 5)):
                idx = rng.integers(0, count, size=shape)
                assert_same_bits(oracle(idx), rows[idx])

    @pytest.mark.parametrize("full_batch", [full_gradient, smooth_value])
    def test_full_batch_reads_a_view(self, full_batch):
        # A is (800, 50, 50), 16.0 MB: an np.arange(m) index would copy all of it
        problem = ROW_EXACT_PROBLEMS["bellman-50x800"]()
        x = np.full(problem.dims.d, 0.1)
        tracemalloc.start()
        try:
            full_batch(problem, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < problem.A.nbytes / 10


def gather_cases(problem, rng):
    """(A, B) pairs whose sizes fall below, at and above m and n: single
    steps, (3, a) stacks, and a = m, b = n as np.arange, the enumeration of
    the deterministic contraction config."""
    m, n = problem.dims.m, problem.dims.n
    for a, b in zip((max(1, m - 1), m, 2 * m + 1), (max(1, n - 1), n, 2 * n + 1)):
        yield rng.integers(0, m, size=a), rng.integers(0, n, size=b)
        yield rng.integers(0, m, size=(3, a)), rng.integers(0, n, size=(3, b))
    yield np.arange(m), np.arange(n)
    yield np.tile(np.arange(m), (3, 1)), np.tile(np.arange(n), (3, 1))


def spy_on_oracles(problem):
    """Wraps the estimators' oracles on this instance; returns, per oracle,
    the list that records whether each call received `ALL`."""
    calls = {"inner_value": [], "inner_vjp": [], "outer_grad": []}
    for name, seen in calls.items():
        def spy(idx, *args, oracle=getattr(problem, name), seen=seen):
            seen.append(idx is ALL)
            return oracle(idx, *args)
        setattr(problem, name, spy)
    return calls


class TestAllComponentsGather:
    """A call whose point every index shares evaluates `ALL` once and gathers
    when its index array covers the component count; the per-index path
    (`per_index_oracles`) gives the same bits."""

    @staticmethod
    def instance(name):
        """The named problem, an rng, a point x and a snapshot at another point."""
        problem = CONTRACT_PROBLEMS[name]()
        rng = np.random.default_rng(8)
        x, x_ref = rng.uniform(-0.9, 0.9, size=(2, problem.dims.d)) * problem.regularizer.radius
        return problem, rng, x, take_snapshot(problem, x_ref)

    @pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
    def test_both_paths_give_the_same_bits(self, name, per_index_oracles):
        problem, rng, x, snap = self.instance(name)

        def estimates(A, B):
            return (_inner_estimate(problem, snap, x, A), estimate_gradient(problem, snap, x, A, B),
                    _vr_gradient(problem, snap, x, A, B),
                    unbiased_reference_gradient(problem, snap, x, B))

        for A, B in gather_cases(problem, rng):
            gathered = estimates(A, B)
            with per_index_oracles():
                per_index = estimates(A, B)
            for got, want in zip(gathered, per_index):
                assert_same_bits(got, want)

    @pytest.mark.parametrize("name", sorted(CONTRACT_PROBLEMS))
    def test_all_exactly_when_the_batch_covers_the_components(self, name):
        problem, rng, x, snap = self.instance(name)
        m, n = problem.dims.m, problem.dims.n
        calls = spy_on_oracles(problem)
        for A, B in gather_cases(problem, rng):
            # a stack's outer points and VJP cotangents differ per trial
            shared = A.ndim == 1
            for seen in calls.values():
                seen.clear()
            estimate_gradient(problem, snap, x, A, B)
            vjps = [] if problem.constant_jacobian is not None else [shared and A.size >= m] * 2
            assert calls == {"inner_value": [A.size >= m], "inner_vjp": vjps,
                             "outer_grad": [shared and B.size >= n]}
            calls["outer_grad"].clear()
            unbiased_reference_gradient(problem, snap, x, B)
            assert calls["outer_grad"] == [B.size >= n]

    def test_roster_batches_stay_per_index(self):
        # the roster's a = b = 5 of m = n = 2000, as its epochs draw them
        problem = ROW_EXACT_PROBLEMS["meanvar-d25"]()
        x = np.full(problem.dims.d, 0.1)
        snap = take_snapshot(problem, np.zeros(problem.dims.d))
        calls = spy_on_oracles(problem)
        rows_A, rows_B = draw_minibatch(2000, 2000, 5, 5, seed=0, epoch=1, iteration=np.arange(20))
        for A, B in zip(rows_A, rows_B):
            estimate_gradient(problem, snap, x, A, B)
        assert calls == {"inner_value": [False] * 20, "inner_vjp": [], "outer_grad": [False] * 20}


class TestProblemDims:
    def test_valid(self):
        dims = ProblemDims(m=2, n=3, d=4, k=5)
        assert (dims.m, dims.n, dims.d, dims.k) == (2, 3, 4, 5)

    @pytest.mark.parametrize("bad", [dict(m=0), dict(n=-1), dict(d=1.5), dict(k=0)])
    def test_invalid(self, bad):
        kwargs = dict(m=2, n=3, d=4, k=5)
        kwargs.update(bad)
        with pytest.raises(ConfigError):
            ProblemDims(**kwargs)

    @pytest.mark.parametrize("bad", [dict(m=2**32), dict(n=2**32 + 7), dict(m=np.uint64(2**63))])
    def test_index_bounds_fit_32_bit_draws(self, bad):
        kwargs = dict(m=2, n=3, d=4, k=5)
        kwargs.update(bad)
        with pytest.raises(ConfigError, match="below 2\\^32"):
            ProblemDims(**kwargs)
        kwargs.update({name: 2**32 - 1 for name in bad})
        ProblemDims(**kwargs)


class TestSmoothnessConstants:
    def test_ell_formula(self):
        c = SmoothnessConstants(L_f=3.0, ell_f=2.0, L_g=4.0, ell_g=0.5)
        assert c.ell == 3.0 * 0.5 + 16.0 * 2.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            SmoothnessConstants(L_f=-1.0, ell_f=0.0, L_g=0.0, ell_g=0.0)


class TestInnerMean:
    """The full-batch inner value g(x), inner_value(ALL, x).mean(axis=0), and its
    Jacobian, `mean_jacobian`: the exact inner quantities u_t reads."""

    def test_identity_inner(self):
        toy = AffineQuadraticProblem(np.eye(2)[None], np.zeros((1, 2)), np.zeros((1, 2)),
                                     np.ones(1), Regularizer(radius=10.0))
        x = np.array([1.0, 2.0])
        np.testing.assert_array_equal(toy.inner_value(ALL, x).mean(axis=0), [1.0, 2.0])
        np.testing.assert_array_equal(mean_jacobian(toy, x), np.eye(2))

    def test_two_asset_instance(self):
        # g = (x, -mean <r_j, x>) at x = 0.5: (0.5, -1.0); Jacobian rows (1, -2)
        p, x = two_asset_problem(), np.array([0.5])
        np.testing.assert_allclose(p.inner_value(ALL, x).mean(axis=0), [0.5, -1.0], atol=1e-15)
        np.testing.assert_allclose(mean_jacobian(p, x), [[1.0], [-2.0]], atol=1e-15)

    def test_affine_map_jacobian_constant(self):
        p = two_asset_problem()
        Z0, Z1 = mean_jacobian(p, np.array([0.0])), mean_jacobian(p, np.array([0.37]))
        np.testing.assert_array_equal(Z0, Z1)
        assert Z0 is Z1 is p.constant_jacobian

    def test_rejects_bad_shape(self):
        # u_t, the one reader of the exact inner mean, checks its point first
        p = two_asset_problem()
        snap = take_snapshot(p, np.array([0.5]))
        with pytest.raises(InputError):
            unbiased_reference_gradient(p, snap, np.zeros(3), np.array([0]))


class TestFullGradient:
    def test_scalar_square(self):
        # d=k=1, g(x)=x, f(y)=y^2 at x=3 -> 6
        toy = AffineQuadraticProblem(np.eye(1)[None], np.zeros((1, 1)), np.zeros((1, 1)),
                                     np.ones(1), Regularizer(radius=10.0))
        np.testing.assert_allclose(full_gradient(toy, np.array([3.0])), [6.0], atol=1e-12)

    def test_two_asset_matches_fd(self):
        p = two_asset_problem()
        x = np.array([0.5])
        h = 1e-6
        fd = (smooth_value(p, x + h) - smooth_value(p, x - h)) / (2 * h)
        analytic = full_gradient(p, x)[0]
        assert abs(fd - analytic) / max(abs(analytic), 1e-12) <= 1e-6


class TestObjective:
    def test_two_asset_value(self):
        # direct formula: (1/2) sum (<r_i,x> - mean)^2 - mean = 0.25 - 1.0
        p = two_asset_problem(lam=0.0)
        assert objective(p, np.array([0.5])) == pytest.approx(-0.75, abs=1e-14)

    def test_l1_term_added(self):
        p0 = two_asset_problem(lam=0.0)
        p1 = two_asset_problem(lam=1.0)
        x = np.array([0.5])
        assert objective(p1, x) == pytest.approx(objective(p0, x) + 0.5, abs=1e-14)

    def test_infeasible_raises(self):
        p = two_asset_problem()
        with pytest.raises(InfeasibleQueryError):
            objective(p, np.array([11.0]))

    @pytest.mark.parametrize("x", [[np.nan], [np.inf], [11.0, 0.5], [[0.5]]], ids=str)
    def test_bad_point_is_input_error_before_the_box(self, x):
        with pytest.raises(InputError):
            objective(two_asset_problem(), np.array(x))


class TestLipschitzBounds:
    def test_meanvar_zero_returns(self):
        ds = ReturnsDataset(returns=np.zeros((3, 2)), labels=("a", "b"))
        c = build_mean_variance(ds, lam=0.0).smoothness()
        assert c.L_g == 1.0 and c.ell_g == 0.0 and c.ell_f == 2.0
        assert c.ell == 2.0

    def test_meanvar_two_asset_closed_form(self):
        # r=(1),(3): L_g = sqrt(10), ell_f = 2*10 = 20, ell = 10*20 = 200
        ds = ReturnsDataset(returns=np.array([[1.0], [3.0]]), labels=("a",))
        c = build_mean_variance(ds, radius=1.0).smoothness()
        assert c.ell_g == 0.0
        assert c.L_g == pytest.approx(np.sqrt(10.0), abs=1e-14)
        assert c.ell_f == pytest.approx(20.0, abs=1e-14)
        assert c.ell == pytest.approx(200.0, abs=1e-12)

    def test_constants_are_computed_once_at_construction(self):
        for problem in (build_mean_variance(ReturnsDataset(np.array([[1.0], [3.0]]), ("a",))),
                        build_toy("mixed", d=3, m=4, n=2, seed=1)):
            c = problem.smoothness()
            assert problem.smoothness() is c
            assert c == problem._smoothness and c.ell > 0.0

    def test_uncertified_problem_fails_every_reader_of_ell(self):
        problem = CurvedInnerProblem()  # defines no smoothness()
        snapshot = take_snapshot(problem, np.zeros(1))
        readers = [
            problem.smoothness,
            lambda: polish_phi_star(problem, 100 * 4),
            lambda: run(run_agd, problem, RunConfig(S=1), np.zeros(1), 40),
            lambda: check_lemma1(problem, snapshot, np.ones(1), a=2, b=2, trials=10),
        ]
        for read in readers:
            with pytest.raises(ConfigError, match="CurvedInnerProblem"):
                read()


class TestConvexityFixture:
    def test_mixed_toy_midpoint_convexity(self):
        """F passes a sampled midpoint-convexity test while f_2 o g fails it."""
        toy = build_toy("mixed", d=2, m=3, n=3, seed=3, radius=5.0)
        rng = np.random.default_rng(0)

        def f2_comp(x):
            return toy.outer_value(1, toy.inner_value(np.arange(3), x).mean(axis=0))

        f_convex_ok = True
        f2_nonconvex_seen = False
        for _ in range(10_000):
            x, y = rng.uniform(-1.0, 1.0, size=(2, 2))
            mid = 0.5 * (x + y)
            if smooth_value(toy, mid) > 0.5 * (smooth_value(toy, x) + smooth_value(toy, y)) + 1e-12:
                f_convex_ok = False
            if f2_comp(mid) > 0.5 * (f2_comp(x) + f2_comp(y)) + 1e-12:
                f2_nonconvex_seen = True
        assert f_convex_ok
        assert f2_nonconvex_seen
