"""Tests for snapshots, seeded draws, and the control-variate estimators."""

import copy
import itertools
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from compopt import estimators
from compopt.errors import ConfigError
from compopt.estimators import (_inner_estimate, _vr_gradient, draw_minibatch,
                                estimate_gradient, minibatch_rng, take_snapshot,
                                unbiased_reference_gradient)
from compopt.problem import (ALL, CompositionProblem, ProblemDims, full_gradient,
                             mean_jacobian)
from compopt.problems import (AffineQuadraticProblem, build_bellman, build_mean_variance,
                              build_toy, synthetic_returns)
from compopt.prox import Regularizer
from compopt.solver import RunConfig
from conftest import epoch_runner, key_seeded_rng, run

SRC = Path(__file__).resolve().parents[1] / "src"


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
    """The samples column of one k-step epoch from 0, a row per step, under a
    budget that pays for exactly that epoch."""
    m, n = problem.dims.m, problem.dims.n
    _, rows = run(epoch_runner(k), problem, RunConfig(S=1, a=a, b=b), np.zeros(problem.dims.d),
                  m + n + k * (a + b), every=1)
    return [row.samples for row in rows]


#: an estimate at x = x~ is the snapshot's bit for bit on each of these
FIXED_POINT_BUILDERS = {
    "affine": lambda: build_toy("affine", d=2, m=3, n=3, seed=0),
    "meanvar-d25": lambda: build_mean_variance(synthetic_returns(2000, 25, seed=0)),
    "bellman-50x800": lambda: build_bellman(50, 800, 0.9, seed=0),
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

    @pytest.mark.parametrize("seed", ["3", 1.5, True, False, None, np.float64(2.0),
                                      np.bool_(True), [3]])
    def test_non_integer_seed_raises(self, seed):
        # int() would take "3" and 1.5, and a bool is an int: each would run
        # another seed's draws under its own name
        with pytest.raises(TypeError, match="seed must be an integer"):
            minibatch_rng(seed, 0, 0)
        with pytest.raises(TypeError, match="seed must be an integer"):
            draw_minibatch(5, 5, 2, 2, seed, 0, np.arange(3))

    @pytest.mark.parametrize("seed", [np.int64(-3), np.int32(7), np.uint8(200),
                                      np.uint64(2**63 - 1)])
    def test_numpy_integer_seed_draws_as_its_int(self, seed):
        np.testing.assert_array_equal(minibatch_rng(seed, 1, 2).integers(0, 100, 10),
                                      minibatch_rng(int(seed), 1, 2).integers(0, 100, 10))
        for got, want in zip(draw_minibatch(7, 5, 3, 2, seed, 1, np.arange(4)),
                             draw_minibatch(7, 5, 3, 2, int(seed), 1, np.arange(4))):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [0, -1, 2**62 - 1, 2**63 - 1, -2**63,
                                      *np.random.default_rng(22).integers(
                                          -2**63, 2**63 - 1, size=4, endpoint=True).tolist()])
    def test_draws_match_key_seeded_philox(self, seed):
        # the seed object gives the generator Philox(key=...) builds: 20
        # bounded 32-bit draws run past one 4-word block (8 uint32s), then
        # 64-bit bounded draws and doubles continue the same stream
        counters = np.random.default_rng(seed % 2**32).integers(0, 2**64, size=(6, 3),
                                                               dtype=np.uint64)
        for epoch, iteration, stream in counters.tolist():
            got = minibatch_rng(seed, epoch, iteration, stream)
            want = key_seeded_rng(seed, epoch, iteration, stream)
            np.testing.assert_array_equal(got.integers(0, 1000, size=20),
                                          want.integers(0, 1000, size=20))
            np.testing.assert_array_equal(got.integers(0, 2**40 + 7, size=5),
                                          want.integers(0, 2**40 + 7, size=5))
            np.testing.assert_array_equal(got.random(5), want.random(5))

    def test_live_generators_of_one_seed_draw_independently(self):
        # every generator of the seed shares its cached key object
        live = [minibatch_rng(-4, 1, t, 2) for t in (5, 6)]
        fresh = [key_seeded_rng(-4, 1, t, 2) for t in (5, 6)]
        for size in (3, 1, 9, 2):
            for got, want in zip(live, fresh):
                np.testing.assert_array_equal(got.integers(0, 1000, size),
                                              want.integers(0, 1000, size))

    def test_key_object_is_cached_read_only_and_bounded(self):
        key = minibatch_rng(9, 0, 1).bit_generator.seed_seq
        assert minibatch_rng(np.int8(9), 3, 4, 1).bit_generator.seed_seq is key
        state = key.generate_state(2, np.uint64)
        assert state.tolist() == [9, 0] and not state.flags.writeable
        with pytest.raises(ValueError):
            state[0] = 1
        maxsize = estimators._seeded.cache_info().maxsize
        assert maxsize is not None
        for seed in range(-maxsize, maxsize):
            minibatch_rng(seed, 0, 0)
        assert estimators._seeded.cache_info().currsize == maxsize

    def test_counter_words_are_exact_uint64(self):
        # a list counter would be read through float64: 2^63 + 3 would draw
        # as 2^63, 2^64 - 1 would warn and draw as 0, and -1 would wrap
        for iteration, want in ((2**63 + 3, [875, 22, 111]), (2**64 - 1, [552, 552, 528])):
            assert minibatch_rng(9, 5, iteration).integers(0, 1000, 3).tolist() == want
            assert draw_minibatch(1000, 7, 3, 2, 9, 5, [iteration])[0].tolist() == [want]
        for epoch, iteration in ((-1, 0), (0, -1)):
            with pytest.raises(OverflowError):
                minibatch_rng(0, epoch, iteration)
            with pytest.raises(OverflowError):
                draw_minibatch(5, 5, 2, 2, 0, epoch, [iteration])
        with pytest.raises(OverflowError):
            minibatch_rng(0, 0, 0, stream=-1)

    def test_generator_pickles(self):
        rng = minibatch_rng(-5, 3, 9, 2)
        rng.integers(0, 100, size=3)  # mid-block, with a buffered uint32
        copy_ = pickle.loads(pickle.dumps(rng))
        np.testing.assert_array_equal(copy_.integers(0, 100, size=12),
                                      rng.integers(0, 100, size=12))

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random lazily; the resident set of a process
        # that imports every compopt module (cli does) stays smaller while
        # nothing draws. The first draw then loads it and yields the
        # key-seeded Philox draws.
        code = ("import compopt.cli; loaded = 'numpy.random' in sys.modules; "
                "print(loaded, compopt_modules(), "
                "compopt.estimators.minibatch_rng(-3, 1, 2, 1).integers(0, 10**6, 9).tolist())")
        every = ["compopt"] + [f"compopt.{f.stem}" for f in (SRC / "compopt").glob("*.py")
                               if f.stem != "__init__"]
        draws = key_seeded_rng(-3, 1, 2, 1).integers(0, 10**6, 9).tolist()
        assert fresh_python(code) == f"False {sorted(every)} {draws}"


def fresh_python(code: str) -> str:
    """The stripped stdout of `code` run in a new interpreter on this src tree,
    where compopt_modules() lists the compopt modules loaded, sorted."""
    code = ("import sys\ndef compopt_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'compopt')\n" + code)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


class TestImportGraph:
    def test_a_module_loads_only_what_it_imports(self):
        # the package re-exports nothing, so importing one module loads only
        # the modules it imports, not the whole package
        assert fresh_python("import compopt.problems; print(*compopt_modules())").split() == [
            "compopt", "compopt.errors", "compopt.problem", "compopt.problems", "compopt.prox"]
        loaded = fresh_python("import compopt.solver; print(*compopt_modules())").split()
        assert "compopt.solver" in loaded
        assert not {"compopt.baselines", "compopt.harness", "compopt.verify",
                    "compopt.cli"} & set(loaded)


def reference_rows(seed, epoch, steps, stream, bound, size):
    """The per-step reference draws draw_minibatch must reproduce."""
    return np.array([minibatch_rng(seed, epoch, int(t), stream).integers(0, bound, size)
                     for t in steps])


class TestDrawMinibatch:
    def test_shapes_and_ranges(self):
        A, B = draw_minibatch(m=7, n=4, a=5, b=3, seed=0, epoch=1, iteration=[2])
        assert A.shape == (1, 5) and B.shape == (1, 3)
        assert np.all((0 <= A) & (A < 7))
        assert np.all((0 <= B) & (B < 4))

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            draw_minibatch(3, 3, 0, 1, 0, 0, [0])

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
                A, B = draw_minibatch(m, int(n), a, b, seed, epoch, steps)
                assert A.shape == (12, a) and B.shape == (12, b)
                assert A.dtype == B.dtype == np.int64
                np.testing.assert_array_equal(A, reference_rows(seed, epoch, steps, 0, m, a))
                np.testing.assert_array_equal(B, reference_rows(seed, epoch, steps, 1, n, b))

    def test_int_iteration_is_one_row(self):
        draw = draw_minibatch(1000, 17, 93, 5, -3, 2, 41)
        rows = draw_minibatch(1000, 17, 93, 5, -3, 2, np.array([40, 41]))
        np.testing.assert_array_equal(draw[0], rows[0][1:])
        np.testing.assert_array_equal(draw[1], rows[1][1:])

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
        A, B = draw_minibatch(m, 3, 4, 2, 11, 1, steps)
        assert any(stream == 0 for _, _, stream in calls)
        np.testing.assert_array_equal(A, reference_rows(11, 1, steps, 0, m, 4))
        np.testing.assert_array_equal(B, reference_rows(11, 1, steps, 1, 3, 2))

    def test_bound_above_2_32_is_refused(self):
        # draws are 32-bit, and ProblemDims keeps m and n below 2^32
        for m, n in ((2**32 + 1, 3), (3, 2**32 + 5)):
            with pytest.raises(ConfigError, match="at most 2\\^32"):
                draw_minibatch(m, n, 6, 6, -9, 3, np.arange(4))
        # a bound of exactly 2^32 takes each uint32 as it is and never rejects
        steps = np.arange(4)
        A, B = draw_minibatch(5, 2**32, 6, 6, -9, 3, steps)
        np.testing.assert_array_equal(B, reference_rows(-9, 3, steps, 1, 2**32, 6))

    def test_epoch_per_row_matches_reference_rows(self):
        epochs, steps = np.array([1, 1, 2, 2, 7]), np.array([18, 19, 0, 1, 0])
        A, B = draw_minibatch(1000, 17, 93, 5, -3, epochs, steps)
        for row, (epoch, step) in enumerate(zip(epochs, steps)):
            np.testing.assert_array_equal(A[row], reference_rows(-3, epoch, [step], 0, 1000, 93)[0])
            np.testing.assert_array_equal(B[row], reference_rows(-3, epoch, [step], 1, 17, 5)[0])

    def test_philox_kernel_overwrites_counters_with_numpys_blocks(self):
        # counter words stay below 2^63: from there on, numpy reads a list
        # counter's words through float64
        rng = np.random.default_rng(3)
        counters = rng.integers(1, 2**63, size=(4, 9), dtype=np.uint64)
        for key in (0, 2**64 - 1, int(rng.integers(0, 2**63))):
            work = counters.copy()
            assert estimators._philox_blocks(key, work) is work
            for col, ctr in enumerate(counters.T.tolist()):
                # numpy's Philox advances its counter before each block
                philox = np.random.Philox(key=key, counter=[ctr[0] - 1] + ctr[1:])
                assert work[:, col].tolist() == philox.random_raw(4).tolist()

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

    @pytest.mark.parametrize("bounds", [
        (2000, 77, 2000), (1,), (1, 5, 1, 1, 3), (2**32, 7, 2**32), (2**32 - 1, 2),
        (2, 3 * 2**30, 1), (2**31 + 1, 2**31 + 1, 5), (1, 2**32, 2**31 - 1)])
    def test_raw_word_draws_match_consecutive_integers(self, bounds):
        # a bound of 1 takes no uint32, as in numpy, and 2^31 + 1 rejects about
        # half of all uint32s
        for seed, t in itertools.product((0, -3), range(100)):
            rng = minibatch_rng(seed, 0, t, stream=2)
            want = [int(rng.integers(bound)) for bound in bounds]
            got = estimators._scalar_draws(minibatch_rng(seed, 0, t, stream=2), bounds)
            assert got == want and all(type(v) is int for v in got)

    def test_raw_word_draws_take_the_next_uint32_after_a_rejection(self):
        # (2^32 - 3 * 2^30) % (3 * 2^30) = 2^30: a quarter of all uint32s are rejected
        bound, steps = 3 * 2**30, np.arange(200)
        (u,) = estimators._uint32_draws(estimators._seed_key(5), 0, steps.astype(np.uint64),
                                        ((2, 3),))
        assert 0.15 < estimators._lemire(u, bound)[1].mean() < 0.35
        for t in steps:
            rng = minibatch_rng(5, 0, int(t), stream=2)
            want = [int(rng.integers(bound)) for _ in range(3)]
            assert estimators._scalar_draws(minibatch_rng(5, 0, int(t), stream=2),
                                            (bound,) * 3) == want


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
    """g_t, which `_inner_estimate` computes for every step and every
    Monte-Carlo trial."""

    def test_fixed_point_at_reference(self):
        for name, problem, snap, (rows_A, _) in fixed_point_cases():
            for A in (rows_A[0], rows_A):  # one step, and a (t, a) stack
                g_t = _inner_estimate(problem, snap, snap.x_tilde, A)
                np.testing.assert_array_equal(g_t, np.broadcast_to(snap.g_tilde, g_t.shape),
                                              err_msg=name)

    def test_full_enumeration_exact_on_affine(self, affine_toy):
        snap = take_snapshot(affine_toy, np.zeros(2))
        x = np.array([0.5, -0.2])
        g_t = _inner_estimate(affine_toy, snap, x, np.arange(affine_toy.dims.m))
        g_exact = affine_toy.inner_value(ALL, x).mean(axis=0)
        np.testing.assert_allclose(g_t, g_exact, atol=1e-14)

    def test_enumerated_mean_equals_inner_mean(self, affine_toy):
        # all m^a draws for a=1 average to g(x) exactly
        snap = take_snapshot(affine_toy, np.zeros(2))
        x = np.array([0.4, 0.3])
        m = affine_toy.dims.m
        mean_g = np.mean([_inner_estimate(affine_toy, snap, x, np.array([j]))
                          for j in range(m)], axis=0)
        g_exact = affine_toy.inner_value(ALL, x).mean(axis=0)
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
        for name, problem, snap, (A, B) in fixed_point_cases():
            for t in range(20):
                v = estimate_gradient(problem, snap, snap.x_tilde, A[t], B[t])
                np.testing.assert_array_equal(v, snap.v_tilde, err_msg=name)
            v = estimate_gradient(problem, snap, snap.x_tilde, A, B)
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

    @pytest.mark.parametrize("estimate, A, B, message", [
        (estimate_gradient, [[0]], [[]], "outer minibatch B must be nonempty"),
        (estimate_gradient, [[]], [[0]], "inner minibatch A must be nonempty"),
        (unbiased_reference_gradient, None, [[]], "outer minibatch B must be nonempty"),
    ], ids=["v_t-empty-B", "v_t-empty-A", "u_t-empty-B"])
    def test_rejects_empty_minibatch(self, affine_toy, estimate, A, B, message):
        snap = take_snapshot(affine_toy, np.zeros(2))
        draws = (B,) if A is None else (A, B)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            estimate(affine_toy, snap, np.zeros(2), *(np.array(d, dtype=int) for d in draws))

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

    def test_passed_reference_mean_changes_no_bit(self, affine_toy):
        snap = take_snapshot(affine_toy, np.zeros(2))
        x, B = np.array([-0.2, 0.6]), np.array([[0, 2, 2], [1, 1, 0]])
        u = unbiased_reference_gradient(affine_toy, snap, x, B)
        df_ref = estimators._reference_mean(snap, B)
        assert unbiased_reference_gradient(affine_toy, snap, x, B, df_ref).tobytes() == u.tobytes()


SHIPPED_BUILDERS = {
    "identity": lambda: build_toy("identity", d=3, m=6, n=4, seed=5),
    "affine": lambda: build_toy("affine", d=3, m=6, n=4, seed=5),
    "mixed": lambda: build_toy("mixed", d=3, m=6, n=3, seed=5),
    "bellman": lambda: build_bellman(8, 40, 0.9, seed=5),
    "meanvar": lambda: build_mean_variance(synthetic_returns(50, 7, seed=5)),
}

MEAN_JACOBIAN_BUILDERS = {
    "meanvar-d25": lambda: build_mean_variance(synthetic_returns(2000, 25, seed=0)),
    "meanvar-d200": lambda: build_mean_variance(synthetic_returns(2000, 200, seed=7)),
    "identity": lambda: build_toy("identity", d=4, m=5, n=4, seed=3),
    "affine": lambda: build_toy("affine", d=4, m=5, n=4, seed=3),
    "mixed": lambda: build_toy("mixed", d=4, m=5, n=3, seed=3),
    "bellman-50x200": lambda: build_bellman(50, 200, 0.9, seed=0),
    "bellman-10x200": lambda: build_bellman(10, 200, 0.9, seed=0),
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
        assert mean_jacobian(problem, x) is problem.constant_jacobian
        assert_same_bits(problem.constant_jacobian, swept)

    def test_zero_mean_return_keeps_the_sweeps_positive_zero(self):
        # column means +0 and -0: the sweep's 0 - r_j rows average to +0 in both
        p = build_mean_variance(np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -1.0]]), radius=10.0)
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
            Z = mean_jacobian(p, x)
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
            before = len(calls)
            assert_same_bits(_vr_gradient(problem, snap, x, A, B),
                             _vr_gradient(general, snap, x, A, B))
            assert len(calls) == before + 2  # the general side took the inner-VJP pair
