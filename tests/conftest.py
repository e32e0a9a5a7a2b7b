"""Shared test helpers."""

import contextlib

import numpy as np
import pytest

from compopt import baselines, estimators, solver
from compopt.estimators import _seed_key
from compopt.trace import Recorder


def run(runner, problem, config, x0, budget, phi_star=None, every=None):
    """Run `runner(problem, config, x0, recorder)` on a Recorder of its own,
    as the harness does; returns what the runner returned (the final iterate,
    or run_scvrg's result) and the recorder's rows."""
    recorder = Recorder(problem, budget, phi_star, every)
    return runner(problem, config, x0, recorder), recorder.rows


def epoch_runner(k, l=0, epoch_index=1):
    """A runner for `run` that starts its recorder at x0 and runs one k-step
    epoch from x0 with its snapshot there, drawing that epoch's minibatches
    alone; returns the epoch's record."""
    def runner(problem, config, x0, recorder):
        recorder.start("scvrg", config.seed, x0)
        minibatches = solver._minibatches(problem, config, [(epoch_index, k)],
                                          recorder.budget - recorder.samples)
        return solver.run_epoch(problem, x0, x0, k, l, config, epoch_index, recorder,
                                minibatches)
    return runner


def key_seeded_rng(seed, epoch, iteration, stream=0):
    """minibatch_rng's generator as numpy's `Philox(key=...)` builds it. The
    counter is a uint64 array: numpy reads a list's words through float64."""
    counter = np.array([0, epoch, iteration, stream], dtype=np.uint64)
    philox = np.random.Philox(key=_seed_key(seed), counter=counter)
    return np.random.Generator(philox)


@pytest.fixture
def per_index_oracles(monkeypatch):
    """A context manager inside which every estimator oracle call takes the
    per-index path, never the all-components call and gather: the reference
    that path must match bit for bit."""
    @contextlib.contextmanager
    def per_index():
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_gathered",
                          lambda idx, count, oracle, *args: oracle(idx, *args))
            yield
    return per_index


@pytest.fixture
def generator_draws(monkeypatch):
    """A context manager inside which SCGD and ASC-PG take each step's
    indices from consecutive `rng.integers` calls, never from raw Philox
    words: the reference that path must match bit for bit."""
    @contextlib.contextmanager
    def per_call():
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "_scalar_draws",
                          lambda rng, bounds: [int(rng.integers(b)) for b in bounds])
            yield
    return per_call
