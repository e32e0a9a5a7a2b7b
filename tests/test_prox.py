"""Unit tests for the l1-plus-box regularizer and its proximal map."""

import numpy as np
import pytest

from compopt import prox
from compopt.errors import ConfigError, InfeasibleQueryError
from compopt.prox import Regularizer, prox_step, reg_value


def numeric_prox_1d(lam, radius, x, eta):
    """Independent 1-D oracle: minimize lam*|y| + (y-x)^2/(2*eta) over [-R, R].

    Bisects the derivative on each smooth branch (the objective is convex and
    piecewise quadratic with a single kink at 0), then picks the best of the
    branch roots and the kink/boundary candidates. Direct objective search
    (e.g. golden section) stalls at sqrt(eps) accuracy on the flat bottom.
    """

    def obj(y):
        return lam * abs(y) + (y - x) ** 2 / (2.0 * eta)

    candidates = [-radius, radius, 0.0]
    for sgn, lo, hi in ((1.0, 0.0, radius), (-1.0, -radius, 0.0)):
        deriv = lambda y: (y - x) / eta + lam * sgn
        if deriv(lo) < 0.0 < deriv(hi):
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if deriv(mid) < 0.0:
                    lo = mid
                else:
                    hi = mid
            candidates.append(0.5 * (lo + hi))
    return min(candidates, key=obj)


class TestRegularizer:
    def test_rejects_negative_lambda(self):
        with pytest.raises(ConfigError):
            Regularizer(lam=-0.1)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigError):
            Regularizer(radius=0.0)

    def test_contains_box(self):
        reg = Regularizer(radius=2.0)
        assert reg.contains([1.9, -2.0])
        assert not reg.contains([2.5, 0.0])


class TestProxStep:
    def test_pure_projection(self):
        # lambda=0, R=1: prox is clipping
        reg = Regularizer(lam=0.0, radius=1.0)
        out = prox_step(reg, np.array([2.0, -0.5]), eta=1.0)
        np.testing.assert_array_equal(out, [1.0, -0.5])

    def test_soft_threshold_value(self):
        # lambda=0.5, R=10, x=2, eta=1 -> 1.5
        reg = Regularizer(lam=0.5, radius=10.0)
        out = prox_step(reg, np.array([2.0]), eta=1.0)
        np.testing.assert_allclose(out, [1.5], atol=1e-15)

    def test_zero_fixed_point(self):
        reg = Regularizer(lam=3.0, radius=0.7)
        out = prox_step(reg, np.zeros(4), eta=2.0)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ConfigError):
            prox_step(Regularizer(), np.zeros(2), eta=0.0)

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            lam = rng.uniform(0.0, 2.0)
            radius = rng.uniform(0.2, 3.0)
            eta = rng.uniform(0.01, 2.0)
            x = rng.uniform(-5.0, 5.0)
            reg = Regularizer(lam=lam, radius=radius)
            got = prox_step(reg, np.array([x]), eta)[0]
            want = numeric_prox_1d(lam, radius, x, eta)
            assert abs(got - want) <= 1e-8

    def test_nonexpansive(self):
        rng = np.random.default_rng(1)
        reg = Regularizer(lam=0.3, radius=1.5)
        for _ in range(200):
            x, y = rng.normal(size=(2, 6)) * 3.0
            eta = rng.uniform(0.01, 2.0)
            px, py = prox_step(reg, x, eta), prox_step(reg, y, eta)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def reference_prox(reg, x, eta):
    """The prox as sign(x) * max(|x| - eta*lam, 0), clipped to the box."""
    shrunk = np.sign(x) * np.maximum(np.abs(x) - eta * reg.lam, 0.0)
    return np.clip(shrunk, -reg.radius, reg.radius)


class TestProxBits:
    def test_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for trial in range(2000):
            lam = 0.0 if trial % 5 == 0 else rng.uniform(0.0, 2.0)
            reg = Regularizer(lam=lam, radius=rng.uniform(0.1, 3.0))
            eta = rng.uniform(0.01, 2.0)
            t, R = eta * lam, reg.radius
            edges = [0.0, -0.0, np.inf, -np.inf, np.nan, t, -t, 0.5 * t, -0.25 * t,
                     R, -R, R + t, -(R + t)]
            x = np.concatenate((rng.normal(0.0, 3.0, size=8), rng.choice(edges, size=8)))
            got, want = prox_step(reg, x, eta), reference_prox(reg, x, eta)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    @pytest.mark.parametrize("lam, eta", [(5e-324, 0.5), (1e-200, 1e-200), (0.0, 0.5),
                                          (5e-324, 1.0), (0.3, 0.5)])
    def test_shrink_is_skipped_exactly_when_it_rounds_to_zero(self, monkeypatch, lam, eta):
        """The shrink runs unless eta * lam is 0, also for lam > 0 whose product
        underflows: the shortcut keys on the product, not on lam, and changes
        no bit, since |x| is >= 0 or NaN already."""
        shrinks = []

        def maximum(*args, **kwargs):
            shrinks.append(None)
            return np.maximum(*args, **kwargs)

        monkeypatch.setattr(prox, "_maximum", maximum)
        reg = Regularizer(lam=lam, radius=1.5)
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 0.7, -0.7, 1.5, -1.5, 2.0, -2.0,
                      np.inf, -np.inf, np.nan, -np.nan])
        got, want = prox_step(reg, x, eta), reference_prox(reg, x, eta)
        assert len(shrinks) == (eta * lam != 0.0)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
        assert got[1].view(np.uint64) == 0  # -0.0 maps to +0.0


class TestRegValue:
    def test_l1_value(self):
        assert reg_value(Regularizer(lam=1.0, radius=5.0), [1.0, -2.0]) == 3.0

    def test_zero_lambda(self):
        assert reg_value(Regularizer(lam=0.0, radius=5.0), [1.0, -2.0]) == 0.0

    def test_infeasible_raises(self):
        reg = Regularizer(lam=1.0, radius=1.0)
        with pytest.raises(InfeasibleQueryError):
            reg_value(reg, [2.0, 0.0])
