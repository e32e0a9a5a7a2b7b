"""l1 regularizer restricted to a centered box, and its exact proximal map."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleQueryError

# Absolute slack when testing box membership, to tolerate rounding in callers
# that project numerically rather than by clipping.
_BOX_TOL = 1e-12
# the ufuncs of prox_step, which runs once per solver step, bound once
_abs, _maximum, _minimum, _copysign = np.abs, np.maximum, np.minimum, np.copysign


@dataclass(frozen=True)
class Regularizer:
    """r(x) = lam * ||x||_1 plus the indicator of the box [-radius, radius]^d."""

    lam: float = 0.0
    radius: float = 1.0

    def __post_init__(self):
        if self.lam < 0 or not np.isfinite(self.lam):
            raise ConfigError(f"l1 weight must be finite and nonnegative, got {self.lam}")
        if self.radius <= 0 or not np.isfinite(self.radius):
            raise ConfigError(f"box radius must be finite and positive, got {self.radius}")

    def contains(self, x) -> bool:
        return bool(np.abs(np.asarray(x, dtype=float)).max(initial=0.0)
                    <= self.radius * (1.0 + _BOX_TOL) + _BOX_TOL)


def prox_step(reg: Regularizer, x, eta: float):
    """Exact prox of r at x with parameter eta.

    The objective lam*||y||_1 + ||y - x||^2 / (2*eta) over the box is separable,
    so soft-thresholding by eta*lam followed by clipping is the exact minimizer.
    x holds at least one dimension. Each output lies in [-radius, radius], or
    is NaN where x is, and takes the sign of x + 0.0, so x = -0.0 maps to +0.0.
    """
    if eta <= 0:
        raise ConfigError(f"prox step size must be positive, got {eta}")
    x = np.asarray(x, dtype=float)
    out = _abs(x)
    out -= eta * reg.lam
    _maximum(out, 0.0, out=out)
    _minimum(out, reg.radius, out=out)
    return _copysign(out, x + 0.0, out=out)


def reg_value(reg: Regularizer, x) -> float:
    """lam * ||x||_1 for feasible x; infeasible queries raise."""
    abs_x = np.abs(np.asarray(x, dtype=float))
    if not reg.contains(abs_x):  # |x| lies in the box exactly when x does
        raise InfeasibleQueryError(
            f"point with max |x_i| = {abs_x.max():g} is outside the box of radius {reg.radius:g}"
        )
    return float(reg.lam * np.add.reduce(abs_x))
