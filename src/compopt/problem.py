"""Oracle model for two-level composition objectives.

The objective is Phi(x) = F(x) + r(x) with

    F(x) = (1/n) sum_i f_i( (1/m) sum_j g_j(x) ),

where each g_j maps R^d -> R^k and each f_i maps R^k -> R. Problems expose
four index-batched oracles for g_j, its vector-Jacobian product, f_i and its
gradient, and closed-form smoothness constants on the regularizer's box; the
full-batch means, gradients and objective values are derived here, each from
one call with the all-components index `ALL`, which copies no data. A problem
whose inner maps are all affine sets `constant_jacobian` to its mean inner
Jacobian, which then does not depend on x: every snapshot shares that array,
and the estimators skip the Jacobian correction against the snapshot, which
is exactly zero. Otherwise the snapshot builds the mean Jacobian from k
unit-cotangent VJP sweeps over all m inner maps.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, is_integer
from .prox import Regularizer, reg_value

#: the all-components index: every oracle reads it as a view of its data
ALL = slice(None)


@dataclass(frozen=True)
class ProblemDims:
    """Problem sizes: m inner maps, n outer functions, decision dim d, inner output dim k."""

    m: int
    n: int
    d: int
    k: int

    def __post_init__(self):
        for name in ("m", "n", "d", "k"):
            v = getattr(self, name)
            if not is_integer(v) or v <= 0:
                raise ConfigError(f"dimension {name} must be a positive integer, got {v!r}")
        if max(self.m, self.n) >= 2**32:  # minibatch draws are 32-bit
            raise ConfigError(f"m and n must be below 2^32, got m={self.m}, n={self.n}")


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz data for the outer/inner maps.

    L_f, ell_f: value/gradient Lipschitz constants of the f_i.
    L_g, ell_g: value/Jacobian Lipschitz constants of the g_j.
    The gradient-Lipschitz constant of F is derived, never stored.
    """

    L_f: float
    ell_f: float
    L_g: float
    ell_g: float

    def __post_init__(self):
        for name in ("L_f", "ell_f", "L_g", "ell_g"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigError(f"smoothness constant {name} must be finite and nonnegative, got {v}")

    @property
    def ell(self) -> float:
        """Gradient-Lipschitz constant of the composed F."""
        return self.L_f * self.ell_g + self.L_g**2 * self.ell_f


class CompositionProblem:
    """Base class bundling the component oracles, regularizer and dimensions.

    Subclasses implement four oracles over an index `idx` that is an int, an
    index array of any shape, or `ALL` (slice(None)); each index it holds is
    one oracle sample. An int evaluates one component and returns one row:
    shape (k,) for an inner value, (d,) for a vector-Jacobian product, a
    scalar for an outer value. An array returns one row per index, shape
    idx.shape + (k,), and so on; `ALL` returns every row in order, as
    np.arange(m) (or n) would, but reads the problem's data as a view. The
    cotangent `u` of `inner_vjp` and the point `y` of `outer_grad` broadcast
    against idx.shape + (k,): one shared (k,) row, one row per index, or a
    (t, 1, k) stack shared along the last axis of a (t, a) index. Oracles
    must be pure and row-exact: a (component, point) pair gives the same bits
    under every index form, since a snapshot's rows stand in for every step's
    reference terms. So each component gets its own dot or matrix-vector
    product: a BLAS product's rows can differ from the one-row call's.
    """

    #: known optimum, if the builder can certify one (used by verification)
    x_star = None
    phi_star = None
    #: (1/m) sum_j dg_j, shape (k, d), read-only, set when every g_j is affine
    constant_jacobian = None
    _smoothness = None

    def __init__(self, dims: ProblemDims, regularizer: Regularizer):
        self.dims = dims
        self.regularizer = regularizer
        #: dataset-size normalizer for trace x-axes; builders may override
        self.N = max(dims.m, dims.n)

    def inner_value(self, idx, x) -> np.ndarray:
        """g_j(x) for j in idx: shape idx.shape + (k,)."""
        raise NotImplementedError

    def inner_vjp(self, idx, x, u) -> np.ndarray:
        """dg_j(x)^T u for j in idx: the broadcast shape of idx.shape + (k,)
        and u.shape, with last axis d."""
        raise NotImplementedError

    def outer_value(self, idx, y):
        """f_i(y) for i in idx: shape idx.shape."""
        raise NotImplementedError

    def outer_grad(self, idx, y) -> np.ndarray:
        """Gradient of f_i at y for i in idx: the broadcast shape of
        idx.shape + (k,) and y.shape."""
        raise NotImplementedError

    def smoothness(self) -> SmoothnessConstants:
        """Closed-form SmoothnessConstants on the box |x_c| <= regularizer.radius:
        certified upper bounds, since every reader of ell relies on them. A
        subclass sets them once, from its data, in __init__ (`_smoothness`)."""
        if self._smoothness is None:
            raise ConfigError(f"{type(self).__name__} does not certify its smoothness "
                              "constants: override smoothness()")
        return self._smoothness


def check_point(problem: CompositionProblem, x) -> np.ndarray:
    """x as a float (d,) array; InputError for another shape or a non-finite entry."""
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.dims.d,):
        raise InputError(f"expected point of shape ({problem.dims.d},), got {x.shape}")
    if not np.isfinite(x).all():
        raise InputError("point contains non-finite entries")
    return x


def start_point(problem: CompositionProblem, x0) -> np.ndarray:
    """A run's first iterate: check_point(x0) copied; InputError outside the box."""
    x = check_point(problem, x0).copy()
    if not problem.regularizer.contains(x):
        raise InputError("initial point is outside the feasible box")
    return x


def _row_mean(rows: np.ndarray) -> np.ndarray:
    """rows.mean(axis=0) bit for bit, by its reduce and division without its wrapper."""
    return np.add.reduce(rows, axis=0) / len(rows)


def mean_jacobian(problem: CompositionProblem, x) -> np.ndarray:
    """(1/m) sum_j dg_j(x), shape (k, d): the problem's read-only
    `constant_jacobian` when it sets one; else row c is the mean VJP against
    e_c, one (m, d) sweep per row."""
    Z = problem.constant_jacobian
    if Z is None:
        Z = np.array([_row_mean(problem.inner_vjp(ALL, x, e)) for e in np.eye(problem.dims.k)])
    return Z


def full_gradient(problem: CompositionProblem, x) -> np.ndarray:
    """Exact gradient of F via the chain rule: one VJP sweep over all m inner
    maps, (1/m) sum_j dg_j(x)^T mean_i grad f_i(g(x))."""
    x = check_point(problem, x)
    g = _row_mean(problem.inner_value(ALL, x))
    return _row_mean(problem.inner_vjp(ALL, x, _row_mean(problem.outer_grad(ALL, g))))


def smooth_value(problem: CompositionProblem, x) -> float:
    """F(x) without the regularizer; no feasibility requirement."""
    x = check_point(problem, x)
    return float(_row_mean(problem.outer_value(ALL, _row_mean(problem.inner_value(ALL, x)))))


def objective(problem: CompositionProblem, x) -> float:
    """Phi(x) = F(x) + r(x); raises InfeasibleQueryError outside the box."""
    F = smooth_value(problem, x)  # raises InputError for a bad point
    return F + reg_value(problem.regularizer, x)
