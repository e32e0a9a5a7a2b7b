"""Concrete problem builders: sparse mean-variance portfolios from returns
data, least-squares Bellman residuals on synthetic Markov chains, and analytic
toy fixtures with certified optima."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .problem import CompositionProblem, ProblemDims, SmoothnessConstants
from .prox import Regularizer

#: raw sentinel values marking missing months in shipped returns files
MISSING_SENTINELS = (-99.99, -999.0)


def _repeat(value, idx) -> np.ndarray:
    """A copy of `value` broadcast against np.shape(idx) + (its last axis,): one
    row per index, whether `value` is one shared row or a stack of rows."""
    value = np.asarray(value, dtype=float)
    shape = np.broadcast_shapes(np.shape(idx) + value.shape[-1:], value.shape)
    return np.broadcast_to(value, shape).copy()


# ---------------------------------------------------------------------------
# returns data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnsDataset:
    """Per-period asset returns, in fraction units after loading."""

    returns: np.ndarray  # (N, d)
    labels: tuple

    @property
    def N(self) -> int:
        return self.returns.shape[0]

    @property
    def d(self) -> int:
        return self.returns.shape[1]


def load_returns_csv(path) -> ReturnsDataset:
    """Load a returns CSV: date column, header of asset labels, percent units.

    Rows containing a missing-value sentinel (-99.99 or -999) are dropped, the
    rest divided by 100. Row order is preserved.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        labels = tuple(label.strip() for label in header[1:])
        d = len(labels)
        if d == 0:
            raise InputError(f"{path}: header has no asset columns")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != d + 1:
                raise InputError(
                    f"{path}:{lineno}: expected {d + 1} columns, found {len(row)}")
            try:
                values = [float(cell) for cell in row[1:]]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: unparseable value ({exc})") from None
            if any(v in MISSING_SENTINELS for v in values):
                continue
            rows.append(values)
    if len(rows) < 2:
        raise InputError(f"{path}: fewer than 2 usable rows after sentinel filtering")
    returns = np.asarray(rows, dtype=float) / 100.0
    return ReturnsDataset(returns=returns, labels=labels)


def synthetic_returns(N: int, d: int, seed: int) -> ReturnsDataset:
    """Random returns matrix (fraction units) for synthetic benchmarks.

    Normal returns with 2% mean and 15% volatility approximate monthly equity
    returns; wilder scales inflate the smoothness constant and destabilize
    every fixed-step method at the standard eta = 0.01.
    """
    rng = np.random.default_rng(seed)
    returns = rng.normal(0.02, 0.15, size=(N, d))
    labels = tuple(f"asset_{i}" for i in range(d))
    return ReturnsDataset(returns=returns, labels=labels)


def write_returns_csv(dataset: ReturnsDataset, path):
    """Emit a dataset back to disk in the shipped percent-unit format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("date",) + dataset.labels)
        for t, row in enumerate(dataset.returns):
            writer.writerow([f"{t:06d}"] + [repr(float(v) * 100.0) for v in row])


# ---------------------------------------------------------------------------
# sparse mean-variance
# ---------------------------------------------------------------------------

class MeanVarianceProblem(CompositionProblem):
    """Penalized mean-variance objective over N return observations.

    Inner maps g_j(x) = (x, -<r_j, x>) lift x together with the (negated)
    per-observation return; outer functions f_i(z, y) = (<r_i, z> + y)^2 -
    <r_i, z> recover the variance-minus-mean objective after averaging.
    """

    def __init__(self, returns: np.ndarray, regularizer: Regularizer):
        returns = np.asarray(returns, dtype=float)
        N, d = returns.shape
        super().__init__(ProblemDims(m=N, n=N, d=d, k=d + 1), regularizer)
        self.returns = returns
        self.mean_return = returns.mean(axis=0)
        self.N = N

    def inner_value(self, idx, x):
        R = self.returns[idx]
        out = np.empty(R.shape[:-1] + (self.dims.k,))
        out[..., :-1] = x
        out[..., -1] = -R @ x
        return out

    def inner_vjp(self, idx, x, u):
        return u[..., :-1] - u[..., -1:] * self.returns[idx]

    def outer_value(self, idx, y):
        z, t = y[:-1], y[-1]
        rz = self.returns[idx] @ z
        return (rz + t) ** 2 - rz

    def outer_grad(self, idx, y):
        R = self.returns[idx]
        if y.ndim == 1:  # one point: a matrix-vector product
            u = R @ y[:-1] + y[-1]
        else:
            u = np.einsum("...d,...d->...", R, y[..., :-1]) + y[..., -1]
        out = np.empty(u.shape + (self.dims.k,))
        out[..., :-1] = (2.0 * u - 1.0)[..., None] * R
        out[..., -1] = 2.0 * u
        return out

    def smoothness(self, box_radius):
        norms = np.linalg.norm(self.returns, axis=1)
        L_g = float(np.sqrt(1.0 + np.max(norms) ** 2))
        ell_f = float(2.0 * np.max(norms**2 + 1.0))
        # sup ||g(x)|| over the box, used to bound the outer gradients
        R_g = box_radius * np.sqrt(self.dims.d) * np.sqrt(
            1.0 + np.linalg.norm(self.mean_return) ** 2)
        L_f = float(np.max(2.0 * (norms + 1.0) * (norms * R_g + 1.0)))
        return SmoothnessConstants(L_f=L_f, ell_f=ell_f, L_g=L_g, ell_g=0.0)


def build_mean_variance(dataset: ReturnsDataset, lam: float = 1e-2,
                        radius: float = 1.0) -> MeanVarianceProblem:
    return MeanVarianceProblem(dataset.returns, Regularizer(lam=lam, radius=radius))


def mean_variance_direct(problem: MeanVarianceProblem, x) -> float:
    """Direct (non-compositional) evaluation of the penalized objective."""
    x = np.asarray(x, dtype=float)
    px = problem.returns @ x
    mean = px.mean()
    return float(np.mean((px - mean) ** 2) - mean
                 + problem.regularizer.lam * np.sum(np.abs(x)))


# ---------------------------------------------------------------------------
# Bellman residual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BellmanSpec:
    """Simulated policy-evaluation data: m sampled transition matrices/rewards."""

    n_states: int
    m: int
    gamma: float
    P: np.ndarray  # (m, n_states, n_states), row-stochastic
    r: np.ndarray  # (m, n_states)

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"discount must lie strictly in (0, 1), got {self.gamma}")
        if self.P.shape != (self.m, self.n_states, self.n_states):
            raise ConfigError(f"transition tensor has shape {self.P.shape}")
        if self.r.shape != (self.m, self.n_states):
            raise ConfigError(f"reward matrix has shape {self.r.shape}")
        row_sums = self.P.sum(axis=2)
        if not np.allclose(row_sums, 1.0, atol=1e-12, rtol=0.0):
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise ConfigError(f"transition rows must sum to 1 (worst deviation {worst:g})")
        if np.any(self.P < 0):
            raise ConfigError("transition probabilities must be nonnegative")


class BellmanProblem(CompositionProblem):
    """Squared-residual value estimation: minimize (1/2) || mean_j ((I - gamma P_j) x - r_j) ||^2."""

    def __init__(self, spec: BellmanSpec, regularizer: Regularizer):
        S = spec.n_states
        super().__init__(ProblemDims(m=spec.m, n=1, d=S, k=S), regularizer)
        self.spec = spec
        self.M = np.eye(S)[None] - spec.gamma * spec.P  # (m, S, S)
        self.rewards = spec.r
        self.M_bar = self.M.mean(axis=0)
        self.r_bar = spec.r.mean(axis=0)
        x_star = np.linalg.solve(self.M_bar, self.r_bar)
        if regularizer.lam == 0.0 and np.max(np.abs(x_star)) < regularizer.radius:
            self.x_star = x_star
            self.phi_star = float(0.5 * np.sum((self.M_bar @ x_star - self.r_bar) ** 2))

    def inner_value(self, idx, x):
        return self.M[idx] @ x - self.rewards[idx]

    def inner_vjp(self, idx, x, u):
        return np.einsum("...kd,...k->...d", self.M[idx], u)

    def outer_value(self, idx, y):
        return 0.5 * np.sum(y**2) * np.ones(np.shape(idx))

    def outer_grad(self, idx, y):
        return _repeat(y, idx)

    def smoothness(self, box_radius):
        spec_norms = np.array([np.linalg.norm(Mj, 2) for Mj in self.M])
        L_g = float(spec_norms.max())
        image_bound = float(np.max(
            spec_norms * box_radius * np.sqrt(self.dims.d)
            + np.linalg.norm(self.rewards, axis=1)))
        return SmoothnessConstants(L_f=image_bound, ell_f=1.0, L_g=L_g, ell_g=0.0)


def build_bellman(spec: BellmanSpec, lam: float = 0.0, radius: float = 100.0) -> BellmanProblem:
    return BellmanProblem(spec, Regularizer(lam=lam, radius=radius))


def random_bellman_spec(n_states: int, m: int, gamma: float, seed: int) -> BellmanSpec:
    """Random lazy chains: mostly self-transitions keep the residual system
    well conditioned, so desk-scale runs reach tight tolerances. Rewards are
    uniform on [0, 0.1)."""
    rng = np.random.default_rng(seed)
    Q = rng.uniform(size=(m, n_states, n_states))
    Q /= Q.sum(axis=2, keepdims=True)
    lazy = 0.9  # self-transition weight
    P = lazy * np.eye(n_states)[None] + (1.0 - lazy) * Q
    r = 0.1 * rng.uniform(size=(m, n_states))
    return BellmanSpec(n_states=n_states, m=m, gamma=gamma, P=P, r=r)


# ---------------------------------------------------------------------------
# analytic toys
# ---------------------------------------------------------------------------

class IdentityQuadraticToy(CompositionProblem):
    """g_j(x) = x for every j, f_i(y) = ||y - c_i||^2. Closed-form optimum."""

    def __init__(self, centers: np.ndarray, m: int, regularizer: Regularizer):
        centers = np.asarray(centers, dtype=float)
        n, d = centers.shape
        super().__init__(ProblemDims(m=m, n=n, d=d, k=d), regularizer)
        self.centers = centers
        self.c_bar = centers.mean(axis=0)
        # componentwise soft-threshold of the center mean, clamped to the box
        lam, R = regularizer.lam, regularizer.radius
        x = np.sign(self.c_bar) * np.maximum(np.abs(self.c_bar) - lam / 2.0, 0.0)
        self.x_star = np.clip(x, -R, R)
        spread = float(np.mean(np.sum(centers**2, axis=1)) - self.c_bar @ self.c_bar)
        self.phi_star = float(np.sum((self.x_star - self.c_bar) ** 2) + spread
                              + lam * np.sum(np.abs(self.x_star)))

    def inner_value(self, idx, x):
        return _repeat(x, idx)

    def inner_vjp(self, idx, x, u):
        return _repeat(u, idx)

    def outer_value(self, idx, y):
        return np.sum((y - self.centers[idx]) ** 2, axis=-1)

    def outer_grad(self, idx, y):
        return 2.0 * (y - self.centers[idx])

    def smoothness(self, box_radius):
        reach = box_radius * np.sqrt(self.dims.d) + np.max(
            np.linalg.norm(self.centers, axis=1))
        return SmoothnessConstants(L_f=2.0 * reach, ell_f=2.0, L_g=1.0, ell_g=0.0)


class AffineInnerProblem(CompositionProblem):
    """Base for problems whose inner maps are affine, g_j(x) = A_j x + b_j.

    The inner Jacobians are constant, so inner-minibatch noise enters the
    gradient only through the value estimate, linearly; useful for exact
    variance-scaling checks.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, n: int, regularizer: Regularizer):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        m, k, d = A.shape
        super().__init__(ProblemDims(m=m, n=n, d=d, k=k), regularizer)
        self.A, self.b = A, b
        self.A_bar = A.mean(axis=0)
        self.b_bar = b.mean(axis=0)

    def inner_value(self, idx, x):
        # one matrix-vector product over all gathered rows, which are freed
        # before the offsets are gathered
        out = (self.A[idx].reshape(-1, self.dims.d) @ x).reshape(np.shape(idx) + (self.dims.k,))
        out += self.b[idx]
        return out

    def inner_vjp(self, idx, x, u):
        return np.einsum("...kd,...k->...d", self.A[idx], u)

    def _inner_bounds(self, box_radius):
        """L_g and a bound on sup ||g_j(x)|| over the box."""
        L_g = float(max(np.linalg.norm(Aj, 2) for Aj in self.A))
        reach = L_g * box_radius * np.sqrt(self.dims.d) + np.max(np.linalg.norm(self.b, axis=1))
        return L_g, reach


class AffineQuadraticToy(AffineInnerProblem):
    """g_j(x) = A_j x + b_j, f_i(y) = ||y - c_i||^2."""

    def __init__(self, A: np.ndarray, b: np.ndarray, centers: np.ndarray,
                 regularizer: Regularizer):
        centers = np.asarray(centers, dtype=float)
        super().__init__(A, b, centers.shape[0], regularizer)
        self.centers = centers
        self.c_bar = centers.mean(axis=0)
        if regularizer.lam == 0.0:
            x_star, *_ = np.linalg.lstsq(self.A_bar, self.c_bar - self.b_bar, rcond=None)
            if np.max(np.abs(x_star)) < regularizer.radius:
                self.x_star = x_star
                spread = float(np.mean(np.sum(centers**2, axis=1)) - self.c_bar @ self.c_bar)
                resid = self.A_bar @ x_star + self.b_bar - self.c_bar
                self.phi_star = float(resid @ resid + spread)

    def outer_value(self, idx, y):
        return np.sum((y - self.centers[idx]) ** 2, axis=-1)

    def outer_grad(self, idx, y):
        return 2.0 * (y - self.centers[idx])

    def smoothness(self, box_radius):
        L_g, g_reach = self._inner_bounds(box_radius)
        reach = g_reach + np.max(np.linalg.norm(self.centers, axis=1))
        return SmoothnessConstants(L_f=2.0 * reach, ell_f=2.0, L_g=L_g, ell_g=0.0)


class MixedConvexityToy(AffineInnerProblem):
    """Convex average of one strongly convex and one concave outer function.

    f_1(y) = 2||y||^2, f_2(y) = -||y||^2 / 2 over an affine inner map: the
    composition with f_2 is nonconvex, yet F = 0.75 ||g(x)||^2 is convex.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, regularizer: Regularizer):
        super().__init__(A, b, 2, regularizer)
        self._scales = np.array([2.0, -0.5])
        if regularizer.lam == 0.0:
            x_star, *_ = np.linalg.lstsq(self.A_bar, -self.b_bar, rcond=None)
            if np.max(np.abs(x_star)) < regularizer.radius:
                self.x_star = x_star
                resid = self.A_bar @ x_star + self.b_bar
                self.phi_star = float(0.75 * resid @ resid)

    def outer_value(self, idx, y):
        return self._scales[idx] * np.sum(y**2)

    def outer_grad(self, idx, y):
        return (2.0 * self._scales[idx])[..., None] * np.asarray(y, dtype=float)

    def smoothness(self, box_radius):
        L_g, reach = self._inner_bounds(box_radius)
        return SmoothnessConstants(L_f=4.0 * reach, ell_f=4.0, L_g=L_g, ell_g=0.0)


TOY_KINDS = ("identity", "affine", "mixed")


def build_toy(kind: str, d: int = 2, m: int = 3, n: int = 3, seed: int = 0,
              lam: float = 0.0, radius: float = 1.0) -> CompositionProblem:
    """Random toy instance of the requested kind, with a certified optimum
    whenever lam == 0 leaves one available in closed form."""
    rng = np.random.default_rng(seed)
    reg = Regularizer(lam=lam, radius=radius)
    if kind == "identity":
        centers = rng.normal(0.0, 0.4, size=(n, d))
        return IdentityQuadraticToy(centers, m=m, regularizer=reg)
    if kind == "affine":
        A = np.tile(np.eye(d), (m, 1, 1)) + 0.3 * rng.normal(size=(m, d, d))
        b = 0.1 * rng.normal(size=(m, d))
        centers = 0.3 * rng.normal(size=(n, d))
        return AffineQuadraticToy(A, b, centers, regularizer=reg)
    if kind == "mixed":
        A = np.tile(np.eye(d), (m, 1, 1)) + 0.3 * rng.normal(size=(m, d, d))
        b = 0.1 * rng.normal(size=(m, d))
        return MixedConvexityToy(A, b, regularizer=reg)
    raise InputError(f"unknown toy kind {kind!r}; expected one of {TOY_KINDS}")
