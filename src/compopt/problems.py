"""Concrete problem builders, which take plain arrays or a seed: sparse
mean-variance portfolios from an (N, d) returns array, drawn by
`synthetic_returns` or read by `load_returns_csv`, and one affine-quadratic
class whose instances are the least-squares Bellman residuals on synthetic
Markov chains (`build_bellman`) and the analytic toy fixtures (`build_toy`),
each with a certified optimum where one exists in closed form."""

import csv

import numpy as np

from .errors import ConfigError, InputError
from .problem import CompositionProblem, ProblemDims, SmoothnessConstants
from .prox import Regularizer, prox_step, reg_value

#: raw sentinel values marking missing months in shipped returns files
MISSING_SENTINELS = (-99.99, -999.0)


# ---------------------------------------------------------------------------
# returns data
# ---------------------------------------------------------------------------

def load_returns_csv(path) -> np.ndarray:
    """Load a returns CSV as an (N, d) array of fractions: a date column, then
    one percent-unit column per asset, under a header whose labels are not kept.

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
        d = len(header[1:])
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
            if not np.isfinite(values).all():
                raise InputError(f"{path}:{lineno}: non-finite value")
            rows.append(values)
    if len(rows) < 2:
        raise InputError(f"{path}: fewer than 2 usable rows after sentinel filtering")
    return np.asarray(rows, dtype=float) / 100.0


def data_rng(seed: int):
    """numpy's default generator for synthetic problem data; it takes only a
    non-negative seed, and a negative one is a ConfigError."""
    if seed < 0:
        raise ConfigError(f"data seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def synthetic_returns(N: int, d: int, seed: int) -> np.ndarray:
    """Random (N, d) returns matrix (fraction units) for synthetic benchmarks.

    Normal returns with 2% mean and 15% volatility approximate monthly equity
    returns; wilder scales inflate the smoothness constant and destabilize
    every fixed-step method at the standard eta = 0.01.
    """
    if N < 2:
        raise ConfigError(f"returns data needs N >= 2 rows, as a returns file does, got {N}")
    ProblemDims(m=N, n=N, d=d, k=d + 1)  # refuse a size before its data is drawn
    return data_rng(seed).normal(0.02, 0.15, size=(N, d))


def write_returns_csv(returns: np.ndarray, path):
    """Write an (N, d) returns array in the percent-unit format that
    `load_returns_csv` reads, under a `date,asset_0,...` header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"asset_{i}" for i in range(returns.shape[1])])
        for t, row in enumerate(returns):
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
        # rows [I; -mean r_j]; 0 - mean keeps the sweep's +0 where a mean is zero
        self.constant_jacobian = np.vstack((np.eye(d), 0.0 - self.mean_return))
        self.constant_jacobian.flags.writeable = False
        norms = np.linalg.norm(returns, axis=1)
        L_g = float(np.sqrt(1.0 + np.max(norms) ** 2))
        ell_f = float(2.0 * np.max(norms**2 + 1.0))
        # sup ||g(x)|| over the box, used to bound the outer gradients
        R_g = regularizer.radius * np.sqrt(d) * np.sqrt(
            1.0 + np.linalg.norm(self.mean_return) ** 2)
        L_f = float(np.max(2.0 * (norms + 1.0) * (norms * R_g + 1.0)))
        self._smoothness = SmoothnessConstants(L_f=L_f, ell_f=ell_f, L_g=L_g, ell_g=0.0)

    # each <r_j, .> is its own dot product (np.vecdot), so a row never depends
    # on the batch it was evaluated in, as a matrix-vector product's may. One
    # component at one 1-D point (an SCGD or ASC-PG step) takes a one-row path
    # with the same bits: ndarray.dot of two vectors is the BLAS dot a vecdot
    # row calls, and Python floats round as numpy's 0-d values do, at less cost
    def inner_value(self, idx, x):
        R = self.returns[idx]
        if R.ndim == 1:
            out = np.empty(self.dims.k)
            out[:-1] = x
            out[-1] = -float(R.dot(x))
            return out
        out = np.empty(R.shape[:-1] + (self.dims.k,))
        out[..., :-1] = x
        out[..., -1] = -np.vecdot(R, x)
        return out

    def inner_vjp(self, idx, x, u):
        R = self.returns[idx]
        if R.ndim == 1 and u.ndim == 1:
            out = R * u.item(-1)
            return np.subtract(u[:-1], out, out=out)
        return u[..., :-1] - u[..., -1:] * R

    def outer_value(self, idx, y):
        z, t = y[:-1], y[-1]
        rz = np.vecdot(self.returns[idx], z)
        # np.square, not ** 2: a float64 scalar's power calls pow(), an array's squares
        return np.square(rz + t) - rz

    def outer_grad(self, idx, y):
        R = self.returns[idx]
        if R.ndim == 1 and y.ndim == 1:
            u = float(R.dot(y[:-1])) + y.item(-1)
            out = np.empty(self.dims.k)
            np.multiply(R, 2.0 * u - 1.0, out=out[:-1])
            out[-1] = 2.0 * u
            return out
        u = np.vecdot(R, y[..., :-1]) + y[..., -1]
        out = np.empty(u.shape + (self.dims.k,))
        out[..., :-1] = (2.0 * u - 1.0)[..., None] * R
        out[..., -1] = 2.0 * u
        return out


def build_mean_variance(returns: np.ndarray, lam: float = 1e-2,
                        radius: float = 1.0) -> MeanVarianceProblem:
    return MeanVarianceProblem(returns, Regularizer(lam=lam, radius=radius))


# ---------------------------------------------------------------------------
# affine inner maps under scaled quadratic outers
# ---------------------------------------------------------------------------

class AffineQuadraticProblem(CompositionProblem):
    """g_j(x) = A_j x + b_j, f_i(y) = s_i ||y - c_i||^2, with S = mean(s) > 0.

    With c~ = mean(s_i c_i) / S, F(x) = S ||A_bar x + b_bar - c~||^2 + spread is
    a convex quadratic even when some scales are negative. The optimum is
    certified when A_bar = I (the prox of r at c~ - b_bar with step 1/(2S)), or
    when lam = 0 and the least-squares solution lies inside the box. The inner
    Jacobians are constant, so inner-minibatch noise enters the gradient only
    through the value estimate, linearly; useful for exact variance-scaling
    checks.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, centers: np.ndarray,
                 scales: np.ndarray, regularizer: Regularizer):
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        centers, scales = np.asarray(centers, dtype=float), np.asarray(scales, dtype=float)
        m, k, d = A.shape
        super().__init__(ProblemDims(m=m, n=len(centers), d=d, k=k), regularizer)
        if b.shape != (m, k) or centers.shape[1:] != (k,) or scales.shape != (len(centers),):
            raise ConfigError(f"inconsistent shapes: A {A.shape}, b {b.shape}, "
                              f"centers {centers.shape}, scales {scales.shape}")
        S = float(scales.mean())
        if S <= 0.0:
            raise ConfigError(f"the outer scales must have a positive mean, got {S:g}")
        self.A, self.b, self.centers, self.scales = A, b, centers, scales
        self._two_scales = 2.0 * scales
        self.A_bar = self.constant_jacobian = A.mean(axis=0)
        self.A_bar.flags.writeable = False
        self.b_bar = b.mean(axis=0)
        L_g = float(np.linalg.norm(A, 2, axis=(1, 2)).max())
        reach = L_g * regularizer.radius * np.sqrt(d) + np.max(np.linalg.norm(b, axis=1))
        ell_f = 2.0 * float(np.max(np.abs(scales)))
        L_f = ell_f * (reach + np.max(np.linalg.norm(centers, axis=1)))
        self._smoothness = SmoothnessConstants(L_f=float(L_f), ell_f=ell_f, L_g=L_g, ell_g=0.0)
        c_tilde = (scales[:, None] * centers).mean(axis=0) / S
        target = c_tilde - self.b_bar
        if np.array_equal(self.A_bar, np.eye(d)):
            x_star = prox_step(regularizer, target, 1.0 / (2.0 * S))
        elif regularizer.lam == 0.0:
            x_star = np.linalg.lstsq(self.A_bar, target, rcond=None)[0]
            if np.max(np.abs(x_star)) >= regularizer.radius:
                return
        else:  # no closed form: x_star and phi_star stay None
            return
        self.x_star = x_star
        spread = float(np.mean(scales * np.sum(centers**2, axis=1)) - S * (c_tilde @ c_tilde))
        resid = self.A_bar @ x_star + self.b_bar - c_tilde
        self.phi_star = float((S * resid) @ resid + spread + reg_value(regularizer, x_star))

    def inner_value(self, idx, x):
        # one matrix-vector product per component, as an int index computes it;
        # the gathered A_j are freed before the offsets are gathered and added in place
        out = self.A[idx] @ x
        out += self.b[idx]
        return out

    def inner_vjp(self, idx, x, u):
        return np.einsum("...kd,...k->...d", self.A[idx], u)

    def outer_value(self, idx, y):
        return self.scales[idx] * np.add.reduce((y - self.centers[idx]) ** 2, axis=-1)

    def outer_grad(self, idx, y):
        return self._two_scales[idx][..., None] * (y - self.centers[idx])


# ---------------------------------------------------------------------------
# Bellman residual
# ---------------------------------------------------------------------------

def build_bellman(n_states: int, m: int, gamma: float, seed: int, lam: float = 0.0,
                  radius: float = 100.0) -> AffineQuadraticProblem:
    """Squared-residual value estimation on m random chains P_j with rewards r_j,
    (1/2) ||mean_j ((I - gamma P_j) x - r_j)||^2: A_j = I - gamma P_j, b_j = -r_j
    and one outer function with s = 1/2, c = 0.

    The chains are lazy: mostly self-transitions keep the residual system well
    conditioned, so desk-scale runs reach tight tolerances. Rewards are uniform
    on [0, 0.1). A discount outside (0, 1) is refused before any data is drawn.
    """
    ProblemDims(m=m, n=1, d=n_states, k=n_states)  # refuse a size before its data is drawn
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"discount must lie strictly in (0, 1), got {gamma}")
    rng = data_rng(seed)
    Q = rng.uniform(size=(m, n_states, n_states))
    Q /= Q.sum(axis=2, keepdims=True)
    lazy = 0.9  # self-transition weight
    P = lazy * np.eye(n_states)[None] + (1.0 - lazy) * Q
    r = 0.1 * rng.uniform(size=(m, n_states))
    return AffineQuadraticProblem(np.eye(n_states)[None] - gamma * P, -r,
                                  np.zeros((1, n_states)), np.array([0.5]),
                                  Regularizer(lam=lam, radius=radius))


# ---------------------------------------------------------------------------
# analytic toys
# ---------------------------------------------------------------------------

TOY_KINDS = ("identity", "affine", "mixed")


def build_toy(kind: str, d: int = 2, m: int = 3, n: int = 3, seed: int = 0,
              lam: float = 0.0, radius: float = 1.0) -> AffineQuadraticProblem:
    """Random toy instance of the requested kind, with a certified optimum
    whenever one is available in closed form.

    identity: A_j = I, b_j = 0, f_i(y) = ||y - c_i||^2.
    affine: A_j = I + noise, f_i(y) = ||y - c_i||^2.
    mixed: A_j = I + noise and n >= 2 outer functions whose scales cycle
    2, -1/2, 2, ...: f_i(y) = 2||y||^2 or -||y||^2 / 2. Each composition with
    a negative scale is nonconvex, yet F = S ||g(x)||^2 with S = mean(s) > 0
    (0.75 at n = 2) is convex.
    """
    ProblemDims(m=m, n=n, d=d, k=d)  # refuse a size before its data is drawn
    rng = data_rng(seed)
    reg = Regularizer(lam=lam, radius=radius)
    if kind == "identity":
        centers = rng.normal(0.0, 0.4, size=(n, d))
        return AffineQuadraticProblem(np.tile(np.eye(d), (m, 1, 1)), np.zeros((m, d)),
                                      centers, np.ones(n), reg)
    if kind not in TOY_KINDS:
        raise InputError(f"unknown toy kind {kind!r}; expected one of {TOY_KINDS}")
    A = np.tile(np.eye(d), (m, 1, 1)) + 0.3 * rng.normal(size=(m, d, d))
    b = 0.1 * rng.normal(size=(m, d))
    if kind == "affine":
        centers = 0.3 * rng.normal(size=(n, d))
        return AffineQuadraticProblem(A, b, centers, np.ones(n), reg)
    if n < 2:
        raise ConfigError(f"the mixed toy needs n >= 2 outer functions, got {n}")
    return AffineQuadraticProblem(A, b, np.zeros((n, d)), np.resize([2.0, -0.5], n), reg)
