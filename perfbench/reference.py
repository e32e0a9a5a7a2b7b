"""Independent reference optimum for the mean-variance problem.

The compositional objective of `compopt.problems.MeanVarianceProblem` equals
the direct form

    Phi(x) = x^T Sigma x - mu^T x + lam * ||x||_1   over the box [-R, R]^d,

with mu the mean return and Sigma the population covariance of the returns.
This module minimises that form with accelerated proximal gradient and
gradient-based adaptive restart (O'Donoghue & Candes 2015), so the benchmark
can gate the package's own `compute_phi_star` and measure gaps against a
value the package under test did not produce.

Error bar: for a convex L-smooth part and step 1/L, the prox-gradient step
x+ = prox(x - grad/L) from a feasible x with gradient mapping G = L (x - x+)
satisfies Phi(x+) - Phi* <= ||G|| * ||x - x*|| <= ||G|| * 2 R sqrt(d)
(Nesterov 2013). The returned value is Phi(x+), an upper bound on Phi*.
"""

from dataclasses import dataclass

import numpy as np

# stop once the gradient mapping is this small; roundoff in the mapping sits
# near 1e-16 * ||grad|| at these problem scales, far below it
G_TOL = 1e-13
MAX_ITER = 20_000


@dataclass(frozen=True)
class ReferenceOptimum:
    phi: float          # Phi(x+) at the certificate point
    bound: float        # Phi(x+) - Phi* <= bound
    grad_map: float     # ||G|| at the certificate point
    iterations: int
    converged: bool     # ||G|| reached G_TOL before MAX_ITER


def direct_form(returns):
    """(Sigma, mu) of the direct mean-variance objective."""
    returns = np.asarray(returns, dtype=float)
    mu = returns.mean(axis=0)
    centred = returns - mu
    return centred.T @ centred / returns.shape[0], mu


def direct_objective(sigma, mu, lam, x) -> float:
    return float(x @ sigma @ x - mu @ x + lam * np.sum(np.abs(x)))


def reference_optimum(returns, lam: float, radius: float) -> ReferenceOptimum:
    sigma, mu = direct_form(returns)
    step = 1.0 / (2.0 * np.linalg.eigvalsh(sigma)[-1])

    def grad(x):
        return 2.0 * sigma @ x - mu

    def prox(v):
        return np.clip(np.sign(v) * np.maximum(np.abs(v) - step * lam, 0.0),
                       -radius, radius)

    x = np.zeros(mu.size)
    y = x.copy()
    t_k = 1.0
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        x_new = prox(y - step * grad(y))
        if np.linalg.norm(y - x_new) / step <= G_TOL:
            x = x_new
            converged = True
            break
        if (y - x_new) @ (x_new - x) > 0.0:
            # momentum points uphill for the composite objective: restart
            t_k = 1.0
            y = x_new
        else:
            t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_k**2)) / 2.0
            y = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
            t_k = t_next
        x = x_new
    x_plus = prox(x - step * grad(x))
    grad_map = float(np.linalg.norm(x - x_plus) / step)
    return ReferenceOptimum(phi=direct_objective(sigma, mu, lam, x_plus),
                            bound=float(grad_map * 2.0 * radius * np.sqrt(mu.size)),
                            grad_map=grad_map, iterations=it, converged=converged)
