"""Policy evaluation as composition optimization.

The Bellman residual objective (1/2)||x - gamma P_bar x - r_bar||^2 averages
m sampled transition models inside a single quadratic, so its exact optimum is
a dense linear solve — a rare case where the stochastic run can be graded
against machine-precision ground truth.

Run:  python3 demos/02_bellman_policy_evaluation.py
"""

import numpy as np

from compopt.problem import objective
from compopt.problems import build_bellman, random_bellman_spec
from compopt.solver import RunConfig, predicted_total_samples, run_scvrg
from compopt.trace import Recorder


def main():
    spec = random_bellman_spec(n_states=10, m=20, gamma=0.9, seed=0)
    problem = build_bellman(spec)
    print(f"bellman instance: {spec.n_states} states, {spec.m} sampled models, "
          f"gamma={spec.gamma}")
    print(f"linear-solve optimum: ||x*||_inf = {np.max(np.abs(problem.x_star)):.4f}, "
          f"Phi* = {problem.phi_star:.3e}")

    # the residual system is flat (gradient-Lipschitz constant ~ 0.1), so the
    # base step must be much larger than the portfolio default of 0.01
    config = RunConfig(S=5, k0=10, eta=3.0, a=5, b=1, seed=0)
    # budgeted at the S epochs' exact cost, so every epoch runs in full
    budget = predicted_total_samples(config, problem.dims.m, problem.dims.n)
    result = run_scvrg(problem, config, np.zeros(problem.dims.d), Recorder(problem, budget))

    print("\ngap at each epoch boundary:")
    for info in result.epochs:
        gap = objective(problem, info.x_avg) - problem.phi_star
        print(f"  epoch {info.epoch}: k={info.k:3d} samples={info.samples_end:5d} "
              f"gap={gap:.3e}")
    final_gap = objective(problem, result.x) - problem.phi_star
    print(f"\nfinal gap {final_gap:.3e} after {result.samples} samples "
          f"({result.samples / (problem.dims.m + problem.dims.n):.0f} x (m+n))")
    print(f"distance to x*: {np.linalg.norm(result.x - problem.x_star):.3e}")


if __name__ == "__main__":
    main()
