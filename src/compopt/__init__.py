"""Variance-reduced optimization toolkit for two-level composition objectives.

Provides the doubling-epoch solver, control-variate gradient estimators, a
baseline algorithm roster, concrete problem builders (mean-variance, Bellman
residual, analytic toys), a benchmark harness with a shared trace schema, and
an empirical verification suite for the estimator variance bounds.
"""

from .baselines import run_agd, run_ascpg, run_scgd, run_vrscpg
from .errors import (CompoptError, ConfigError, DivergenceError,
                     InfeasibleQueryError, InputError)
from .estimators import (EpochSnapshot, draw_minibatch, estimate_gradient,
                         minibatch_rng, take_snapshot, unbiased_reference_gradient)
from .harness import (ALGORITHMS, compute_phi_star, run_benchmark, run_one,
                      scvrg_config_for_budget)
from .problem import (ALL, CompositionProblem, ProblemDims, SmoothnessConstants,
                      full_gradient, mean_jacobian, objective, smooth_value)
from .problems import (AffineQuadraticProblem, MeanVarianceProblem, build_bellman,
                       build_mean_variance, build_toy, load_returns_csv,
                       synthetic_returns, write_returns_csv)
from .prox import Regularizer, prox_step, reg_value
from .solver import (EpochInfo, RunConfig, ScvrgResult, predicted_total_samples,
                     run_epoch, run_scvrg)
from .trace import TRACE_HEADER, Recorder, TraceRecord
from .verify import (CheckReport, all_passed, check_epoch_contraction,
                     check_gradient_fd, check_lemma1, check_lemma2,
                     check_unbiasedness, epoch_potentials, run_all_checks)

__version__ = "0.1.0"
