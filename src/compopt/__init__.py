"""Variance-reduced optimization toolkit for two-level composition objectives.

Provides the doubling-epoch solver, control-variate gradient estimators, a
baseline algorithm roster, concrete problem builders (mean-variance, Bellman
residual, analytic toys), a benchmark harness with a shared trace schema, and
an empirical verification suite for the estimator variance bounds. Each name
is imported from the module that defines it (`from compopt.solver import
run_scvrg`); the package exports none, so importing a module loads only the
modules it uses.
"""

__version__ = "0.1.0"
