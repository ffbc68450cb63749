"""Coupled p-Laplacian Dirichlet systems.

Finite-element solution of

    -Delta_p u + phi(x, u, v) = 0,   -Delta_p v + psi(x, u, v) = 0

on a box with Dirichlet data u = h, v = k, by Picard iteration on the
source-to-solution map, together with the quantitative smallness
certificate (lambda, M0) for the invariant source ball and weak-form
verification of candidate solution pairs.
"""

from .coupling import Coupling, check_monotone, nemytskii, power_family
from .expr import parse
from .field import (
    Grid,
    ScalarField,
    load_field,
    lq_norm,
    save_field,
)
from .fixpoint import (
    Certificate,
    Exponents,
    SystemProblem,
    apply_lambda,
    calibrate_C,
    certify,
    check_ball_invariance,
    make_exponents,
    picard_solve,
)
from .plap import PPoissonProblem, SolveReport, solve_p_poisson, solve_p_poisson_batch
from .verify import convergence_study, shift_test, weak_residuals

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Coupling",
    "Exponents",
    "Grid",
    "PPoissonProblem",
    "ScalarField",
    "SolveReport",
    "SystemProblem",
    "apply_lambda",
    "calibrate_C",
    "certify",
    "check_ball_invariance",
    "check_monotone",
    "convergence_study",
    "load_field",
    "lq_norm",
    "make_exponents",
    "nemytskii",
    "parse",
    "picard_solve",
    "power_family",
    "save_field",
    "shift_test",
    "solve_p_poisson",
    "solve_p_poisson_batch",
    "weak_residuals",
]
