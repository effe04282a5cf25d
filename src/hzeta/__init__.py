"""Arbitrary-precision derivatives of the Hurwitz zeta function at
negative integers, the generalized Glaisher-Kinkelin constants, Jeffery's
summation constants, and generalized gamma functions, all with explicit
truncation-error estimates and a built-in cross-validation suite.

Quick start::

    from hzeta import PrecisionContext, zeta_deriv_neg, hurwitz_deriv

    ctx = PrecisionContext(target_digits=30)
    print(zeta_deriv_neg(1, ctx).value)          # zeta'(-1)
    print(hurwitz_deriv(2, 0.25, ctx).value)     # zeta'(-2, 1/4)
"""

from .asymptotic import (
    TermPoly,
    build_lambda_terms,
    eval_lambda,
    eval_term_poly,
    integrate_lambda_terms,
    log_coefficient_poly,
    shift_threshold,
)
from .constants import gkbj_auto, gkbj_constant, kinkelin_logvarpi, limit_constant, varpi
from .errors import ArgumentTooSmall, HzetaError, NonConvergent, ParameterSearchFailed
from .gengamma import exact_log_gengamma, log_gengamma, shift_log_gengamma
from .hurwitz import hurwitz_deriv, hurwitz_deriv_integer, zeta_deriv_neg
from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Result,
    bernoulli,
    bernoulli_poly,
    clear_caches,
    harmonic,
    phi,
)
from .validate import (
    CheckReport,
    alexeiewsky_check,
    alt_recursion_check,
    bendersky_recursion_check,
    general_solution_check,
    gint_moment_check,
    jeffery_difference_check,
    log_coefficient_check,
    quadrature,
    selftest,
    stabilization_check,
    zeta_positive,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentTooSmall",
    "CheckReport",
    "DEFAULT_CONTEXT",
    "HzetaError",
    "NonConvergent",
    "ParameterSearchFailed",
    "PrecisionContext",
    "Result",
    "TermPoly",
    "alexeiewsky_check",
    "alt_recursion_check",
    "bendersky_recursion_check",
    "bernoulli",
    "bernoulli_poly",
    "build_lambda_terms",
    "clear_caches",
    "eval_lambda",
    "eval_term_poly",
    "exact_log_gengamma",
    "general_solution_check",
    "gint_moment_check",
    "gkbj_auto",
    "gkbj_constant",
    "harmonic",
    "hurwitz_deriv",
    "hurwitz_deriv_integer",
    "integrate_lambda_terms",
    "jeffery_difference_check",
    "kinkelin_logvarpi",
    "limit_constant",
    "log_coefficient_check",
    "log_coefficient_poly",
    "log_gengamma",
    "phi",
    "quadrature",
    "selftest",
    "shift_log_gengamma",
    "shift_threshold",
    "stabilization_check",
    "varpi",
    "zeta_deriv_neg",
    "zeta_positive",
]
