"""Derivatives of the Hurwitz zeta function at negative integer order.

Normalization: the second argument is the offset of the defining sum,
so the w = 1 value is the Riemann-zeta derivative zeta'(-k).  Two
routes are provided: the exact product sum (integer w) and the shifted
truncated series (any real w > 0); their agreement is one of the
package's standing cross-checks.
"""

from __future__ import annotations

import mpmath
from mpmath.libmp import mpf_add, mpf_sub, round_nearest

from .constants import limit_constant
from .gengamma import exact_log_gengamma, shifted_series
from .mpcore import DEFAULT_CONTEXT, PrecisionContext, Real, Result, _rounding_floor, _to_raw
from .mpcore import as_exact, bernoulli, harmonic, memo

__all__ = ["zeta_deriv_neg", "hurwitz_deriv_integer", "hurwitz_deriv"]


@memo
def _head(k: int, prec: int) -> mpmath.mpf:
    """H_k B_{k+1}/(k+1), rounded at precision ``prec`` as to_mpf rounds it."""
    return mpmath.mp.make_mpf(_to_raw(harmonic(k) * bernoulli(k + 1) / (k + 1), prec))


def zeta_deriv_neg(
    k: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    w_trial: int | None = None,
    tail_terms: int | None = None,
) -> Result:
    """zeta'(-k) = H_k B_{k+1}/(k+1) - L_k.

    L_k is :func:`~hzeta.constants.limit_constant` with the given
    ``w_trial``/``tail_terms``; the result's ``params`` are the
    constant's.
    """
    limit_const = limit_constant(k, ctx, w_trial, tail_terms)
    prec = ctx.bits()
    value = mpf_sub(_head(k, prec)._mpf_, limit_const.value._mpf_, prec, round_nearest)
    return Result("zeta_deriv", k, None, mpmath.mp.make_mpf(value), limit_const.err, "exact-sum",
                  limit_const.params)


def hurwitz_deriv_integer(
    k: int, w: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> Result:
    """zeta'(-k, w) for integer w >= 1: zeta'(-k) plus the exact sum for
    log Gamma_k(w), which raises ValueError past w = 10^6 + 1; larger w
    take :func:`hurwitz_deriv`."""
    if not isinstance(w, int) or w < 1:
        raise ValueError("offset must be a positive integer")
    base = zeta_deriv_neg(k, ctx)
    gamma_part = exact_log_gengamma(k, w - 1, ctx)
    prec, rnd, make = ctx.bits(), round_nearest, mpmath.mp.make_mpf
    value = mpf_add(base.value._mpf_, gamma_part.value._mpf_, prec, rnd)
    err = mpf_add(mpf_add(base.err._mpf_, gamma_part.err._mpf_, prec, rnd),
                  _rounding_floor(ctx, value, prec), prec, rnd)
    return Result("hurwitz_deriv", k, w, make(value), make(err), "exact-sum", {})


def hurwitz_deriv(
    k: int,
    w: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    tail_terms: int | None = None,
) -> Result:
    """zeta'(-k, w) for real w > 0 by the shifted-series route.

    The value at the shifted offset w + n (n integral, chosen so w + n
    clears the asymptotic threshold) is H_k B_{k+1}/(k+1) plus the
    remainder series; the shift is then removed exactly, one factor
    (w+j)^k log(w+j) per step (:func:`~hzeta.gengamma.shifted_series`).
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    we = as_exact(w)
    if not we > 0:
        raise ValueError("offset must be positive")
    value, err, params = shifted_series(k, we, _head(k, ctx.bits(5)), 0, ctx, tail_terms)
    return Result("hurwitz_deriv", k, we, value, err, "asymptotic-shift", params)
