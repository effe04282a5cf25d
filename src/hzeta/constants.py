"""Limiting constants of the generalized log-gamma expansions.

The order-k constant is the stabilized difference between the exact
product sum and the truncated remainder series at a large trial
argument (the classical trial method, made deterministic here by an
automatic parameter search).  Jeffery's summation constants and
Kinkelin's constant follow from them by fixed rational offsets.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.libmp import fhalf, from_int, mpf_add, mpf_le, mpf_mul_int, mpf_neg, mpf_pow_int
from mpmath.libmp import mpf_sub, round_nearest

from .asymptotic import eval_lambda, shift_threshold
from .errors import ParameterSearchFailed
from .gengamma import exact_log_gengamma
from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Result,
    _rounding_floor,
    _to_raw,
    bernoulli,
    harmonic,
    memo,
)

__all__ = ["gkbj_constant", "gkbj_auto", "limit_constant", "varpi", "kinkelin_logvarpi"]

_MAX_TRIAL_W = 10**6


def gkbj_constant(
    k: int, w: int, tail_terms: int | None = None, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> Result:
    """Order-k constant by the trial method at the given parameters.

    value = exact sum at w minus the truncated series at w, with at most
    ``tail_terms`` tail terms (default: the planned count); the error
    estimate adds the series' and the exact sum's errors and a rounding
    allowance for the difference.  ``params`` records ``w_used`` and
    the ``tail_terms`` summed.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    lam = eval_lambda(k, w, tail_terms, ctx)
    exact = exact_log_gengamma(k, w, ctx)
    prec, rnd, make = ctx.bits(), round_nearest, mpmath.mp.make_mpf
    value = mpf_sub(exact.value._mpf_, lam.value._mpf_, prec, rnd)
    err = mpf_add(mpf_add(lam.err._mpf_, exact.err._mpf_, prec, rnd),
                  _rounding_floor(ctx, value, prec), prec, rnd)
    params = {"w_used": w, "tail_terms": lam.params["tail_terms"]}
    return Result("L", k, None, make(value), make(err), "trial-method", params)


@memo
def gkbj_auto(k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Result:
    """Order-k constant with parameters chosen so err <= 10^-target: the
    trial method from :func:`shift_threshold` up, doubling w until the
    bound is met.

    Results are memoized per (k, context).  Raises
    :class:`ParameterSearchFailed` when no trial argument up to 10^6,
    with its planned tail length, meets the bound.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    bound = mpf_pow_int(from_int(10), -ctx.target_digits, ctx.bits(), round_nearest)
    w = shift_threshold(ctx)
    while w <= _MAX_TRIAL_W:
        rec = gkbj_constant(k, w, None, ctx)
        if mpf_le(rec.err._mpf_, bound):
            return rec
        w *= 2  # lowers the truncation error; the rounding floor grows with w
    raise ParameterSearchFailed(
        f"no trial argument w <= {_MAX_TRIAL_W} reaches "
        f"err <= 1e-{ctx.target_digits} for order {k}"
    )


def limit_constant(
    k: int,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    w_trial: int | None = None,
    tail_terms: int | None = None,
) -> Result:
    """Order-k constant L_k: the automatic search (:func:`gkbj_auto`), or,
    given ``w_trial``, the trial method at that argument with at most
    ``tail_terms`` tail terms (default: the planned count).
    ``tail_terms`` without ``w_trial`` is rejected rather than ignored.
    """
    if w_trial is None:
        if tail_terms is not None:
            raise ValueError("tail_terms takes effect only with w_trial")
        return gkbj_auto(k, ctx)
    return gkbj_constant(k, w_trial, tail_terms, ctx)


@memo
def varpi(k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> Result:
    """Jeffery's summation constants: the x = 0 slope of log Gamma_k(x+1).

    For k >= 2 this is H_k B_k - k L_{k-1}; odd k >= 3 has B_k = 0, so
    the B_1 sign convention never enters there.  k = 1 is special-cased
    to -L_0 - 1/2 (the value forced by Raabe's integral), sidestepping
    the convention clash a literal k = 1 instance of the formula has.
    """
    if k < 1:
        raise ValueError("summation constants start at k = 1")
    prec, rnd, make = ctx.bits(), round_nearest, mpmath.mp.make_mpf
    if k == 1:
        base = gkbj_auto(0, ctx)
        value = mpf_sub(mpf_neg(base.value._mpf_, prec, rnd), fhalf, prec, rnd)
        err = base.err._mpf_
    else:
        base = gkbj_auto(k - 1, ctx)
        value = mpf_sub(_to_raw(harmonic(k) * bernoulli(k), prec),
                        mpf_mul_int(base.value._mpf_, k, prec, rnd), prec, rnd)
        err = mpf_mul_int(base.err._mpf_, k, prec, rnd)
    return Result("varpi", k, None, make(value), make(err), "trial-method", base.params)


@memo
def kinkelin_logvarpi(ctx: PrecisionContext = DEFAULT_CONTEXT) -> Result:
    """Kinkelin's constant log varpi = 2 L_1 - 1/6 (equivalently 1/12 - varpi(2))."""
    base = gkbj_auto(1, ctx)
    prec, rnd, make = ctx.bits(), round_nearest, mpmath.mp.make_mpf
    value = mpf_sub(mpf_mul_int(base.value._mpf_, 2, prec, rnd), _to_raw(Fraction(1, 6), prec),
                    prec, rnd)
    err = mpf_mul_int(base.err._mpf_, 2, prec, rnd)
    return Result("kinkelin", 1, None, make(value), make(err), "trial-method", base.params)
