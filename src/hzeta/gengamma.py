"""Generalized log-gamma: exact sums at integers, shifted asymptotics
for real arguments.

``log Gamma_k(w+1) = sum_{m=1}^w m^k log m`` at integers; the extension
to real arguments combines the limiting constant, the truncated
remainder series at a large shifted argument, and the product rule
``Gamma_k(t+1) = t^(t^k) Gamma_k(t)`` to undo the shift exactly.  The
same shift chain, from a different base, gives zeta'(-k, w) in
:mod:`hzeta.hurwitz`.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .asymptotic import eval_lambda, plan
from .mpcore import DEFAULT_CONTEXT, PrecisionContext, Real, Result, as_exact, to_mpf

__all__ = ["exact_log_gengamma", "shift_log_gengamma", "shifted_series", "log_gengamma"]


def _is_integer(x) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    return mpmath.isint(x)


def _pow_log_term(base, k: int) -> mpmath.mpf:
    """(base)^k * log(base), with the power exact for rational bases."""
    if isinstance(base, Fraction):
        return to_mpf(base**k) * mpmath.log(to_mpf(base))
    return base**k * mpmath.log(base)


def exact_log_gengamma(
    k: int, w: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> Result:
    """log Gamma_k(w+1) as the exact sum of m^k log m, m = 1..w.

    Terms grow with m, so forward summation keeps the relative error of
    the working-precision accumulation bounded.  err is 0 up to rounding.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    if not isinstance(w, int) or w < 0:
        raise ValueError("upper limit must be a non-negative integer")
    with ctx.workprec(5):
        total = mpmath.mpf(0)
        for m in range(2, w + 1):  # m = 1 contributes nothing
            total += mpmath.mpf(m**k) * mpmath.log(m)
    return Result("gengamma", k, w + 1, total, mpmath.mpf(0), "exact-sum", {})


def shift_log_gengamma(
    k: int,
    x: Real,
    n: int,
    value_at_shifted: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> mpmath.mpf:
    """Bring log Gamma_k(x+n) down to log Gamma_k(x).

    Repeated application of the product rule removes one factor
    ``(x+j)^k log(x+j)`` per step; rational x keeps the removed powers
    exact.  At order 0 the n factors are log(x+j), and one log of the
    rising product x (x+1) ... (x+n-1) removes them all
    (:func:`_log_rising`).
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    if n < 0:
        raise ValueError("shift count must be non-negative")
    xe = as_exact(x)
    if not xe > 0:
        raise ValueError("argument must be positive")
    with ctx.workprec(5):
        total = to_mpf(value_at_shifted)
        if k == 0:
            return total - _log_rising(xe, n) if n else total
        for j in range(n):
            total -= _pow_log_term(xe + j, k)
        return total


def _rising_product(start: int, step: int, n: int, bits: int) -> tuple[int, int]:
    """``(m, s)`` with m 2^s = prod_{j<n} (start + j step), exactly while
    the product fits in ``bits`` bits; past that each step floors it back
    to ``bits`` bits, a relative shortfall below n 2^(1-bits) in all."""
    prod, shift = 1, 0
    for factor in range(start, start + n * step, step):
        prod *= factor
        excess = prod.bit_length() - bits
        if excess > 0:
            prod >>= excess
            shift += excess
    return prod, shift


def _log_rising(xe, n: int) -> mpmath.mpf:
    """log(x (x+1) ... (x+n-1)) for an exact x > 0 (Fraction or mpf), as
    one log of an integer product: of the numerators p + j q over q^n for
    x = p/q, of the mantissas m + j 2^-e times 2^(n e) for x = m 2^e.  The
    product keeps mp.prec + 10 + log2(n) bits, so its truncation moves the
    log by under 2^-(mp.prec + 9)."""
    bits = mpmath.mp.prec + 10 + n.bit_length()
    if isinstance(xe, Fraction):
        p, q = xe.numerator, xe.denominator
        prod, shift = _rising_product(p, q, n, bits)
        return mpmath.log(mpmath.mpf((prod, shift)) / q**n)
    man, exp = xe.man_exp
    low = min(exp, 0)
    prod, shift = _rising_product(man << (exp - low), 1 << -low, n, bits)
    return mpmath.log(mpmath.mpf((prod, shift + n * low)))


def shifted_series(
    k: int,
    x: Real,
    base: Real,
    base_err: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    tail_terms: int | None = None,
):
    """``base`` plus the order-k remainder series at x + n, with n and the
    tail length from :func:`~hzeta.asymptotic.plan`, then brought back
    down to x by :func:`shift_log_gengamma`.

    Returns ``(value, err, params)``: err adds ``base_err``, the series
    estimate and a rounding allowance; ``params["tail_terms"]`` counts
    the tail terms summed (at most ``tail_terms`` when given).
    """
    with ctx.workprec(5):
        n, planned = plan(k, x - 1, ctx)
        terms = planned if tail_terms is None else tail_terms
        lam = eval_lambda(k, x + n - 1, terms, ctx)
        shifted = to_mpf(base) + lam.value
        value = shift_log_gengamma(k, x, n, shifted, ctx)
        err = base_err + lam.err + ctx.rounding_floor(abs(shifted))
    return value, err, lam.params


def log_gengamma(
    k: int,
    x: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    tail_terms: int | None = None,
    method: str = "auto",
) -> Result:
    """log Gamma_k(x) for real x > 0.

    Integer arguments go through the exact sum.  Otherwise the argument
    is shifted up to the precision-dependent threshold, the limiting
    constant plus truncated series is evaluated there, and the shift is
    removed exactly.  ``method`` may force ``"exact"`` or
    ``"asymptotic"`` (the latter also works at integer arguments, which
    is how the two routes are cross-checked).
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    if method not in ("auto", "exact", "asymptotic"):
        raise ValueError(f"unknown method {method!r}")
    xe = as_exact(x)
    if not xe > 0:
        raise ValueError("argument must be positive")
    is_int = _is_integer(xe)
    if method == "exact" or (method == "auto" and is_int):
        if not is_int:
            raise ValueError("exact summation needs an integer argument")
        return exact_log_gengamma(k, int(xe) - 1, ctx)

    from .constants import gkbj_auto  # deferred: constants builds on the exact sum

    limit_const = gkbj_auto(k, ctx)
    value, err, params = shifted_series(k, xe, limit_const.value, limit_const.err, ctx, tail_terms)
    return Result("gengamma", k, xe, value, err, "asymptotic-shift", params)
