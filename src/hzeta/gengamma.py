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

import bisect
import functools
import itertools
import threading
from array import array
from fractions import Fraction

import mpmath
from mpmath.libmp import from_int, from_man_exp, mpf_add, mpf_div, mpf_log, mpf_mul, mpf_sub
from mpmath.libmp import round_ceiling, round_nearest

from .asymptotic import _check_truncation, _eval_term_poly, _remainder, build_lambda_terms, plan
from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Real,
    Result,
    _bernoulli_poly_ints,
    _horner,
    _ratio,
    _rounding_floor,
    _to_raw,
    as_exact,
    memo,
)

__all__ = ["exact_log_gengamma", "shift_log_gengamma", "shifted_series", "log_gengamma"]


class PrimeLogTable:
    """The primes in order and, per fixed-point precision wp, the entries
    ``floor(log p 2^wp)`` of a prefix of them.

    Each entry comes from one :func:`mpmath.ln` at wp + 10 bits (good to
    an ulp there), so it is short of ``log p 2^wp`` by less than
    1 + 2^-9 log p units and above it by at most 2^-9 log p.  Primes come
    from a segmented sieve whose segment is dropped once its primes are
    appended.  Both lists grow append-only under the lock: previously
    returned entries never change.
    """

    def __init__(self) -> None:
        self._primes: list[int] = [2, 3, 5, 7]
        self._sieved = 10  # every prime below this is in _primes
        self._entries: dict[int, list[int]] = {}
        self._lock = threading.Lock()

    def primes(self, w: int) -> list[int]:
        """The primes p <= w."""
        if w >= self._sieved:
            with self._lock:
                self._sieve(w)
        return self._primes[:bisect.bisect_right(self._primes, w)]

    def upto(self, w: int, wp: int) -> tuple[list[int], list[int]]:
        """The primes p <= w and their entries at wp, as two equal-length lists."""
        primes = self.primes(w)
        count = len(primes)
        entries = self._entries.get(wp)
        if entries is None or len(entries) < count:
            with self._lock:
                entries = self._entries.setdefault(wp, [])
                for p in primes[len(entries):]:
                    entries.append(_floor_log(p, wp))
        return primes, entries[:count]

    def _sieve(self, w: int) -> None:
        while self._sieved <= w:
            lo = self._sieved
            hi = min(max(w + 1, 2 * lo), lo * lo)  # the primes below lo sieve [lo, lo^2)
            segment = bytearray([1]) * (hi - lo)
            for p in self._primes:
                if p * p >= hi:
                    break
                start = max(p * p, -(-lo // p) * p) - lo
                segment[start::p] = bytes(len(range(start, hi - lo, p)))
            self._primes.extend(itertools.compress(range(lo, hi), segment))
            self._sieved = hi


def _floor_log(p: int, wp: int) -> int:
    """floor(log p 2^wp) from one logarithm at wp + 10 bits."""
    man, exp = mpmath.ln(p, prec=wp + 10).man_exp
    return man << (exp + wp) if exp + wp >= 0 else man >> -(exp + wp)


@memo
def _prime_logs() -> PrimeLogTable:
    """The shared table, made on first use; :func:`~hzeta.mpcore.clear_caches` drops it."""
    return PrimeLogTable()


def _power_sum(k: int, n: int) -> int:
    """sum_{i=1}^n i^k = (B_{k+1}(n+1) - B_{k+1}(1)) / (k+1), exactly, in integers
    (:func:`~hzeta.mpcore._bernoulli_poly_ints`; the coefficients sum to B_{k+1}(1))."""
    coeffs, den = _bernoulli_poly_ints(k + 1)
    return (_horner(coeffs, n + 1, 1) - sum(coeffs)) // (den * (k + 1))


def exact_log_gengamma(
    k: int, w: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> Result:
    """log Gamma_k(w+1) as the exact sum of m^k log m, m = 1..w.

    The sum is taken in fixed-point Python integers at ``wp = prec + 10``
    bits, prec ``ctx.bits(5)``: log m is the sum of
    the entries ``floor(log p 2^wp)`` over m's prime factors
    (:class:`PrimeLogTable`, π(w) logarithms per precision, kept across
    calls), and grouping the m by prime power gives
    ``sum_p floor(log p 2^wp) c_p`` with the exact integer
    ``c_p = sum_(p^e <= w) p^(ek) S_k(floor(w/p^e))``, S_k the power sum.
    The c_p are kept per (k, w) (:func:`_prime_weights`); the total is
    formed on every call and converted to mpf once.

    err is explicit: each m's fixed-point log is off by less than
    Ω(m) + 1 units of 2^-wp (Ω(m) prime factors counted with
    multiplicity; the + 1 covers the entries' own logarithms while
    Ω(m) log m < 2^9, for m up to about 10^8), so the sum is off by less
    than sum_m m^k (Ω(m) + 1) = sum_p c_p + S_k(w) - 1 units, to which
    the half-ulp of the final conversion is added.  Nothing here reads
    mpmath's global precision.  w above 10^6, the trial search's largest
    (``constants._MAX_TRIAL_W``), raises ValueError before any sieving.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    if not isinstance(w, int) or w < 0:
        raise ValueError("upper limit must be a non-negative integer")
    if w > constants._MAX_TRIAL_W:
        raise ValueError(f"exact sums stop at w = {constants._MAX_TRIAL_W}, the largest trial w")
    prec = ctx.bits(5)
    wp = prec + 10
    weights, slack = _prime_weights(k, w)
    total = sum(c * entry for c, entry in zip(weights, _prime_logs().upto(w, wp)[1]))
    excess = total.bit_length() - prec
    if excess > 0:
        slack += 1 << (excess - 1)  # half an ulp of the conversion
    value = mpmath.mp.make_mpf(from_man_exp(total, -wp, prec, round_nearest))
    err = mpmath.mp.make_mpf(from_man_exp(slack, -wp, prec, round_ceiling))
    return Result("gengamma", k, w + 1, value, err, "exact-sum", {})


@functools.partial(memo, maxsize=128)  # bounded for sweeps over w; the identity suite uses 62
def _prime_weights(k: int, w: int) -> tuple[tuple[int, ...], int]:
    """``(c, slack)`` for :func:`exact_log_gengamma`: the integer weights c_p
    of the primes p <= w in order, and the err in units of 2^-wp before the
    conversion, sum_p c_p + S_k(w) - 1; both exact and free of wp."""
    slack = _power_sum(k, max(w, 1)) - 1  # the + 1 per m >= 2
    sums: dict[int, int] = {}  # floor(w / p^e) -> S_k of it
    weights = []
    for p in _prime_logs().primes(w):
        pk = p**k
        c, q, qk = 0, p, pk
        while q <= w:
            n = w // q
            s = sums.get(n)
            if s is None:
                s = sums[n] = _power_sum(k, n)
            c += qk * s
            q, qk = q * p, qk * pk
        weights.append(c)
        slack += c
    return tuple(weights), slack


def shift_log_gengamma(
    k: int,
    x: Real,
    n: int,
    value_at_shifted: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> mpmath.mpf:
    """Bring log Gamma_k(x+n) down to log Gamma_k(x).

    Repeated application of the product rule removes one factor
    ``(x+j)^k log(x+j)`` per step, on raw values as the mpf operators do
    it; for x = p/q the base (p + jq)/q is in lowest terms, so its power
    (p + jq)^k / q^k is exact with no Fraction.  At order 0 the n factors
    are log(x+j), and one log of the rising product x (x+1) ... (x+n-1)
    removes them all (:func:`_log_rising`).
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    if n < 0:
        raise ValueError("shift count must be non-negative")
    xe = as_exact(x)
    if not xe > 0:
        raise ValueError("argument must be positive")
    prec = ctx.bits(5)
    return mpmath.mp.make_mpf(_shift_chain(k, xe.numerator, xe.denominator, n,
                                           _to_raw(value_at_shifted, prec), prec))


def _shift_chain(k: int, p: int, q: int, n: int, total: tuple, prec: int) -> tuple:
    """:func:`shift_log_gengamma`'s n steps from the raw ``total`` at precision
    prec, for x = p/q > 0 in lowest terms, raw."""
    rnd = round_nearest
    if n and k == 0:
        total = mpf_sub(total, _log_rising(p, q, n, prec), prec, rnd)
    elif n:
        qv, qkv = from_int(q), from_int(q**k)
        for num in range(p, p + n * q, q):  # at k = 1 the power is the base
            base = mpf_div(from_int(num, prec, rnd), qv, prec, rnd)
            power = base if k == 1 else mpf_div(from_int(num**k, prec, rnd), qkv, prec, rnd)
            log = mpf_log(base, prec, rnd)
            total = mpf_sub(total, mpf_mul(power, log, prec, rnd), prec, rnd)
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


def _log_rising(p: int, q: int, n: int, prec: int) -> tuple:
    """log(x (x+1) ... (x+n-1)), raw at precision prec, for x = p/q > 0, as one
    log of the integer product of the numerators p + j q over q^n.  The product
    keeps prec + 10 + log2(n) bits: the log moves by < 2^-(prec + 9)."""
    prod, shift = _rising_product(p, q, n, prec + 10 + n.bit_length())
    # q = odd 2^z: 2^(n z) goes to the exponent, since an mpf of that integer
    # costs more than the log (mpmath strips its trailing zeros a byte at a time)
    z = (q & -q).bit_length() - 1
    rising = mpf_div(from_man_exp(prod, shift - n * z, prec, round_nearest),
                     from_int((q >> z) ** n), prec, round_nearest)
    return mpf_log(rising, prec, round_nearest)


def shifted_series(
    k: int,
    x: Real,
    base: Real,
    base_err: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    tail_terms: int | None = None,
):
    """``base`` plus the order-k remainder series at x + n - 1, with n and the
    tail length from :func:`~hzeta.asymptotic.plan` at x - 1, then brought
    back down to x by :func:`shift_log_gengamma`, on raw values at
    ``ctx.bits(5)``: the path of every real argument and so of every
    quadrature node.  x + n - 1 is formed exactly, and rounded once.

    Returns ``(value, err, params)``: err adds ``base_err``, the series
    estimate and a rounding allowance; ``params["tail_terms"]`` counts
    the tail terms summed (at most ``tail_terms`` when given).

    :func:`_series_level` repeats the assembly for a whole quadrature level
    on raw values; this scalar route keeps calling ``eval_term_poly`` and
    ``shift_log_gengamma`` by name, for a tracer that rebinds those names.
    """
    rnd, make, prec = round_nearest, mpmath.mp.make_mpf, ctx.bits(5)
    xe = as_exact(x)
    n, planned = plan(k, xe - 1, ctx)
    terms = planned if tail_terms is None else tail_terms
    lam, lam_err, used = _remainder(k, xe + n - 1, terms, ctx)
    shifted = mpf_add(_to_raw(base, prec), lam._mpf_, prec, rnd)
    value = shift_log_gengamma(k, xe, n, make(shifted), ctx)
    err = mpf_add(mpf_add(_to_raw(base_err, prec), lam_err._mpf_, prec, rnd),
                  _rounding_floor(ctx, shifted, prec), prec, rnd)
    return value, make(err), {"tail_terms": used}


@functools.partial(memo, maxsize=64)  # bounded for sweeps over b; selftest full uses 7
def _level_plan(k: int, nodes: tuple, ctx: PrecisionContext) -> array:
    """n and the tail length of :func:`shifted_series`'s plan at each raw node,
    interleaved."""
    plans = (plan(k, Fraction(p - q, q), ctx) for p, q in map(_ratio, nodes))
    return array("I", itertools.chain.from_iterable(plans))


def _series_level(k: int, nodes, base: Real, base_err: Real, ctx: PrecisionContext):
    """:func:`shifted_series` at each raw node of one quadrature level, as raw
    ``(value, err)`` pairs with its bits: the same plan (kept by
    :func:`_level_plan`), x + n - 1 by one raw addition, correctly rounded as
    the scalar route rounds it, the raw bodies of the series and the shift,
    and ArgumentTooSmall where ``_remainder`` raises it, with its message."""
    rnd, prec, out = round_nearest, ctx.bits(5), []
    base, base_err = _to_raw(base, prec), _to_raw(base_err, prec)
    plans = _level_plan(k, tuple(nodes), ctx)
    for xv, n, terms in zip(nodes, plans[::2], plans[1::2], strict=True):
        at = mpf_add(xv, from_int(n - 1), prec, rnd)
        lam, lam_err, _ = _eval_term_poly(build_lambda_terms(k, terms + 1), at, ctx, prec)
        p, q = _ratio(xv)
        _check_truncation(k, p + (n - 1) * q, q, lam, lam_err, prec)
        shifted = mpf_add(base, lam, prec, rnd)
        err = mpf_add(mpf_add(base_err, lam_err, prec, rnd),
                      _rounding_floor(ctx, shifted, prec), prec, rnd)
        out.append((_shift_chain(k, p, q, n, shifted, prec), err))
    return out


def _log_gengamma_level(k: int, nodes, ctx: PrecisionContext):
    """:func:`log_gengamma` at each raw node of one quadrature level, as raw
    ``(value, err)`` pairs with the bits of its series route: one
    :func:`_series_level`, at an integer node too, where the series is within
    its err of the exact sum (no even-point rule puts a node there)."""
    limit_const = constants.gkbj_auto(k, ctx)
    return _series_level(k, nodes, limit_const.value, limit_const.err, ctx)


def log_gengamma(
    k: int,
    x: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    tail_terms: int | None = None,
) -> Result:
    """log Gamma_k(x) for real x > 0.

    Integer arguments up to ``constants._MAX_TRIAL_W`` (10^6) go through
    the exact sum.  Otherwise the argument is shifted up to the
    precision-dependent threshold (a larger integer needs no shift), the
    limiting constant plus truncated series is evaluated there, and the
    shift is removed exactly.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    xe = as_exact(x)
    if not xe > 0:
        raise ValueError("argument must be positive")
    if xe.denominator == 1 and xe <= constants._MAX_TRIAL_W:
        return exact_log_gengamma(k, xe.numerator - 1, ctx)

    limit_const = constants.gkbj_auto(k, ctx)
    value, err, params = shifted_series(k, xe, limit_const.value, limit_const.err, ctx, tail_terms)
    return Result("gengamma", k, xe, value, err, "asymptotic-shift", params)


from . import constants  # noqa: E402  last: constants builds on the exact sum above
