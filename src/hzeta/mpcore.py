"""Precision plumbing and exact rational combinatorics.

Every numeric operation in the package funnels through a
:class:`PrecisionContext`: work happens at ``target + guard`` decimal
digits and results are reported to ``target`` digits.  Combinatorial
quantities (Bernoulli numbers and polynomials, harmonic numbers, power
sums) stay exact rationals until the final conversion to a big float,
so the signs and coefficients of the divergent series downstream are
never perturbed by rounding.  The Bernoulli table holds integer
tangent numbers (Brent & Harvey, arXiv:1108.0286) and makes a B_n
Fraction only on request; the series tails downstream read the
tangent numbers themselves.

Convention: B_1 = -1/2 throughout.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_float, from_int, from_man_exp, mpf_abs, mpf_div
from mpmath.libmp import mpf_mul, mpf_pos, mpf_pow_int, round_nearest

Real = Union[int, Fraction, float, mpmath.mpf]

__all__ = [
    "PrecisionContext",
    "DEFAULT_CONTEXT",
    "Result",
    "to_mpf",
    "as_exact",
    "bernoulli",
    "bernoulli_poly",
    "phi",
    "harmonic",
    "clear_caches",
]


@dataclass(frozen=True)
class PrecisionContext:
    """Requested output precision plus guard digits for internal work."""

    target_digits: int = 20
    guard_digits: int = 15

    def __post_init__(self) -> None:
        if self.target_digits < 1:
            raise ValueError("target_digits must be a positive integer")
        if self.guard_digits < 1:
            raise ValueError("guard_digits must be a positive integer")

    @property
    def working_digits(self) -> int:
        # never drops below target + 10, whatever the guard setting
        return self.target_digits + max(self.guard_digits, 10)

    def bits(self, extra: int = 0) -> int:
        """The working precision (+ extra digits) in bits, as :meth:`workprec` sets it."""
        return dps_to_prec(self.working_digits + extra)

    def workprec(self, extra: int = 0):
        """mpmath context manager running at working precision (+ extra digits)."""
        return mp.workdps(self.working_digits + extra)

    def rounding_floor(self, scale) -> mpmath.mpf:
        """Absolute rounding allowance for a computation of the given magnitude."""
        return mp.make_mpf(_rounding_floor(self, _to_raw(scale, mp.prec), mp.prec))


DEFAULT_CONTEXT = PrecisionContext()


@dataclass(frozen=True)
class Result:
    """A computed value with its error estimate and the route that made it.

    ``quantity``: "L", "varpi", "kinkelin", "zeta_deriv", "hurwitz_deriv",
    "gengamma" or "lambda" (the truncated remainder series).  ``arg``:
    the argument or offset, None for the constants and zeta'(-k).
    ``params``: the series parameters used, ``w_used`` and ``tail_terms``
    for a constant and for zeta'(-k) built on one, ``tail_terms`` (terms
    summed) for a series route, none for an exact sum.
    """

    quantity: str
    k: int
    arg: Optional[Real]
    value: mpmath.mpf
    err: mpmath.mpf
    method: str
    params: dict


def to_mpf(x: Real) -> mpmath.mpf:
    """Convert to mpf at the ambient mpmath precision.

    Fractions are converted by a single exact-integer division so the
    result is correctly rounded.
    """
    return mp.make_mpf(_to_raw(x, mp.prec))


def _to_raw(x: Real, prec: int) -> tuple:
    """``to_mpf(x)._mpf_`` at precision ``prec``, without the mpf (internal use)."""
    if isinstance(x, Fraction):
        return mpf_div(from_int(x.numerator), from_int(x.denominator), prec, round_nearest)
    if isinstance(x, mpmath.mpf):
        return mpf_pos(x._mpf_, prec, round_nearest)
    return from_int(x, prec, round_nearest) if isinstance(x, int) else mp.mpf(x, prec=prec)._mpf_


def as_exact(x: Real) -> Fraction:
    """The exact value p/q of an int, a Fraction, a float or a finite mpf, as a
    Fraction; inf and nan raise ValueError, and anything else (an mpmath
    constant, a string) TypeError rather than be rounded at the ambient precision."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return Fraction(*_ratio(_binary(x)))


def _binary(x) -> tuple:
    """The exact raw value of a float or an mpf; anything else raises TypeError (internal use)."""
    if isinstance(x, float):
        return from_float(x)
    if isinstance(x, mpmath.mpf):
        return x._mpf_
    raise TypeError(f"expected an int, Fraction, float or mpf argument, not {type(x).__name__}")


def _ratio(v: tuple) -> tuple[int, int]:
    """``(p, q)`` with p/q the value of a raw binary value v, in lowest terms and
    q a power of two, from its mantissa and exponent; inf and nan raise
    ValueError (internal use)."""
    sign, man, exp, bc = v
    if bc < 0:  # inf or nan, with mantissa 0
        raise ValueError("argument must be finite")
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


# ---------------------------------------------------------------------------
# exact combinatorics


class BernoulliCache:
    """Growable table of tangent numbers T_h, and the exact Bernoulli
    numbers (B_1 = -1/2) made from them on request.

    B_2h = (-1)^(h-1) 2h T_h / (4^h (4^h - 1)), and the T_h come from the
    integer recurrence T[j] <- (j-k) T[j-1] + (j-k+2) T[j] of Brent & Harvey,
    "Fast computation of Bernoulli, Tangent and Secant numbers"
    (arXiv:1108.0286).  The table keeps that recurrence's last column,
    so growth computes only the new T_h and appends them; a B_n Fraction
    is made, and kept, when :meth:`get` first asks for it.  Previously
    returned values never change.  The lock makes concurrent growth safe.
    """

    def __init__(self) -> None:
        self._tangents: list[int] = [0]  # T_h at index h; T_0 = 0 holds the place
        # column[k-1] = T[h] after pass k of the recurrence, h = len(column)
        self._column: list[int] = []
        self._fractions: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
        self._lock = threading.Lock()

    def get(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("Bernoulli index must be non-negative")
        b = self._fractions.get(n)
        if b is None:  # n = 2h >= 2 from T_h (odd n give 0)
            h = n // 2
            b = Fraction(0) if n % 2 else Fraction((-1) ** (h - 1) * n * self.tangents(h)[h],
                                                   16**h - 4**h)
            b = self._fractions.setdefault(n, b)  # one object per index, whoever made it
        return b

    def tangents(self, h: int) -> list[int]:
        """The table T_0, T_1, ... grown to at least T_h (append-only)."""
        if h >= len(self._tangents):
            with self._lock:
                self._grow(h)
        return self._tangents

    def _grow(self, h_max: int) -> None:
        tangents, column = self._tangents, self._column
        while len(tangents) <= h_max:
            # next column h: pass 1 sets T[h] = (h-1)!, pass k uses pass k
            # of column h-1 and pass k-1 of column h; T_h is its last entry
            h = len(column) + 1
            new = [(h - 1) * column[0] if column else 1]
            for k in range(2, h + 1):
                up = (h - k) * column[k - 1] if k < h else 0
                new.append(up + (h - k + 2) * new[-1])
            column[:] = new
            tangents.append(new[-1])


_BERNOULLI = BernoulliCache()
_HARMONIC: list[Fraction] = [Fraction(0)]
_HARMONIC_LOCK = threading.Lock()

_MEMOS: list = []  # every function wrapped by memo


def memo(fn, maxsize: Optional[int] = None):
    """``lru_cache(maxsize)`` on fn, emptied by :func:`clear_caches` (internal use)."""
    cached = functools.lru_cache(maxsize)(fn)
    _MEMOS.append(cached)
    return cached


@memo
def _floor_power(working_digits: int, prec: int) -> tuple:
    """10^-(W-2) at precision ``prec``, as a raw value."""
    return mpf_pow_int(from_int(10), 2 - working_digits, prec, round_nearest)


def _rounding_floor(ctx: PrecisionContext, v: tuple, prec: int) -> tuple:
    """``ctx.rounding_floor`` of a raw value v at precision prec, raw (internal use)."""
    return mpf_mul(mpf_abs(v, prec, round_nearest), _floor_power(ctx.working_digits, prec),
                   prec, round_nearest)


def clear_caches() -> None:
    """Reset every internal table: the memos, Bernoulli, harmonic, prime logs."""
    global _BERNOULLI
    _BERNOULLI = BernoulliCache()
    del _HARMONIC[1:]
    for fn in _MEMOS:
        fn.cache_clear()


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n, cached."""
    return _BERNOULLI.get(n)


def _tangents(h: int) -> list[int]:
    """The tangent numbers T_0 = 0, T_1, ..., at least to T_h (internal use)."""
    return _BERNOULLI.tangents(h)


@memo
def _bernoulli_poly_ints(n: int) -> tuple[tuple[int, ...], int]:
    """``(a, den)`` with B_n(x) = (a_0 x^n + a_1 x^(n-1) + ... + a_n) / den,
    a_j = C(n,j) B_j den, over one common denominator (internal use)."""
    coeffs = [math.comb(n, j) * bernoulli(j) for j in range(n + 1)]
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def _horner(coeffs, p: int, q: int) -> int:
    """q^m times the polynomial coeffs[0] x^m + ... + coeffs[m] at x = p/q,
    by Horner's rule in integers (internal use)."""
    acc, qj = 0, 1
    for a in coeffs:
        acc = acc * p + a * qj
        qj *= q
    return acc


def bernoulli_poly(n: int, x: Real):
    """Bernoulli polynomial B_n(x) = sum_j C(n,j) B_j x^(n-j).

    By Horner's rule in integers at x's exact value p/q, over the common
    denominator kept per n (:func:`_bernoulli_poly_ints`): a Fraction for
    an int or Fraction x, and for a float or mpf x that value rounded once,
    at the ambient mpmath precision, as an mpf (:func:`_poly_at`).
    """
    if n < 0:
        raise ValueError("degree must be non-negative")
    coeffs, den = _bernoulli_poly_ints(n)
    return _poly_at(coeffs, den, x)


def phi(n: int, x: Real):
    """Power-sum polynomial (B_{n+1}(x) - B_{n+1}) / (n+1), as :func:`bernoulli_poly`.

    At integer x >= 1 this equals sum_{i=1}^{x-1} i^n, exactly.
    """
    if n < 1:
        raise ValueError("power-sum order must be >= 1")
    coeffs, den = _bernoulli_poly_ints(n + 1)
    return _poly_at(coeffs[:-1] + (0,), den * (n + 1), x)


def _poly_at(coeffs, den: int, x: Real):
    """(coeffs[0] x^m + ... + coeffs[m]) / den at x's exact value: a Fraction
    for an int or Fraction x, else rounded once at the ambient precision."""
    if isinstance(x, (int, Fraction)):
        p, q = x.numerator, x.denominator
        return Fraction(_horner(coeffs, p, q), den * q ** (len(coeffs) - 1))
    return mp.make_mpf(_poly_raw(coeffs, den, *_ratio(_binary(x)), mp.prec))


def _poly_raw(coeffs, den: int, p: int, q: int, prec: int) -> tuple:
    """(coeffs[0] x^m + ... + coeffs[m]) / den at a binary x = p/q, q = 2^z,
    raw, rounded once at precision prec: the Horner integer is the mantissa,
    2^-mz the exponent, and one division by den rounds (internal use)."""
    z = q.bit_length() - 1  # q^m stays out of the integers: mpmath strips its zeros slowly
    return mpf_div(from_man_exp(_horner(coeffs, p, q), -(len(coeffs) - 1) * z), from_int(den),
                   prec, round_nearest)


def harmonic(n: int) -> Fraction:
    """Exact harmonic number H_n = 1 + 1/2 + ... + 1/n (H_0 = 0), cached."""
    if n < 0:
        raise ValueError("harmonic index must be non-negative")
    if n >= len(_HARMONIC):
        with _HARMONIC_LOCK:
            while len(_HARMONIC) <= n:
                i = len(_HARMONIC)
                _HARMONIC.append(_HARMONIC[i - 1] + Fraction(1, i))
    return _HARMONIC[n]
