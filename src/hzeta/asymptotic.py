"""Asymptotic expansions of the generalized log-gamma remainder.

``log Gamma_k(x+1)`` splits into a limiting constant plus a remainder
whose expansion has polynomial-and-log main terms and a divergent
inverse-power tail.  This module builds those expansions symbolically
with exact rational coefficients, evaluates them under optimal
truncation with an explicit error estimate, and integrates them
termwise (the ingredient of the order-raising recursion).

A :class:`TermPoly` is stored *as a polynomial in x* for the remainder
at argument ``x + 1``: evaluating the term list at ``x`` gives the
remainder of ``log Gamma_k`` at ``x + 1``, for orders k >= 0.

Construction rules for the generic order-k series (k >= 1):

* the harmonic chain attached to the r-th binomial term is
  ``log x + H_k - H_{k-r}``;
* the chain attached to the ``x * B_k`` term is ``log x + H_k - 1``,
  and that whole term is dropped at k = 1 (keeping it with B_1 = -1/2
  contradicts the explicit low-order series);
* the inverse-power tail starts at s = 2 (the formal s = 1 term would
  carry (-1)! and is absent).

Each rule is pinned down by the stabilization cross-check against the
exact sums, which would detect any sign or offset slip immediately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp, from_str, fzero, mpf_abs, mpf_add, mpf_gt, mpf_le, mpf_log
from mpmath.libmp import mpf_mul, mpf_pow_int, round_nearest

from .errors import ArgumentTooSmall
from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Real,
    Result,
    _rounding_floor,
    _tangents,
    _to_raw,
    as_exact,
    bernoulli,
    harmonic,
    memo,
)

__all__ = [
    "TermPoly",
    "build_lambda_terms",
    "eval_lambda",
    "eval_term_poly",
    "integrate_lambda_terms",
    "log_coefficient_poly",
    "plan",
    "shift_threshold",
    "tail_length",
]


@dataclass(frozen=True)
class TermPoly:
    """Symbolic expansion: main terms ``coeff * x^power * log(x)^{0,1}``
    plus a tail of ``(num, den, inv_power)`` entries for ``(num / den) * x^(-inv_power)``,
    integers with num != 0 and den > 0, unreduced: fixed point needs no gcd.

    No two main terms share a ``(power, has_log)`` key; tail entries are
    unique in ``inv_power`` and sorted by it.  ``_mpf_coeffs`` maps an
    mpmath precision to the main coefficients as raw mpf values and the
    tail in fixed point (:func:`_coefficients`), filled by
    :func:`eval_term_poly`; it lives and dies with the term list, so
    :func:`~hzeta.mpcore.clear_caches` drops it with the cached lists.
    """

    k: int
    main_terms: tuple[tuple[Fraction, int, bool], ...]
    tail_terms: tuple[tuple[int, int, int], ...]
    _mpf_coeffs: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _merge_main(terms) -> tuple[tuple[Fraction, int, bool], ...]:
    acc: dict[tuple[int, bool], Fraction] = {}
    for c, p, has_log in terms:
        key = (p, has_log)
        acc[key] = acc.get(key, Fraction(0)) + c
    out = [(c, p, l) for (p, l), c in acc.items() if c]
    out.sort(key=lambda t: (-t[1], t[2]))
    return tuple(out)


def _main_terms_generic(k: int) -> list:
    terms = [
        (Fraction(1, k + 1), k + 1, True),
        (Fraction(-1, (k + 1) ** 2), k + 1, False),
        (Fraction(1, 2), k, True),
    ]
    hk = harmonic(k)
    kfac = math.factorial(k)
    for r in range(1, k - 1):
        c = kfac * bernoulli(r + 1) / (math.factorial(r + 1) * math.factorial(k - r))
        if c:
            terms.append((c, k - r, True))
            terms.append((c * (hk - harmonic(k - r)), k - r, False))
    if k >= 2:
        bk = bernoulli(k)
        if bk:
            terms.append((bk, 1, True))
            terms.append((bk * (hk - 1), 1, False))
    terms.append((bernoulli(k + 1) / (k + 1), 0, True))
    return terms


def _tail_generic(k: int, count: int) -> tuple[tuple[int, int, int], ...]:
    """The first ``count`` nonzero entries (-1)^s k! B_{k+s} / ((s-1) s ... (k+s))
    of x^-(s-1), unreduced: with k + s = 2h, num = ±k! 2h T_h and
    den = 4^h (4^h - 1) (s-1) s ... (k+s), from the tangent numbers T_h."""
    # B_{k+s} vanishes for odd k + s, so s steps by 2; one call grows the table
    first = 2 + k % 2
    last = first + 2 * (count - 1)
    bernoulli(k + last)
    tangent = _tangents((k + last) // 2)
    kfac = math.factorial(k)
    rising = math.factorial(k + first) // math.factorial(first - 2)  # (s-1) s ... (k+s)
    out = []
    for s in range(first, last + 1, 2):
        h = (k + s) // 2
        four = 1 << 2 * h
        sign = 1 if (s + h) % 2 else -1
        out.append((sign * kfac * 2 * h * tangent[h], four * (four - 1) * rising, s - 1))
        rising = rising * (k + s + 1) * (k + s + 2) // ((s - 1) * s)
    return tuple(out)


_TOO_SMALL = from_str("1e-3", 53, round_nearest)  # eval_lambda's largest err / |value|


@memo
def build_lambda_terms(k: int, tail_terms: int) -> TermPoly:
    """Symbolic remainder expansion of order k (argument ``x + 1``).

    ``tail_terms`` counts the nonzero inverse-power entries retained.
    """
    if k < 0:
        raise ValueError("expansion order must be non-negative")
    if tail_terms < 1:
        raise ValueError("tail_terms must be >= 1")
    tail = _tail_generic(k, tail_terms)  # first: its largest index covers the main terms'
    if k >= 1:
        main = _main_terms_generic(k)
    else:
        main = [(Fraction(1), 1, True), (Fraction(1, 2), 0, True), (Fraction(-1), 1, False)]
    return TermPoly(k=k, main_terms=_merge_main(main), tail_terms=tail)


def _coefficients(poly: TermPoly, prec: int):
    """A term list's coefficients at precision ``prec``, cached in
    ``poly._mpf_coeffs``: ``(main, wp, frac, tail)``.

    ``main`` holds the main coefficients as raw mpf values (``_mpf_``).
    The tail is in fixed point at ``wp = prec + 10`` bits: each entry
    c = num / den is ``(floor(c 2^wp), d, turn)``, the floor taken as
    ``(num << wp) // den``, with d the step in q from the previous
    entry (from 0 for the first).  Powers of 1/x are held at
    ``frac = wp + g`` bits, g the bit length of the largest |c|, so that a
    factorially large coefficient does not lift a power's truncation above
    2^-wp.  ``turn`` is None for the first entry, else
    ``(log r, num, den, num_prev, den_prev)`` with r = |c / c_prev|: the
    entry's magnitude is at least its predecessor's iff r >= x^d.
    """
    cached = poly._mpf_coeffs.get(prec)
    if cached is None:
        wp = prec + 10
        g = max(abs(num) // den for num, den, _ in poly.tail_terms).bit_length()
        tail = []
        prev, prev_q = None, 0
        for num, den, q in poly.tail_terms:
            log_c = math.log(abs(num)) - math.log(den)
            turn = None if prev is None else (log_c - prev[0], num, den, prev[1], prev[2])
            tail.append(((num << wp) // den, q - prev_q, turn))
            prev, prev_q = (log_c, num, den), q
        main = [_to_raw(c, prec) for c, _, _ in poly.main_terms]
        cached = poly._mpf_coeffs[prec] = (main, wp, wp + g, tail)
    return cached


def _turns(d: int, turn, log_x: float, man: int, exp: int) -> bool:
    """Whether a tail entry's magnitude is at least its predecessor's at
    x = man * 2^exp: r >= x^d, by float logs (good to 1e-12 at 1000 digits)
    unless they are within 1e-9 of a tie, then by exact cross-products."""
    log_ratio, num, den, num_prev, den_prev = turn
    gap = log_ratio - d * log_x
    if abs(gap) > 1e-9:
        return gap > 0
    lhs, rhs = abs(num) * den_prev, den * abs(num_prev) * man**d
    if d * exp < 0:
        lhs <<= -d * exp
    else:
        rhs <<= d * exp
    return lhs >= rhs


def _power_up(base: int, n: int, frac: int) -> int:
    """An upper bound on 2^frac (base 2^-frac)^n, by squaring with every
    product rounded up."""
    power = 1 << frac
    while n:
        if n & 1:
            power = ((power * base) >> frac) + 1
        base, n = ((base * base) >> frac) + 1, n >> 1
    return power


def eval_term_poly(poly: TermPoly, x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Numeric value of a term list at ``x`` plus an error estimate.

    The tail is summed under an optimal-truncation guard: the u entries
    summed are those before the first whose magnitude is not below its
    predecessor's, by a test on exact magnitudes (:func:`_turns`), and
    never the final entry, which only feeds the estimate.

    The main terms and log x are evaluated on raw values at
    ``ctx.bits(5)``, as the mpf operators do it.  The u tail entries
    are summed by Horner's rule in fixed-point Python integers
    (:func:`_coefficients`), ``a <- floor((floor(c 2^wp) + a) s_d 2^-frac)``
    from the last entry down, with ``s_d = floor(2^frac / x^d)`` from x's
    mantissa and exponent, and likewise over |c| for the scale.  The
    summed magnitudes fall, so the bracket of step i (of u) is below
    (u - i) 2^frac, and the step is off by at most 3 + u - i units of
    2^-wp times the powers x^-q it meets: the sum is off by at most
    u (u + 7) / 2 units times the largest x^-q, which is 1 for x >= 1 and
    below x^-q of the held-back entry for x < 1.

    The estimate is twice a bound on the held-back entry, plus a rounding
    floor scaled by the summed magnitudes, plus that fixed-point bound.
    The arithmetic is :func:`_eval_term_poly`'s, which the quadrature
    nodes' level route (:func:`~hzeta.gengamma._series_level`) calls too.

    Returns ``(value, err, tail_terms_used)``.
    """
    prec = ctx.bits(5)
    xv = _to_raw(x, prec)
    if mpf_le(xv, fzero):
        raise ValueError("term-poly argument must be positive")
    total, err, used = _eval_term_poly(poly, xv, ctx, prec)
    return mpmath.mp.make_mpf(total), mpmath.mp.make_mpf(err), used


def _eval_term_poly(poly: TermPoly, xv: tuple, ctx: PrecisionContext, prec: int):
    """:func:`eval_term_poly` at a raw x > 0, as raw ``(value, err, used)``,
    at precision ``prec``, ``ctx.bits(5)``."""
    main_coeffs, wp, frac, tail = _coefficients(poly, prec)
    logx = mpf_log(xv, prec, round_nearest)
    total = scale = fzero
    for c, (_, p, has_log) in zip(main_coeffs, poly.main_terms):
        if p:  # x^1 is exact, and so is c x^0
            c = mpf_mul(c, xv if p == 1 else mpf_pow_int(xv, p, prec, round_nearest),
                        prec, round_nearest)
        if has_log:
            c = mpf_mul(c, logx, prec, round_nearest)
        total = mpf_add(total, c, prec, round_nearest)
        scale = mpf_add(scale, mpf_abs(c), prec, round_nearest)
    _, man, exp, _ = xv
    log_x = math.log(man) + exp * math.log(2)
    used = len(tail) - 1
    for i in range(1, used):
        _, d, turn = tail[i]
        gap = turn[0] - d * log_x  # _turns decides the near ties, within 1e-9
        if gap > 1e-9 or (gap >= -1e-9 and _turns(d, turn, log_x, man, exp)):
            used = i
            break
    steps = {}  # d -> floor(2^frac / x^d)
    acc = acc_abs = 0  # units of 2^-wp
    for fixed, d, _ in reversed(tail[:used]):
        step = steps.get(d)
        if step is None:
            shift = frac - d * exp  # negative: x^d > 2^frac, so the floor is 0
            step = steps[d] = (1 << shift) // man**d if shift >= 0 else 0
        acc = ((fixed + acc) * step) >> frac
        acc_abs = ((abs(fixed) + acc_abs) * step) >> frac
    # 2^frac x^-q of the held-back entry, rounded up from 1/x rounded up
    shift = frac - exp
    inverse = (1 << shift) // man + 1 if shift >= 0 else 1
    power = _power_up(inverse, poly.tail_terms[used][2], frac)
    omitted = ((abs(tail[used][0]) + 1) * (power + 1) >> frac) + 1
    slack = ((used * (used + 7) // 2) * max(power, 1 << frac) >> frac) + 1
    total = mpf_add(total, from_man_exp(acc, -wp, prec, round_nearest), prec, round_nearest)
    scale = mpf_add(scale, from_man_exp(acc_abs, -wp, prec, round_nearest), prec, round_nearest)
    err = mpf_add(from_man_exp(2 * omitted + slack, -wp, prec, round_nearest),
                  _rounding_floor(ctx, scale, prec), prec, round_nearest)
    return total, err, used


def eval_lambda(
    k: int,
    x: Real,
    tail_terms: int | None = None,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
) -> Result:
    """Truncated order-k remainder at argument ``x + 1`` (pass x >= 1).

    At most ``tail_terms`` tail terms are summed, by default the
    :func:`tail_length` at x; ``params["tail_terms"]`` counts those summed.

    Raises :class:`ArgumentTooSmall` when the truncation estimate
    exceeds one part in 10^3 of the value, signalling that the caller
    must shift the argument upward first.
    """
    x = as_exact(x)
    value, err, used = _remainder(k, x, tail_terms, ctx)
    return Result("lambda", k, x, value, err, "truncated-series", {"tail_terms": used})


def _remainder(k: int, x: Fraction, tail_terms: int | None, ctx: PrecisionContext):
    """:func:`eval_lambda` at an exact x, as ``(value, err, tail_terms_used)``."""
    if not x >= 1:
        raise ValueError("series argument must be >= 1; shift first")
    if tail_terms is None:
        tail_terms = tail_length(k, x, ctx)
    if tail_terms < 1:
        raise ValueError("tail_terms must be >= 1")
    poly = build_lambda_terms(k, tail_terms + 1)
    value, err, used = eval_term_poly(poly, x, ctx)
    _check_truncation(k, x.numerator, x.denominator, value._mpf_, err._mpf_, ctx.bits(5))
    return value, err, used


def _check_truncation(k: int, p: int, q: int, value: tuple, err: tuple, prec: int) -> None:
    """Raise :class:`ArgumentTooSmall`, naming x = p/q, when the raw err exceeds 10^-3 |value|."""
    if mpf_gt(err, mpf_mul(_TOO_SMALL, mpf_abs(value), prec, round_nearest)):
        err = mpmath.nstr(mpmath.mp.make_mpf(err), 3)
        raise ArgumentTooSmall(f"truncation error {err} too large for order {k} at "
                               f"x={Fraction(p, q)}")


def integrate_lambda_terms(poly: TermPoly) -> TermPoly:
    """Exact termwise antiderivative (integration constant 0).

    ``x^(-1)`` tail entries promote to log-x main terms.  The order
    bookkeeping advances by one so the result lines up with the
    next-order recursion.
    """
    main = []
    tail = []
    for c, p, has_log in poly.main_terms:
        if has_log:
            main.append((c / (p + 1), p + 1, True))
            main.append((-c / Fraction((p + 1) ** 2), p + 1, False))
        else:
            main.append((c / (p + 1), p + 1, False))
    for num, den, q in poly.tail_terms:
        if q == 1:
            main.append((Fraction(num, den), 0, True))
        else:
            tail.append((-num, den * (q - 1), q - 1))
    return TermPoly(k=poly.k + 1, main_terms=_merge_main(main), tail_terms=tuple(tail))


def log_coefficient_poly(k: int) -> list[Fraction]:
    """Coefficients, by ascending power, of the polynomial multiplying
    ``log x`` in the order-k expansion."""
    if k < 0:
        raise ValueError("order must be non-negative")
    poly = build_lambda_terms(k, 1)
    log_terms = [(c, p) for c, p, has_log in poly.main_terms if has_log]
    degree = max(p for _, p in log_terms)
    out = [Fraction(0)] * (degree + 1)
    for c, p in log_terms:
        out[p] += c
    return out


def shift_threshold(ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
    """Smallest argument at which the truncated series is trusted for
    this precision; smaller arguments must be shifted up."""
    return max(20, math.ceil(0.9 * ctx.target_digits))


def plan(k: int, x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> tuple[int, int]:
    """Shift count n lifting x to :func:`shift_threshold`, and the tail length at x + n,
    both from x's exact value: n is the exact ceiling of t - x, and 0 from t up."""
    t, x = shift_threshold(ctx), as_exact(x)
    n = 0 if x >= t else math.ceil(t - x)
    return n, tail_length(k, x + n, ctx)


def tail_length(k: int, y: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> int:
    """Tail terms to sum for the order-k series at y > 0: the nonzero tail
    entries before the first whose bound falls below 10^-working_digits
    or stops decreasing (near s = 2 pi y), and at least one, so that at
    large y the held-back entry still feeds the estimate.  The entry of
    1/y^(s-1) is at most 2 zeta(2) k! (s-2)! / ((2 pi)^(k+s) y^(s-1)),
    since |B_2m| <= 2 zeta(2) (2m)! / (2 pi)^2m (Johansson,
    arXiv:1309.2877).
    """
    y = as_exact(y)
    try:  # float() rounds p/q to nearest
        log_y = math.log(y)
    except OverflowError:  # beyond float range: from p and q
        log_y = math.log(y.numerator) - math.log(y.denominator)
    floor = -ctx.working_digits * math.log(10)
    log_const = math.log(math.pi**2 / 3) + math.lgamma(k + 1) - k * math.log(2 * math.pi)
    prev = math.inf
    # B_{k+s} vanishes for odd k + s, so only every other s has an entry
    for terms, s in enumerate(itertools.count(2 + k % 2, 2)):
        bound = log_const + math.lgamma(s - 1) - s * math.log(2 * math.pi) - (s - 1) * log_y
        if bound < floor or bound >= prev:
            return max(terms, 1)
        prev = bound
