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
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .errors import ArgumentTooSmall
from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Real,
    Result,
    bernoulli,
    harmonic,
    register_cache_clearer,
    to_mpf,
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
    plus a tail of ``coeff * x^(-inv_power)`` entries.

    No two main terms share a ``(power, has_log)`` key; tail entries are
    unique in ``inv_power`` and sorted by it.  ``_mpf_coeffs`` maps an
    mpmath precision to the main coefficients as mpf and the tail in
    fixed point (:func:`_coefficients`), filled by
    :func:`eval_term_poly`; it lives and dies with the term list, so
    :func:`~hzeta.mpcore.clear_caches` drops it with the cached lists.
    """

    k: int
    main_terms: tuple[tuple[Fraction, int, bool], ...]
    tail_terms: tuple[tuple[Fraction, int], ...]
    _mpf_coeffs: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _merge_main(terms) -> tuple[tuple[Fraction, int, bool], ...]:
    acc: dict[tuple[int, bool], Fraction] = {}
    for c, p, has_log in terms:
        key = (p, has_log)
        acc[key] = acc.get(key, Fraction(0)) + c
    out = [(c, p, l) for (p, l), c in acc.items() if c]
    out.sort(key=lambda t: (-t[1], t[2]))
    return tuple(out)


def _merge_tail(terms) -> tuple[tuple[Fraction, int], ...]:
    acc: dict[int, Fraction] = {}
    for c, q in terms:
        acc[q] = acc.get(q, Fraction(0)) + c
    out = [(c, q) for q, c in acc.items() if c]
    out.sort(key=lambda t: t[1])
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


def _tail_generic(k: int, count: int) -> list:
    # B_{k+s} vanishes for odd k + s: the count nonzero entries sit at
    # every other s from 2 + k % 2, and the largest index grows the table once
    first = 2 + k % 2
    bernoulli(k + first + 2 * (count - 1))
    kfac = math.factorial(k)
    out = []
    for s in range(first, first + 2 * count, 2):
        b = bernoulli(k + s)
        sign = -1 if s % 2 else 1
        c = Fraction(sign * kfac * math.factorial(s - 2) * b.numerator,
                     math.factorial(k + s) * b.denominator)
        out.append((c, s - 1))
    return out


_TERMS_CACHE: dict[tuple[int, int], TermPoly] = {}
_TERMS_LOCK = threading.Lock()


@register_cache_clearer
def _clear_terms_cache() -> None:
    _TERMS_CACHE.clear()


def build_lambda_terms(k: int, tail_terms: int) -> TermPoly:
    """Symbolic remainder expansion of order k (argument ``x + 1``).

    ``tail_terms`` counts the nonzero inverse-power entries retained.
    """
    if k < 0:
        raise ValueError("expansion order must be non-negative")
    if tail_terms < 1:
        raise ValueError("tail_terms must be >= 1")
    key = (k, tail_terms)
    poly = _TERMS_CACHE.get(key)
    if poly is not None:
        return poly
    tail = _tail_generic(k, tail_terms)  # first: its largest index covers the main terms'
    if k >= 1:
        main = _main_terms_generic(k)
    else:
        main = [(Fraction(1), 1, True), (Fraction(1, 2), 0, True), (Fraction(-1), 1, False)]
    poly = TermPoly(k=k, main_terms=_merge_main(main), tail_terms=_merge_tail(tail))
    with _TERMS_LOCK:
        _TERMS_CACHE[key] = poly
    return poly


def _coefficients(poly: TermPoly):
    """A term list's coefficients at the ambient mpmath precision, cached
    in ``poly._mpf_coeffs``: ``(main, wp, frac, tail)``.

    ``main`` holds the main coefficients as mpf.  The tail is in fixed
    point at ``wp = mp.prec + 10`` bits: each entry is
    ``(floor(c 2^wp), d, turn)`` with d the step in q from the previous
    entry (from 0 for the first).  Powers of 1/x are held at
    ``frac = wp + g`` bits, g the bit length of the largest |c|, so that a
    factorially large coefficient does not lift a power's truncation above
    2^-wp.  ``turn`` is None for the first entry, else ``(log r, r)`` with
    r = |c / c_prev| exact: the entry's magnitude is at least its
    predecessor's iff r >= x^d.
    """
    cached = poly._mpf_coeffs.get(mpmath.mp.prec)
    if cached is None:
        wp = mpmath.mp.prec + 10
        g = max(abs(c.numerator) // c.denominator for c, _ in poly.tail_terms).bit_length()
        tail = []
        prev, prev_q = None, 0
        for c, q in poly.tail_terms:
            turn = None
            if prev is not None:
                ratio = abs(c / prev)
                turn = (math.log(ratio.numerator) - math.log(ratio.denominator), ratio)
            tail.append(((c.numerator << wp) // c.denominator, q - prev_q, turn))
            prev, prev_q = c, q
        main = [to_mpf(c) for c, _, _ in poly.main_terms]
        cached = poly._mpf_coeffs[mpmath.mp.prec] = (main, wp, wp + g, tail)
    return cached


def _turns(d: int, turn, log_x: float, man: int, exp: int) -> bool:
    """Whether a tail entry's magnitude is at least its predecessor's at
    x = man * 2^exp: r >= x^d, by float logs (good to about 1e-13 here)
    unless they are within 1e-9 of a tie, then exactly."""
    log_ratio, ratio = turn
    gap = log_ratio - d * log_x
    if abs(gap) > 1e-9:
        return gap > 0
    lhs, rhs = ratio.numerator, ratio.denominator * man**d
    if d * exp < 0:
        lhs <<= -d * exp
    else:
        rhs <<= d * exp
    return lhs >= rhs


def eval_term_poly(poly: TermPoly, x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT):
    """Numeric value of a term list at ``x`` plus an error estimate.

    The tail is summed in order under an optimal-truncation guard: once
    term magnitudes start growing, summation stops at the smallest term.
    That test compares exact magnitudes (:func:`_turns`).  The final tail
    entry is never summed and only feeds the estimate.

    The main terms and log x are evaluated in mpf.  The tail is summed
    in fixed-point Python integers (:func:`_coefficients`): 1/x comes once
    from x's mantissa and exponent, and each x^-q from the previous power
    by one multiplication.  Every truncation is a floor, and a bound on
    how far each summed term can fall below its exact value is carried
    along, a few units of 2^-wp per term.

    The estimate is twice a bound on the first omitted tail term, plus a
    rounding floor scaled by the summed magnitudes, plus that absolute
    fixed-point bound.

    Returns ``(value, err, tail_terms_used)``.
    """
    with ctx.workprec(5):
        xf = to_mpf(x)
        if xf <= 0:
            raise ValueError("term-poly argument must be positive")
        logx = mpmath.log(xf)
        main_coeffs, wp, frac, tail = _coefficients(poly)
        total = mpmath.mpf(0)
        scale = mpmath.mpf(0)
        for c, (_, p, has_log) in zip(main_coeffs, poly.main_terms):
            term = c * xf**p
            if has_log:
                term *= logx
            total += term
            scale += abs(term)
        man, exp = xf.man_exp
        log_x = math.log(man) + exp * math.log(2)
        steps = {}  # d -> floor(2^frac / x^d)
        n_avail = len(tail) - 1
        acc = acc_abs = slack = omitted = 0  # units of 2^-wp
        # floor(2^frac x^-q), short of the exact value by at most e
        power, e = 1 << frac, 0
        used = 0
        for i, (fixed, d, turn) in enumerate(tail):
            step = steps.get(d)
            if step is None:
                shift = frac - d * exp  # negative: x^d > 2^frac, so the floor is 0
                step = steps[d] = (1 << shift) // man**d if shift >= 0 else 0
            power, e = (power * step) >> frac, ((e * (step + 1) + power) >> frac) + 2
            term = (fixed * power) >> frac
            # |term - c x^-q 2^wp|: the power's shortfall times |c| < 2^g, the
            # coefficient's floor times x^-q, and this product's floor
            bound = e + ((power + 2 * e) >> frac) + 2
            if i >= n_avail or (turn is not None and _turns(d, turn, log_x, man, exp)):
                omitted = abs(term) + bound
                break
            acc += term
            acc_abs += abs(term)
            slack += bound
            used += 1
        total += mpmath.mpf((acc, -wp))
        scale += mpmath.mpf((acc_abs, -wp))
        err = mpmath.mpf((2 * omitted + slack, -wp)) + ctx.rounding_floor(scale)
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
    if not x >= 1:
        raise ValueError("series argument must be >= 1; shift first")
    if tail_terms is None:
        tail_terms = tail_length(k, x, ctx)
    if tail_terms < 1:
        raise ValueError("tail_terms must be >= 1")
    poly = build_lambda_terms(k, tail_terms + 1)
    value, err, used = eval_term_poly(poly, x, ctx)
    if err > mpmath.mpf("1e-3") * abs(value):
        raise ArgumentTooSmall(
            f"truncation error {mpmath.nstr(err, 3)} too large for order {k} at x={x}"
        )
    return Result("lambda", k, x, value, err, "truncated-series", {"tail_terms": used})


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
    for c, q in poly.tail_terms:
        if q == 1:
            main.append((c, 0, True))
        else:
            tail.append((-c / (q - 1), q - 1))
    return TermPoly(k=poly.k + 1, main_terms=_merge_main(main), tail_terms=_merge_tail(tail))


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
    """Shift count n lifting x to :func:`shift_threshold`, and the tail length at x + n."""
    n = max(0, math.ceil(shift_threshold(ctx) - x))
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
    log_y = math.log(y)
    floor = -ctx.working_digits * math.log(10)
    log_const = math.log(math.pi**2 / 3) + math.lgamma(k + 1) - k * math.log(2 * math.pi)
    prev = math.inf
    # B_{k+s} vanishes for odd k + s, so only every other s has an entry
    for terms, s in enumerate(itertools.count(2 + k % 2, 2)):
        bound = log_const + math.lgamma(s - 1) - s * math.log(2 * math.pi) - (s - 1) * log_y
        if bound < floor or bound >= prev:
            return max(terms, 1)
        prev = bound
