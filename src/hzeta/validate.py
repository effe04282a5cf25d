"""Cross-checks of the identities tying the package together, plus the
supporting arbitrary-precision quadrature and zeta values at positive
integer argument.

Each check returns a :class:`CheckReport` comparing a residual against
a tolerance assembled from the error estimates of everything that went
into it; failures are reported, never raised.  ``selftest`` runs the
rows of a table of them (``_SUITE``).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import mpmath
from mpmath.libmp import finf, fnan, fninf, fone, from_int, from_man_exp, fzero, mpc_abs, mpf_abs
from mpmath.libmp import mpf_add, mpf_asinh, mpf_cosh_sinh, mpf_div, mpf_exp, mpf_ge, mpf_gt, mpf_le
from mpmath.libmp import mpf_log, mpf_lt, mpf_mul, mpf_mul_int, mpf_neg, mpf_pi, mpf_pow_int, to_int
from mpmath.libmp import mpf_rdiv_int, mpf_shift, mpf_sub, mpf_sum, round_ceiling, round_nearest

from .asymptotic import (
    build_lambda_terms,
    eval_term_poly,
    integrate_lambda_terms,
    log_coefficient_poly,
    shift_threshold,
)
from .constants import gkbj_auto, gkbj_constant
from .errors import NonConvergent
from .gengamma import _log_gengamma_level, _series_level, exact_log_gengamma, log_gengamma
from .hurwitz import _head, hurwitz_deriv, zeta_deriv_neg
from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Real,
    _bernoulli_poly_ints,
    _bernoulli_poly_raw,
    _horner,
    _rounding_floor,
    _to_raw,
    as_exact,
    bernoulli,
    harmonic,
    memo,
    phi,
    to_mpf,
)

__all__ = [
    "CheckReport",
    "quadrature",
    "zeta_positive",
    "bendersky_recursion_check",
    "alt_recursion_check",
    "alexeiewsky_check",
    "general_solution_check",
    "gint_moment_check",
    "jeffery_difference_check",
    "log_coefficient_check",
    "stabilization_check",
    "selftest",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one identity check: passed iff residual <= tolerance.

    Not a :class:`~hzeta.mpcore.Result`: the CLI's selftest lines and the
    benchmark's worker read its name, k, x_or_w, passed and elapsed, which a
    Result would have to carry as extra fields."""

    name: str
    k: Optional[int]
    x_or_w: Optional[Real]
    residual: mpmath.mpf
    tolerance: mpmath.mpf
    passed: bool
    elapsed: float


def _check(body: Callable) -> Callable[..., CheckReport]:
    """The check whose body returns ``(name, k, x_or_w, residual, tolerance)``:
    the call is timed and reported, |residual| taken at mpmath's precision
    outside the body.  The body carries the check's signature and docstring."""

    @functools.wraps(body)
    def check(*args, **kwargs) -> CheckReport:
        t0 = time.perf_counter()
        name, k, x, residual, tolerance = body(*args, **kwargs)
        residual = abs(residual)
        return CheckReport(name, k, x, residual, tolerance, bool(residual <= tolerance),
                           time.perf_counter() - t0)

    return check


def _two_sided(lhs, rhs, ctx: PrecisionContext, *errs) -> tuple:
    """``(lhs - rhs, tolerance)`` of an identity lhs = rhs: the errs summed left
    to right, plus ``ctx.rounding_floor(|lhs| + |rhs| + 1)``, at mpmath's precision."""
    tolerance = sum(errs[1:], errs[0]) + ctx.rounding_floor(abs(lhs) + abs(rhs) + 1)
    return lhs - rhs, tolerance


# ---------------------------------------------------------------------------
# quadrature


@functools.partial(memo, maxsize=32)  # a precision's levels; selftest full uses 6
def _level_nodes(prec: int, level: int, j_max: int) -> tuple:
    """The nodes t = j 2^-level, |j| <= j_max (odd j past level 0), at precision
    prec, as three tuples: cosh t and the distances sig = 1/(1 + exp(+-2u)),
    u = pi/2 sinh t, to b and from a, as the mpf operators form them."""
    rnd, nodes = round_nearest, []
    half_pi = mpf_div(mpf_pi(prec, rnd), from_int(2), prec, rnd)
    for j in (j for j in range(-j_max, j_max + 1) if j % 2 or not level):  # new nodes only
        cosh_t, sinh_t = mpf_cosh_sinh(from_man_exp(j, -level), prec, rnd)
        two_u = mpf_mul_int(mpf_mul(half_pi, sinh_t, prec, rnd), 2, prec, rnd)
        nodes.append((cosh_t, *(mpf_rdiv_int(1, mpf_add(mpf_exp(e, prec, rnd), fone, prec, rnd),
                                             prec, rnd) for e in (two_u, mpf_neg(two_u)))))
    return tuple(zip(*nodes))


def quadrature(
    f: Callable,
    a: Real,
    b: Real,
    ctx: PrecisionContext = DEFAULT_CONTEXT,
    max_level: int = 12,
):
    """Tanh-sinh (double-exponential) quadrature of f over (a, b), real or complex.

    Levels halve the step until one of two exits is reached:

    - the difference between successive estimates is at most the
      convergence target 10^-(target + guard/2) times the scale
      max(1, |estimate|); the error returned is that difference, or the
      rounding floor ``ctx.rounding_floor(scale)`` if larger;
    - the next level's difference, predicted as delta^2 / prev_delta
      from the last two contracting differences, is at or below the
      rounding floor; the current estimate is returned with the rounding
      floor as error, which is what the next level would report.  The
      prediction is exact at a constant contraction ratio and
      overestimates for tanh-sinh, whose ratio only shrinks (Takahasi &
      Mori 1974; Bailey, Jeyabalan & Li 2005), so the skipped level
      could not have changed the error.

    Integrable endpoint singularities of logarithmic type need no
    special handling: node offsets from the endpoints are computed
    without cancellation and the weights decay doubly exponentially.

    A level's nodes are kept, as tanh-sinh codes keep their tables
    (:func:`_level_nodes`); its abscissae over (a, b) are formed on each call,
    and nothing that depends on f is kept.  f is called at each abscissa in
    node order, at ``ctx.workprec(5)``.

    When the level differences stop contracting at a small plateau (the
    integrand itself carries error at that scale) the plateau value is
    returned with the plateau as error.  From level 4 on, a difference
    above 10^-target and above a quarter of the last raises
    :class:`NonConvergent` when a weighted value at the level's outermost
    nodes is above 10^-target too, times the scale or the level's summed
    magnitudes if smaller: the integrand does not vanish at an end of the
    node range (1/t at 0), and its differences shrink by a constant factor
    where a resolved integrand's square.
    """
    make, convert = mpmath.mp.make_mpf, mpmath.mp.convert  # f's values as mpf operators take them

    def level(xs):
        ys = [convert(f(make(x)), strings=False) for x in xs]
        if all(hasattr(y, "_mpf_") for y in ys):
            return [[y._mpf_ for y in ys]]
        # complex: both parts, a node with a non-finite part dropped from both
        zs = [getattr(y, "_mpc_", None) or (y._mpf_, fzero) for y in ys]
        return list(zip(*((fnan, fnan) if any(p in _NONFINITE for p in z) else z for z in zs)))

    with ctx.workprec(5):  # f computes with mpf operators
        value, err = _tanh_sinh(level, a, b, ctx, max_level)
    return make(value[0]) if len(value) == 1 else mpmath.mp.make_mpc(tuple(value)), make(err)


_NONFINITE = (finf, fninf, fnan)


def _tanh_sinh(level: Callable, a: Real, b: Real, ctx: PrecisionContext, max_level: int = 12):
    """:func:`quadrature`'s integrator, raw ``(value, err)`` at precision
    ``ctx.bits(5)``: ``level(xs)`` gives the integrand's raw values at a level's raw
    abscissae xs (a list) as a list of parts, real and imaginary if complex, one
    ``mpf_sum`` per part adds the weighted values, and value lists the parts."""
    prec, rnd = ctx.bits(5), round_nearest
    av, bv = _to_raw(a, prec), _to_raw(b, prec)
    if not mpf_gt(bv, av):
        raise ValueError("need b > a")
    ten = from_int(10)
    target = mpf_pow_int(ten, -(ctx.target_digits + ctx.guard_digits // 2), prec, rnd)
    plateau_limit = mpf_pow_int(ten, -ctx.target_digits, prec, rnd)
    # clip nodes once the endpoint offset falls below working resolution, 2 u_max = (W + 8) log 10
    two_u_max = mpf_mul_int(mpf_log(ten, prec, rnd), ctx.working_digits + 8, prec, rnd)
    t_max = mpf_asinh(mpf_div(two_u_max, mpf_pi(prec, rnd), prec, rnd), prec, rnd)
    wv = mpf_sub(bv, av, prec, rnd)
    width_pi = mpf_mul(wv, mpf_pi(prec, rnd), prec, rnd)

    def level_terms(level_no):
        j_max = to_int(mpf_shift(t_max, level_no), round_ceiling)  # ceil(t_max / h)
        nodes = _level_nodes(prec, level_no, j_max)
        wgts = [mpf_mul(mpf_mul(mpf_mul(width_pi, cosh_t, prec, rnd), lo, prec, rnd), hi, prec, rnd)
                for cosh_t, lo, hi in zip(*nodes)]
        # abscissae: b - width sig_lo or a + width sig_hi, whichever offset is the smaller
        ys = level([mpf_sub(bv, mpf_mul(wv, lo, prec, rnd), prec, rnd) if mpf_lt(lo, hi)
                    else mpf_add(av, mpf_mul(wv, hi, prec, rnd), prec, rnd)
                    for _, lo, hi in zip(*nodes)])
        # a non-finite value is an endpoint blow-up at a node whose weight already squashes it
        return [[mpf_mul(wgt, y, prec, rnd) for wgt, y in zip(wgts, part, strict=True)
                 if y not in _NONFINITE] for part in ys]

    def sums(op, xs, ys):  # part by part
        return [op(x, y, prec, rnd) for x, y in itertools.zip_longest(xs, ys, fillvalue=fzero)]

    def magnitude(parts):
        return mpf_abs(parts[0]) if len(parts) == 1 else mpc_abs(tuple(parts), prec, rnd)

    def above(x, limit, scale):
        return mpf_gt(x, mpf_mul(limit, scale, prec, rnd))

    grid_sum = estimate = [mpf_sum(part, prec, rnd) for part in level_terms(0)]  # h = 1
    prev_delta = None
    for level_no in range(1, max_level + 1):
        terms = level_terms(level_no)
        grid_sum = sums(mpf_add, grid_sum, [mpf_sum(part, prec, rnd) for part in terms])
        new_estimate = [mpf_shift(g, -level_no) for g in grid_sum]  # h * grid_sum, h = 2^-level
        delta = magnitude(sums(mpf_sub, new_estimate, estimate))
        estimate = new_estimate
        scale = magnitude(estimate) if mpf_gt(magnitude(estimate), fone) else fone
        floor = _rounding_floor(ctx, scale, prec)
        if not above(delta, target, scale):
            return estimate, floor if mpf_gt(floor, delta) else delta
        if level_no >= 4 and above(delta, plateau_limit, scale):
            ref = mpf_sum([mpf_sum(part, prec, rnd, absolute=True) for part in terms], prec, rnd)
            ref = ref if mpf_lt(ref, scale) else scale
            if not mpf_lt(delta, prev_delta) or (
                    mpf_gt(mpf_mul_int(delta, 4, prec, rnd), prev_delta) and any(
                        above(mpf_abs(y), plateau_limit, ref)
                        for part in terms if part for y in (part[0], part[-1]))):
                raise NonConvergent("level differences stalled at "
                                    f"{mpmath.nstr(mpmath.mp.make_mpf(delta), 3)}")
        elif level_no >= 4 and not mpf_lt(delta, prev_delta):
            return estimate, mpf_mul_int(delta, 2, prec, rnd)
        if prev_delta is not None and mpf_lt(delta, prev_delta):
            if mpf_le(mpf_div(mpf_pow_int(delta, 2, prec, rnd), prev_delta, prec, rnd), floor):
                return estimate, floor
        prev_delta = delta
    if prev_delta is not None and not above(prev_delta, plateau_limit, scale):
        return estimate, mpf_mul_int(prev_delta, 2, prec, rnd)
    raise NonConvergent(f"no convergence after {max_level} levels")


def _route_integral(route: Callable, k: int, b: Real, ctx: PrecisionContext, shift=0, power=0):
    """``(value, err, node_err)`` of int_0^b (b - t)^power R(t + shift) dt by
    :func:`_tanh_sinh`, with ``route(k, nodes, ctx)`` giving R's raw
    ``(value, err)`` pairs for a level's raw nodes, and node_err the largest
    err of any node.  Each value takes the mpf operations of the scalar
    ``(b - t) ** power * R(t + shift)`` (R alone at power 0), and keeps its bits."""
    prec, rnd = ctx.bits(5), round_nearest  # the quadrature's
    end, sv = _to_raw(as_exact(b), prec), from_int(shift)
    node_err = fzero

    def level(ts):
        nonlocal node_err
        zs = [mpf_add(t, sv, prec, rnd) for t in ts] if shift else ts
        ys = []
        for t, (y, err) in zip(ts, route(k, zs, ctx), strict=True):
            if mpf_gt(err, node_err):
                node_err = err
            if power:
                y = mpf_mul(mpf_pow_int(mpf_sub(end, t, prec, rnd), power, prec, rnd), y, prec, rnd)
            ys.append(y)
        return [ys]

    (value,), err = _tanh_sinh(level, 0, b, ctx)
    return tuple(map(mpmath.mp.make_mpf, (value, err, node_err)))


def _alt_integrand_level(k: int, ts: tuple, ctx: PrecisionContext):
    """The alternative recursion's integrand at each raw node t of a level, with
    the err of zeta'(-k, t) and the bits of ``hurwitz_deriv(k, t).value +
    bernoulli_poly(k + 1, t) / (k + 1) ** 2``, raw, at ``ctx.bits(5)``."""
    prec, rnd = ctx.bits(5), round_nearest
    den = from_int((k + 1) ** 2)
    pairs = _series_level(k, ts, _head(k, prec), 0, ctx)
    return [(mpf_add(d, mpf_div(_bernoulli_poly_raw(k + 1, t, prec), den, prec, rnd), prec, rnd),
             err) for t, (d, err) in zip(ts, pairs, strict=True)]


# ---------------------------------------------------------------------------
# zeta at positive integers


@memo
def _zeta_correction(j: int, prec: int) -> tuple:
    """B_2j/(2j)!, raw, rounded at precision ``prec`` as to_mpf rounds it."""
    return _to_raw(bernoulli(2 * j) / math.factorial(2 * j), prec)


def zeta_positive(s: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> mpmath.mpf:
    """zeta(s) for integer s >= 2: direct sum to N terms plus an
    Euler-Maclaurin tail, N grown until the tail bound clears the
    working precision, on raw values in the order of the mpf expressions.
    The rounded B_2j/(2j)! are kept per precision (:func:`_zeta_correction`);
    the value is computed afresh every call."""
    if not isinstance(s, int) or s < 2:
        raise ValueError("argument must be an integer >= 2")
    with ctx.workprec(5):
        prec, rnd = mpmath.mp.prec, round_nearest
        bound = mpf_pow_int(from_int(10), -(ctx.working_digits + 3), prec, rnd)
        n = max(16, ctx.working_digits)
        while True:
            head = mpf_sum([mpf_pow_int(from_int(i), -s, prec, rnd) for i in range(1, n)],
                           prec, rnd)
            nf = from_int(n)
            nf2 = mpf_pow_int(nf, 2, prec, rnd)
            for e, den in ((1 - s, s - 1), (-s, 2)):  # head + n^(1-s)/(s-1) + n^-s/2
                term = mpf_div(mpf_pow_int(nf, e, prec, rnd), from_int(den), prec, rnd)
                head = mpf_add(head, term, prec, rnd)
            # corrections: B_2j/(2j)! * s(s+1)...(s+2j-2) * n^(1-s-2j)
            rising = from_int(s)
            power = mpf_pow_int(nf, -s - 1, prec, rnd)
            correction = fzero
            prev_mag = None
            for j in range(1, 80):
                term = mpf_mul(mpf_mul(_zeta_correction(j, prec), rising, prec, rnd), power,
                               prec, rnd)
                mag = mpf_abs(term)
                if mpf_lt(mag, bound):
                    return mpmath.mp.make_mpf(mpf_add(head, correction, prec, rnd))
                if prev_mag is not None and mpf_ge(mag, prev_mag):
                    break  # asymptotic tail turned: n too small
                correction = mpf_add(correction, term, prec, rnd)
                prev_mag = mag
                rising = mpf_mul_int(rising, (s + 2 * j - 1) * (s + 2 * j), prec, rnd)
                power = mpf_div(power, nf2, prec, rnd)
            n *= 2


# ---------------------------------------------------------------------------
# identity checks


@_check
def bendersky_recursion_check(
    k: int, x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CheckReport:
    """Order-raising recursion: the order-(k+1) remainder equals
    (k+1) * (termwise integral of the order-k remainder) plus the exact
    power-sum and harmonic-number corrections, up to a constant.

    The integration constant is fixed by matching both sides at a
    reference point, so the residual probes the functional relation.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    x_ref = 2 * shift_threshold(ctx)
    upper = build_lambda_terms(k + 1, 20 + 1)  # 20 tail terms, one held back
    lower = _integrated_lambda_terms(k, 20 + 1)
    hk_bk1 = harmonic(k) * bernoulli(k + 1)
    with ctx.workprec(5):

        def sides(pt):
            lv, le, _ = eval_term_poly(upper, pt, ctx)
            rv, re, _ = eval_term_poly(lower, pt, ctx)
            pe = as_exact(pt)
            if isinstance(pe, Fraction):
                corr = to_mpf(phi(k + 1, pe + 1) / (k + 1) + hk_bk1 * pe)
            else:
                corr = phi(k + 1, pe + 1) / (k + 1) + to_mpf(hk_bk1) * pe
            return lv, (k + 1) * rv + corr, le + (k + 1) * re

        left_x, right_x, err_x = sides(x)
        left_r, right_r, err_r = sides(x_ref)
        residual = (left_x - left_r) - (right_x - right_r)
        tolerance = err_x + err_r + ctx.rounding_floor(abs(left_x) + abs(left_r))
    return "bendersky-recursion", k, x, residual, tolerance


@memo
def _integrated_lambda_terms(k: int, tail_terms: int):
    """The termwise integral of ``build_lambda_terms(k, tail_terms)``, kept
    so that its fixed-point coefficients are made once per precision."""
    return integrate_lambda_terms(build_lambda_terms(k, tail_terms))


@_check
def alt_recursion_check(
    k: int, x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CheckReport:
    """Integral recursion between consecutive orders of the derivative:

        (k+1) * int_0^x [zeta'(-k,t) - zeta(-k,t)/(k+1)] dt
            = zeta'(-k-1, x) - zeta'(-k-1)

    with zeta(-k, t) = -B_{k+1}(t)/(k+1).
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    with ctx.workprec(5):
        qval, qerr, node_err = _route_integral(_alt_integrand_level, k, x, ctx)
        top = hurwitz_deriv(k + 1, x, ctx)
        base = zeta_deriv_neg(k + 1, ctx)
        xf = to_mpf(as_exact(x))
        return ("alt-recursion", k, x,
                *_two_sided((k + 1) * qval, top.value - base.value, ctx,
                            (k + 1) * (qerr + xf * node_err), top.err, base.err))


@_check
def alexeiewsky_check(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CheckReport:
    """Closed form for the integral of the ordinary log-gamma:

        log Gamma_1(x+1) = int_0^x log Gamma(t+1) dt + x(x+1)/2
                           - x log sqrt(2 pi)

    with log sqrt(2 pi) supplied by the order-0 limiting constant.
    """
    xe = as_exact(x)
    with ctx.workprec(5):
        lhs = log_gengamma(1, xe + 1, ctx)
        qval, qerr, node_err = _route_integral(_log_gengamma_level, 0, x, ctx, shift=1)
        base = gkbj_auto(0, ctx)
        if isinstance(xe, Fraction):
            poly_part = to_mpf(xe * (xe + 1) / 2)
        else:
            poly_part = xe * (xe + 1) / 2
        xf = to_mpf(xe)
        rhs = qval + poly_part - xf * base.value
        return ("alexeiewsky", None, x,
                *_two_sided(lhs.value, rhs, ctx, lhs.err, qerr, xf * node_err, xf * base.err))


@_check
def general_solution_check(
    k: int, x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CheckReport:
    """Closed-form solution of the recursion:

        log Gamma_k(x+1) = k! I_k(x) + H_k phi_k(x+1) - psi_k(x)

    with I_k(x) the nested integral of log Gamma(t+1) reduced to the
    single fractional integral
    (1/(k-1)!) int_0^x (x-t)^(k-1) log Gamma(t+1) dt, and
    psi_k(x) = sum_r C(k,r) L_r x^(k-r).
    """
    if not 1 <= k <= 3:
        raise ValueError("checked for orders 1..3")
    xe = as_exact(x)
    with ctx.workprec(5):
        xf = to_mpf(xe)
        qval, qerr, node_err = _route_integral(_log_gengamma_level, 0, x, ctx, shift=1,
                                               power=k - 1)
        # k! I_k = k! /(k-1)! * integral = k * integral
        main = k * qval
        main_err = k * (qerr + xf**k * node_err)
        psi = mpmath.mpf(0)
        psi_err = mpmath.mpf(0)
        for r in range(k):
            rec = gkbj_auto(r, ctx)
            if isinstance(xe, Fraction):
                weight = to_mpf(math.comb(k, r) * xe ** (k - r))
            else:
                weight = math.comb(k, r) * xf ** (k - r)
            psi += weight * rec.value
            psi_err += abs(weight) * rec.err
        if isinstance(xe, Fraction):
            hk_phi = to_mpf(harmonic(k) * phi(k, xe + 1))
        else:
            hk_phi = to_mpf(harmonic(k)) * phi(k, xf + 1)
        rhs = main + hk_phi - psi
        lhs = log_gengamma(k, xe + 1, ctx)
        return ("general-solution", k, x,
                *_two_sided(lhs.value, rhs, ctx, lhs.err, main_err, psi_err))


@_check
def gint_moment_check(
    k: int, ctx: PrecisionContext = DEFAULT_CONTEXT, gamma_variant: bool = False
) -> CheckReport:
    """Moment integrals of log-gamma over the unit interval:

        k int_0^1 (1-t)^(k-1) log Gamma(t+1) dt
            = sum_{r<k} C(k,r) (H_r B_{r+1}/(r+1) - zeta'(-r))
              - H_k [1/2 + (1 + sum_{r=2}^k C(k+1,r) B_r)/(k+1)]

    With ``gamma_variant`` (k = 2 only) the integrand uses log Gamma(t)
    and the closed form becomes -zeta'(0) - 2 zeta'(-1) + 1/6.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if gamma_variant and k != 2:
        raise ValueError("the log Gamma(t) variant is the k = 2 identity")
    with ctx.workprec(5):  # log Gamma(t + 1), or log Gamma(t) at k = 2 with power 1
        qval, qerr, node_err = _route_integral(_log_gengamma_level, 0, 1, ctx,
                                               shift=0 if gamma_variant else 1, power=k - 1)
        if gamma_variant:
            d0 = zeta_deriv_neg(0, ctx)
            d1 = zeta_deriv_neg(1, ctx)
            rhs = -d0.value - 2 * d1.value + to_mpf(Fraction(1, 6))
            deriv_err = d0.err + 2 * d1.err
        else:
            rhs = mpmath.mpf(0)
            deriv_err = mpmath.mpf(0)
            for r in range(k):
                d = zeta_deriv_neg(r, ctx)
                c = math.comb(k, r)
                rhs += c * (to_mpf(harmonic(r) * bernoulli(r + 1) / (r + 1)) - d.value)
                deriv_err += c * d.err
            bracket = Fraction(1, 2) + (
                1 + sum(math.comb(k + 1, r) * bernoulli(r) for r in range(2, k + 1))
            ) / Fraction(k + 1)
            rhs -= to_mpf(harmonic(k) * bracket)
        name = "gint-moment-gamma-variant" if gamma_variant else "gint-moment"
        return name, k, 1, *_two_sided(k * qval, rhs, ctx, k * (qerr + node_err), deriv_err)


@_check
def jeffery_difference_check(
    k: int, x: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CheckReport:
    """Forward difference of the exact sums: moving the upper limit from
    x to x+1 adds exactly (x+1)^k log(x+1)."""
    if not isinstance(x, int) or x < 1:
        raise ValueError("difference point must be a positive integer")
    hi = exact_log_gengamma(k, x + 1, ctx)
    lo = exact_log_gengamma(k, x, ctx)
    with ctx.workprec(5):
        step = mpmath.mpf((x + 1) ** k) * mpmath.log(x + 1)
        residual = hi.value - lo.value - step
        tolerance = ctx.rounding_floor(abs(hi.value) + abs(step) + 1)
    return "jeffery-difference", k, x, residual, tolerance


@_check
def log_coefficient_check(k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CheckReport:
    """The polynomial multiplying log x in the order-k expansion equals
    B_{k+1}(x+1)/(k+1), exactly, at every integer 1 <= x <= 20."""
    # each side in integers over one denominator: lcm, and den (k+1) for B_{k+1}(x+1)/(k+1)
    coeffs = log_coefficient_poly(k)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    values = [c.numerator * (lcm // c.denominator) for c in reversed(coeffs)]
    a, den = _bernoulli_poly_ints(k + 1)
    bad = sum(_horner(values, x, 1) * den * (k + 1) != _horner(a, x + 1, 1) * lcm
              for x in range(1, 21))
    return "log-coefficient", k, None, mpmath.mpf(bad), mpmath.mpf("0.5")


@_check
def stabilization_check(
    k: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CheckReport:
    """The trial-method constant must not depend on the trial argument:
    values at w = 50, 100, 200 (20 tail terms) agree within their
    reported errors.  The strongest detector of a slip in the series."""
    records = [gkbj_constant(k, w, 20, ctx) for w in (50, 100, 200)]
    with ctx.workprec():
        values = [r.value for r in records]
        residual = max(values) - min(values)
        tolerance = 2 * max(r.err for r in records) + ctx.rounding_floor(1)
    return "stabilization", k, None, residual, tolerance


def _unit_integral(name: str, f: Callable, exact: int, ctx: PrecisionContext) -> tuple:
    """The body of the check int_0^1 f = exact by :func:`quadrature`, within its
    err and the rounding floor at 1."""
    val, err = quadrature(f, 0, 1, ctx)
    with ctx.workprec():
        return name, None, None, val - exact, err + ctx.rounding_floor(1)


@_check
def _quadrature_unit_check(ctx) -> CheckReport:
    return _unit_integral("quadrature-constant", lambda t: mpmath.mpf(1), 1, ctx)


@_check
def _quadrature_log_check(ctx) -> CheckReport:
    return _unit_integral("quadrature-log-singular", mpmath.log, -1, ctx)


@_check
def _raabe_integral_check(ctx) -> CheckReport:
    """int_0^1 log Gamma(t+1) dt = log sqrt(2 pi) - 1, with both sides
    built from the package's own order-0 machinery."""
    with ctx.workprec(5):
        val, err, node_err = _route_integral(_log_gengamma_level, 0, 1, ctx, shift=1)
        base = gkbj_auto(0, ctx)
        residual = val - (base.value - 1)
        tolerance = err + node_err + base.err + ctx.rounding_floor(1)
    return "raabe-integral", None, None, residual, tolerance


@_check
def _zeta_even_check(m: int, ctx) -> CheckReport:
    """zeta(2m) against the closed form pi^(2m) |B_2m| 2^(2m-1)/(2m)!."""
    s = 2 * m
    with ctx.workprec(5):
        value = zeta_positive(s, ctx)
        closed = (
            mpmath.pi**s
            * to_mpf(abs(bernoulli(s)))
            * mpmath.mpf(2) ** (s - 1)
            / math.factorial(s)
        )
        residual = value - closed
        tolerance = ctx.rounding_floor(abs(closed) * 10)
    return "zeta-even-closed-form", s, None, residual, tolerance


# selftest's (check, args, kwargs, in_quick) rows, in order, ctx passed as a keyword;
# perfbench's identity-suite workload repeats them, and tests/test_validate.py pins the copy
_SUITE = (
    [(_quadrature_unit_check, (), {}, True), (_quadrature_log_check, (), {}, True)]
    + [(_zeta_even_check, (m,), {}, True) for m in (1, 2, 3)]
    + [(jeffery_difference_check, (k, x), {}, True) for k, x in ((0, 1), (1, 2), (4, 7))]
    + [(log_coefficient_check, (k,), {}, k < 5) for k in range(7)]
    + [(stabilization_check, (k,), {}, k < 3) for k in range(7)]
    + [(bendersky_recursion_check, (0, 100), {}, True), (_raabe_integral_check, (), {}, True)]
    + [(bendersky_recursion_check, (k, x), {}, False) for k, x in ((1, 100), (2, 50))]
    + [(alt_recursion_check, (k, x), {}, False) for k, x in ((0, 1), (0, 2), (1, 3))]
    + [(alexeiewsky_check, (x,), {}, False) for x in (1, 2, Fraction(11, 2))]
    + [(general_solution_check, (k, x), {}, False)
       for k, x in ((1, 1), (2, 2), (2, Fraction(5, 2)), (3, 1))]
    + [(gint_moment_check, (k,), {}, False) for k in range(1, 6)]
    + [(gint_moment_check, (2,), {"gamma_variant": True}, False)]
    + [(jeffery_difference_check, (k, x), {}, False) for k in range(7) for x in (1, 2, 7)]
)


def selftest(
    level: str = "quick", ctx: PrecisionContext = DEFAULT_CONTEXT
) -> list[CheckReport]:
    """Run the identity suite; 'quick' covers the cheap checks, 'full'
    the complete grid.  Failures are collected in the reports, never
    raised."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    return [check(*args, ctx=ctx, **kwargs) for check, args, kwargs, in_quick in _SUITE
            if in_quick or level == "full"]
