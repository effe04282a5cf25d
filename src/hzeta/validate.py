"""Cross-checks of the identities tying the package together, plus the
supporting arbitrary-precision quadrature and zeta values at positive
integer argument.

Two quadrature rules: tanh-sinh, with its a posteriori exits, for the public
:func:`quadrature`, whose integrand is unknown, and Gauss-Legendre for every
route integral, (b - t)^power R(t + 1) with R log Gamma or zeta'(-k, .), analytic
on [0, b] and taken by its series route at every node, one rule per piece, its
size fixed by a remainder bound before any evaluation; the route integral's err
holds the nodes' errs too.  A check whose integrand is singular at 0 subtracts
that end.

Each check returns a :class:`CheckReport` comparing a residual against
a tolerance assembled from the error estimates of everything that went
into it, both formed exactly from the routes' values and errs, so that no
check reads or sets mpmath's precision; failures are reported, never
raised.  ``selftest`` runs the rows of a table of them (``_SUITE``).
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
from .errors import HzetaError, NonConvergent
from .gengamma import _log_gengamma_level, _series_level, exact_log_gengamma, log_gengamma
from .hurwitz import _head, hurwitz_deriv, zeta_deriv_neg
from .mpcore import (
    DEFAULT_CONTEXT,
    PrecisionContext,
    Real,
    _bernoulli_poly_ints,
    _horner,
    _poly_raw,
    _ratio,
    _rounding_floor,
    _to_raw,
    as_exact,
    bernoulli,
    harmonic,
    memo,
    phi,
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
    """Outcome of one identity check: passed iff |residual| <= tolerance,
    decided exactly; the fields hold their roundings at ``ctx.bits(5)``.

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
    """The check whose body, a generator, yields its report's ``(name, k, x_or_w)``
    once its arguments are checked, then returns the exact ``(residual,
    tolerance, ctx)``: the call is timed and reported.  A :class:`HzetaError`
    from the body is a failed report with residual and tolerance NaN.  The
    body carries the check's signature and docstring."""

    @functools.wraps(body)
    def check(*args, **kwargs) -> CheckReport:
        t0 = time.perf_counter()
        steps = body(*args, **kwargs)
        label = next(steps)  # the argument checks raise here
        try:
            next(steps)
        except StopIteration as done:
            residual, tolerance, ctx = done.value
        except HzetaError:
            nan = mpmath.mp.make_mpf(fnan)
            return CheckReport(*label, nan, nan, False, time.perf_counter() - t0)
        residual, prec = abs(residual), ctx.bits(5)
        return CheckReport(*label, _rounded(residual, prec, round_nearest),
                           _rounded(tolerance, prec, round_ceiling), residual <= tolerance,
                           time.perf_counter() - t0)

    return check


def _exact(v) -> Fraction:
    """The value of an int, a Fraction, an mpf or a raw mpf, exactly."""
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    try:
        return Fraction(*_ratio(getattr(v, "_mpf_", v)))
    except ValueError:
        raise HzetaError("a non-finite value in an identity check") from None


def _rounded(v: Fraction, prec: int, rnd: str) -> mpmath.mpf:
    """v rounded once, at precision prec in the direction rnd."""
    return mpmath.mp.make_mpf(mpf_div(from_int(v.numerator), from_int(v.denominator), prec, rnd))


def _floor(ctx: PrecisionContext, scale: Fraction) -> Fraction:
    """``ctx.rounding_floor(scale)`` of a scale >= 0, exactly: scale 10^-(W-2)."""
    return Fraction(scale, 10 ** (ctx.working_digits - 2))


def _two_sided(lhs, rhs, ctx: PrecisionContext, *errs) -> tuple:
    """``(lhs - rhs, tolerance)`` of an identity lhs = rhs, exactly: the errs
    summed, plus the rounding floor of |lhs| + |rhs| + 1."""
    lhs, rhs = _exact(lhs), _exact(rhs)
    return lhs - rhs, sum(map(_exact, errs)) + _floor(ctx, abs(lhs) + abs(rhs) + 1)


# ---------------------------------------------------------------------------
# quadrature


@functools.partial(memo, maxsize=32)  # a precision's levels; selftest full: 5 at D=20, 7 at D=100
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
):
    """Tanh-sinh (double-exponential) quadrature of f over (a, b), real or complex,
    a and b finite, taken exactly (:func:`~hzeta.mpcore.as_exact`).

    Levels halve the step until one of two exits, tested in this order, is
    reached (:func:`_tanh_sinh`):

    - the next level's difference, predicted as delta^2 / prev_delta from
      the last two contracting differences, is at or below the rounding
      floor ``ctx.rounding_floor(scale)``, scale = max(1, |estimate|); the
      current estimate is returned with the rounding floor as error, which
      is what the next level would report.  The prediction is exact at a
      constant contraction ratio and overestimates for tanh-sinh, whose
      ratio only shrinks (Takahasi & Mori 1974; Bailey, Jeyabalan & Li
      2005), so the skipped level could not have changed the error;
    - the difference between successive estimates is at most the
      convergence target 10^-(target + guard/2) times the scale; the error
      returned is that difference, or the rounding floor if larger.

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
    where a resolved integrand's square.  At either exit, a weighted value at
    the level's outermost nodes above the rounding floor raises it too: the
    mass beyond the clipped node range (t^-1/2 at 0) is not resolved.
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
        value, err = _tanh_sinh(level, as_exact(a), as_exact(b), ctx)
    return make(value[0]) if len(value) == 1 else mpmath.mp.make_mpc(tuple(value)), make(err)


_NONFINITE = (finf, fninf, fnan)
_MAX_LEVEL = 12  # tanh-sinh's last level, step 2^-12


def _tanh_sinh(level: Callable, a: Real, b: Real, ctx: PrecisionContext):
    """:func:`quadrature`'s integrator and its exits, raw ``(value, err)`` at
    precision ``ctx.bits(5)``: ``level(xs)`` gives the integrand's raw values at a
    level's raw abscissae xs (a list) as a list of parts, real and imaginary if
    complex, one ``mpf_sum`` per part adds the weighted values, and value lists the
    parts; past the last level, a plateau at most 10^-target is returned with twice
    its value as err, and anything else raises :class:`NonConvergent`."""
    prec, rnd = ctx.bits(5), round_nearest
    av, bv = _to_raw(a, prec), _to_raw(b, prec)
    if not mpf_gt(bv, av):
        raise ValueError("need b > a")
    # clip nodes once the endpoint offset falls below working resolution, 2 u_max = (W + 8) log 10
    two_u_max = mpf_mul_int(mpf_log(from_int(10), prec, rnd), ctx.working_digits + 8, prec, rnd)
    t_max = mpf_asinh(mpf_div(two_u_max, mpf_pi(prec, rnd), prec, rnd), prec, rnd)
    wv = mpf_sub(bv, av, prec, rnd)
    width_pi = mpf_mul(wv, mpf_pi(prec, rnd), prec, rnd)
    target = mpf_pow_int(from_int(10), -(ctx.target_digits + ctx.guard_digits // 2), prec, rnd)
    plateau_limit = mpf_pow_int(from_int(10), -ctx.target_digits, prec, rnd)

    def parts(op, xs, ys):  # op of two estimates part by part
        return [op(x, y, prec, rnd) for x, y in itertools.zip_longest(xs, ys, fillvalue=fzero)]

    def magnitude(v):
        return mpf_abs(v[0]) if len(v) == 1 else mpc_abs(tuple(v), prec, rnd)

    def above(x, limit, scale):
        return mpf_gt(x, mpf_mul(limit, scale, prec, rnd))

    grid_sum, estimate, prev_delta = [], None, None
    for level_no in range(_MAX_LEVEL + 1):
        j_max = to_int(mpf_shift(t_max, level_no), round_ceiling)  # ceil(t_max / h)
        nodes = _level_nodes(prec, level_no, j_max)
        wgts = [mpf_mul(mpf_mul(mpf_mul(width_pi, cosh_t, prec, rnd), lo, prec, rnd), hi, prec, rnd)
                for cosh_t, lo, hi in zip(*nodes)]
        # abscissae: b - width sig_lo or a + width sig_hi, whichever offset is the smaller
        ys = level([mpf_sub(bv, mpf_mul(wv, lo, prec, rnd), prec, rnd) if mpf_lt(lo, hi)
                    else mpf_add(av, mpf_mul(wv, hi, prec, rnd), prec, rnd)
                    for _, lo, hi in zip(*nodes)])
        # a non-finite value is an endpoint blow-up at a node whose weight already squashes it;
        # each part's weighted values, the outermost nodes first and last
        terms = [[mpf_mul(wgt, y, prec, rnd) for wgt, y in zip(wgts, part, strict=True)
                  if y not in _NONFINITE] for part in ys]
        grid_sum = parts(mpf_add, grid_sum, [mpf_sum(part, prec, rnd) for part in terms])
        new_estimate = [mpf_shift(g, -level_no) for g in grid_sum]  # h * grid_sum, h = 2^-level
        if estimate is None:
            estimate = new_estimate
            continue
        delta = magnitude(parts(mpf_sub, new_estimate, estimate))
        estimate = new_estimate
        scale = magnitude(estimate) if mpf_gt(magnitude(estimate), fone) else fone
        floor = _rounding_floor(ctx, scale, prec)
        ends = [mpf_abs(y) for part in terms if part for y in (part[0], part[-1])]  # outermost
        predicted = prev_delta is not None and mpf_lt(delta, prev_delta) and mpf_le(
            mpf_div(mpf_pow_int(delta, 2, prec, rnd), prev_delta, prec, rnd), floor)
        if predicted or not above(delta, target, scale):
            if any(mpf_gt(y, floor) for y in ends):
                raise NonConvergent("mass beyond the outermost nodes is not resolved")
            return estimate, floor if predicted or mpf_gt(floor, delta) else delta
        if level_no >= 4 and above(delta, plateau_limit, scale):
            ref = mpf_sum([mpf_sum(part, prec, rnd, absolute=True) for part in terms], prec, rnd)
            ref = ref if mpf_lt(ref, scale) else scale
            if not mpf_lt(delta, prev_delta) or (
                    mpf_gt(mpf_mul_int(delta, 4, prec, rnd), prev_delta)
                    and any(above(y, plateau_limit, ref) for y in ends)):
                raise NonConvergent("level differences stalled at "
                                    f"{mpmath.nstr(mpmath.mp.make_mpf(delta), 3)}")
        elif level_no >= 4 and not mpf_lt(delta, prev_delta):
            return estimate, mpf_mul_int(delta, 2, prec, rnd)
        prev_delta = delta
    if prev_delta is not None and not above(prev_delta, plateau_limit, scale):
        return estimate, mpf_mul_int(prev_delta, 2, prec, rnd)
    raise NonConvergent(f"no convergence after {level_no} levels")


@functools.partial(memo, maxsize=16)  # a precision's rules; selftest full uses 5
def _gl_nodes(prec: int, n: int) -> tuple:
    """The n-point Gauss-Legendre rule's positive nodes x, largest first, at
    precision prec, as two tuples: the offsets (1 - x)/2 and the half-weights
    w/2 = (1 - x^2) / (n P_{n-1}(x))^2.  Each x is a root of P_n found by
    Newton's method on the three-term recurrence in integers at wp = prec + 20
    bits, from the guess cos(pi (i - 1/4) / (n + 1/2)); the rule on (-1, 1)
    takes each x and -x."""
    wp = prec + 20
    one = 1 << wp
    offsets, halves = [], []
    for i in range(1, n // 2 + 1):
        x = int(math.cos(math.pi * (i - 0.25) / (n + 0.5)) * 2**53) << (wp - 53)
        for _ in range(64):  # until a step is below 2^8 units, left untaken: P_{n-1} is at x
            p_prev, p = one, x  # P_{j-1}, P_j at x, times 2^wp
            for j in range(1, n):
                p_prev, p = p, ((2 * j + 1) * (x * p >> wp) - j * p_prev) // (j + 1)
            # Newton: P_n / P_n' with P_n' = n (x P_n - P_{n-1}) / (x^2 - 1)
            step = p * (x * x - one * one) // (n * (x * p - p_prev * one))
            if abs(step) < 256:
                break
            x -= step
        offsets.append(from_man_exp(one - x, -wp - 1, prec, round_nearest))
        halves.append(mpf_div(from_int(one * one - x * x), from_int((n * p_prev) ** 2), prec,
                              round_nearest))
    return tuple(offsets), tuple(halves)


def _gauss_legendre(level: Callable, a: Real, b: Real, n: int, ctx: PrecisionContext):
    """The n-point Gauss-Legendre rule (kept by :func:`_gl_nodes`) over [a, b],
    raw at ``ctx.bits(5)``: one call ``level(xs)`` on its raw abscissae from a to
    b, which gives the integrand's raw values there, a list."""
    prec, rnd = ctx.bits(5), round_nearest
    av, bv = _to_raw(a, prec), _to_raw(b, prec)
    wv = mpf_sub(bv, av, prec, rnd)
    offsets, halves = _gl_nodes(prec, n)
    # abscissae a + width (1 + x)/2 from a to b: a + width offset, then b - width offset
    near = [mpf_mul(wv, s, prec, rnd) for s in offsets]
    wgts = [mpf_mul(wv, h, prec, rnd) for h in halves]
    ys = level([mpf_add(av, d, prec, rnd) for d in reversed(near)]
               + [mpf_sub(bv, d, prec, rnd) for d in near])
    terms = [mpf_mul(wgt, y, prec, rnd) for wgt, y in zip(wgts[::-1] + wgts, ys, strict=True)]
    return mpf_sum(terms, prec, rnd)


def _gl_remainder(k: int, power: int, lo: int, hi: Fraction, b: Fraction, n: int) -> list:
    """The n-point Gauss-Legendre remainder h^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3)
    |g^(2n)| over [lo, hi], h = hi - lo (Abramowitz & Stegun 25.4.29), of
    g(t) = (b - t)^power R(t + 1), bounded as factors ``(v, e)``, the v^e multiplying
    to it: g^(2n) by Leibniz's rule, b - t <= b - lo (b is read at power > 0 only), and
    for j >= k + 2, m = j - k, |R^(j)(x)| = k! (m-1)! zeta(m, x)
    <= k! (m-1)! (x^-m + x^(1-m)/(m-1)) at x = lo + 1, R being zeta'(-k, .) plus a
    polynomial of degree k + 1, or log Gamma at k = 0."""
    x, m, f = Fraction(lo + 1), 2 * n - k, math.factorial
    far = b - lo if power else 1
    leibniz = sum(math.comb(2 * n, i) * math.perm(power, i) * far ** (power - i) * x**i
                  * (1 + x / (m - i - 1)) / math.perm(m - 1, i) for i in range(power + 1))
    return [(Fraction(hi - lo), 2 * n + 1), (x, -m), (f(n), 4), (f(m - 1) * f(k), 1),
            (leibniz, 1), (2 * n + 1, -1), (f(2 * n), -3)]


@functools.partial(memo, maxsize=64)  # a precision's pieces; selftest full uses 14
def _gl_count(k: int, power: int, lo: int, hi: Fraction, b: Fraction, digits: int) -> tuple:
    """``(n, bound)``: the fewest points n, even, whose :func:`_gl_remainder`
    over the piece [lo, hi] is at most 10^-(digits - 1), and that bound, exact:
    n is raised by 2 while the bound misses."""
    factors, bar = functools.partial(_gl_remainder, k, power, lo, hi, b), 10 ** (digits - 1)
    n = -(-(power + k + 2) // 4) * 2  # the first even n with every m >= 2
    while (bound := math.prod(Fraction(v) ** e for v, e in factors(n))) > Fraction(1, bar):
        n += 2
    return n, bound


def _route_integral(route: Callable, k: int, b: Real, ctx: PrecisionContext, power=0):
    """``(value, err)`` of int_0^b (b - t)^power R(t + 1) dt, with
    ``route(k, nodes, ctx)`` giving R's raw ``(value, err)`` pairs for a rule's
    raw nodes.  R is singular at 0 only; cut at 1, 3, 7, ..., 2^j - 1, each piece
    of [0, b] is as long as its distance from t = -1, so its one rule's point
    count (:func:`_gl_count`) stays small whatever b; a piece's err is that
    count's remainder bound plus the rounding floor at its value.  value is the
    pieces' sum, and err theirs plus b^(power+1)/(power+1) times the largest node
    err: the rules' weights are positive and integrate (b - t)^power exactly.
    Each node's value takes the mpf operations of the scalar
    ``(b - t) ** power * R(t + 1)``, with its bits."""
    prec, rnd = ctx.bits(5), round_nearest  # the quadrature's
    b = as_exact(b)
    if b <= 0:
        raise ValueError("need b > 0")
    end, node_err = _to_raw(b, prec), fzero

    def level(ts):
        nonlocal node_err
        pairs = route(k, [mpf_add(t, fone, prec, rnd) for t in ts], ctx)
        for _, err in pairs:
            node_err = err if mpf_gt(err, node_err) else node_err
        return [mpf_mul(mpf_pow_int(mpf_sub(end, t, prec, rnd), power, prec, rnd), y, prec, rnd)
                for t, (y, _) in zip(ts, pairs, strict=True)]

    cuts = [0, *itertools.takewhile(lambda c: c < b, (2**j - 1 for j in itertools.count(1)))]
    values, errs = [], []
    for lo, hi in zip(cuts, cuts[1:] + [b]):
        n, bound = _gl_count(k, power, lo, hi, b if power else None, ctx.working_digits)
        values.append(_gauss_legendre(level, lo, hi, n, ctx))
        scale = values[-1] if mpf_gt(mpf_abs(values[-1]), fone) else fone
        errs += [_rounded(bound, prec, round_ceiling)._mpf_, _rounding_floor(ctx, scale, prec)]
    nodes = b ** (power + 1) / (power + 1) * _exact(node_err)  # the weights' sum times node_err
    errs.append(_rounded(nodes, prec, round_ceiling)._mpf_)
    value, err = mpf_sum(values, prec, rnd), mpf_sum(errs, prec, round_ceiling)
    return mpmath.mp.make_mpf(value), mpmath.mp.make_mpf(err)


def _alt_integrand_level(k: int, ts: tuple, ctx: PrecisionContext):
    """The alternative recursion's integrand at each raw node t of a level, with
    the err of zeta'(-k, t): ``hurwitz_deriv(k, t).value`` plus
    B_{k+1}(t) / (k + 1)^2 rounded once, raw, at ``ctx.bits(5)``."""
    prec, rnd = ctx.bits(5), round_nearest
    coeffs, den = _bernoulli_poly_ints(k + 1)
    den *= (k + 1) ** 2
    pairs = _series_level(k, ts, _head(k, prec), 0, ctx)
    return [(mpf_add(d, _poly_raw(coeffs, den, *_ratio(t), prec), prec, rnd), err)
            for t, (d, err) in zip(ts, pairs, strict=True)]


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
    prec, rnd = ctx.bits(5), round_nearest
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
    yield "bendersky-recursion", k, x
    upper = build_lambda_terms(k + 1, 20 + 1)  # 20 tail terms, one held back
    lower = _integrated_lambda_terms(k, 20 + 1)
    hk_bk1 = harmonic(k) * bernoulli(k + 1)

    def sides(pt):
        lv, le, _ = eval_term_poly(upper, pt, ctx)
        rv, re, _ = eval_term_poly(lower, pt, ctx)
        pe = as_exact(pt)
        corr = phi(k + 1, pe + 1) / (k + 1) + hk_bk1 * pe
        return _exact(lv), (k + 1) * _exact(rv) + corr, _exact(le) + (k + 1) * _exact(re)

    left_x, right_x, err_x = sides(x)
    left_r, right_r, err_r = sides(2 * shift_threshold(ctx))
    residual = (left_x - left_r) - (right_x - right_r)
    return residual, err_x + err_r + _floor(ctx, abs(left_x) + abs(left_r)), ctx


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

    with zeta(-k, t) = -B_{k+1}(t)/(k+1).  The integrand, singular at t = 0, is
    the one at t + 1 less t^k log t + t^k/(k+1), whose integral x^(k+1) log x/(k+1)
    is subtracted exactly but for log x, whose rounding the tolerance charges.
    """
    if k < 0:
        raise ValueError("order must be non-negative")
    yield "alt-recursion", k, x
    qval, qerr = _route_integral(_alt_integrand_level, k, x, ctx)
    top, base = hurwitz_deriv(k + 1, x, ctx), zeta_deriv_neg(k + 1, ctx)
    xe, prec = as_exact(x), ctx.bits(5)
    log_x = _exact(mpf_log(_to_raw(xe, prec), prec, round_nearest))  # x and its log rounded
    return (*_two_sided((k + 1) * _exact(qval) - xe ** (k + 1) * log_x,
                        _exact(top.value) - _exact(base.value), ctx,
                        (k + 1) * _exact(qerr), top.err, base.err,
                        xe ** (k + 1) * (abs(log_x) + 1) / 2 ** (prec - 1)), ctx)


@_check
def alexeiewsky_check(x: Real, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CheckReport:
    """Closed form for the integral of the ordinary log-gamma:

        log Gamma_1(x+1) = int_0^x log Gamma(t+1) dt + x(x+1)/2
                           - x log sqrt(2 pi)

    with log sqrt(2 pi) supplied by the order-0 limiting constant.
    """
    xe = as_exact(x)
    yield "alexeiewsky", None, x
    lhs = log_gengamma(1, xe + 1, ctx)
    qval, qerr = _route_integral(_log_gengamma_level, 0, x, ctx)
    base = gkbj_auto(0, ctx)
    rhs = _exact(qval) + xe * (xe + 1) / 2 - xe * _exact(base.value)
    return (*_two_sided(lhs.value, rhs, ctx, lhs.err, qerr, xe * _exact(base.err)), ctx)


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
    yield "general-solution", k, x
    qval, qerr = _route_integral(_log_gengamma_level, 0, x, ctx, power=k - 1)
    # k! I_k = k! /(k-1)! * integral = k * integral
    main, main_err = k * _exact(qval), k * _exact(qerr)
    psi = psi_err = Fraction(0)
    for r in range(k):
        rec = gkbj_auto(r, ctx)
        weight = math.comb(k, r) * xe ** (k - r)
        psi += weight * _exact(rec.value)
        psi_err += abs(weight) * _exact(rec.err)
    rhs = main + harmonic(k) * phi(k, xe + 1) - psi
    lhs = log_gengamma(k, xe + 1, ctx)
    return (*_two_sided(lhs.value, rhs, ctx, lhs.err, main_err, psi_err), ctx)


@_check
def gint_moment_check(
    k: int, ctx: PrecisionContext = DEFAULT_CONTEXT, gamma_variant: bool = False
) -> CheckReport:
    """Moment integrals of log-gamma over the unit interval:

        k int_0^1 (1-t)^(k-1) log Gamma(t+1) dt
            = sum_{r<k} C(k,r) (H_r B_{r+1}/(r+1) - zeta'(-r))
              - H_k [1/2 + (1 + sum_{r=2}^k C(k+1,r) B_r)/(k+1)]

    With ``gamma_variant`` (k = 2 only) the integrand uses log Gamma(t)
    and the closed form becomes -zeta'(0) - 2 zeta'(-1) + 1/6; log Gamma(t) =
    log Gamma(t+1) - log t adds int_0^1 (t-1) log t dt = 3/4 to the k = 2 integral.
    """
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if gamma_variant and k != 2:
        raise ValueError("the log Gamma(t) variant is the k = 2 identity")
    yield "gint-moment-gamma-variant" if gamma_variant else "gint-moment", k, 1
    qval, qerr = _route_integral(_log_gengamma_level, 0, 1, ctx, power=k - 1)
    if gamma_variant:
        d0, d1 = zeta_deriv_neg(0, ctx), zeta_deriv_neg(1, ctx)
        rhs = Fraction(1, 6) - _exact(d0.value) - 2 * _exact(d1.value)
        deriv_err = _exact(d0.err) + 2 * _exact(d1.err)
    else:
        rhs = deriv_err = Fraction(0)
        for r in range(k):
            d = zeta_deriv_neg(r, ctx)
            c = math.comb(k, r)
            rhs += c * (harmonic(r) * bernoulli(r + 1) / (r + 1) - _exact(d.value))
            deriv_err += c * _exact(d.err)
        bracket = Fraction(1, 2) + (
            1 + sum(math.comb(k + 1, r) * bernoulli(r) for r in range(2, k + 1))
        ) / Fraction(k + 1)
        rhs -= harmonic(k) * bracket
    return (*_two_sided(k * (_exact(qval) + Fraction(3, 4) * gamma_variant), rhs, ctx,
                        k * _exact(qerr), deriv_err), ctx)


@_check
def jeffery_difference_check(
    k: int, x: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CheckReport:
    """Forward difference of the exact sums: moving the upper limit from
    x to x+1 adds exactly (x+1)^k log(x+1)."""
    if not isinstance(x, int) or x < 1:
        raise ValueError("difference point must be a positive integer")
    yield "jeffery-difference", k, x
    hi = _exact(exact_log_gengamma(k, x + 1, ctx).value)
    lo = _exact(exact_log_gengamma(k, x, ctx).value)
    step = (x + 1) ** k * _exact(mpf_log(from_int(x + 1), ctx.bits(5), round_nearest))
    return hi - lo - step, _floor(ctx, abs(hi) + abs(step) + 1), ctx


@_check
def log_coefficient_check(k: int, ctx: PrecisionContext = DEFAULT_CONTEXT) -> CheckReport:
    """The polynomial multiplying log x in the order-k expansion equals
    B_{k+1}(x+1)/(k+1), exactly, at every integer 1 <= x <= 20."""
    yield "log-coefficient", k, None
    # each side in integers over one denominator: lcm, and den (k+1) for B_{k+1}(x+1)/(k+1)
    coeffs = log_coefficient_poly(k)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    values = [c.numerator * (lcm // c.denominator) for c in reversed(coeffs)]
    a, den = _bernoulli_poly_ints(k + 1)
    bad = sum(_horner(values, x, 1) * den * (k + 1) != _horner(a, x + 1, 1) * lcm
              for x in range(1, 21))
    return bad, Fraction(1, 2), ctx


@_check
def stabilization_check(
    k: int, ctx: PrecisionContext = DEFAULT_CONTEXT
) -> CheckReport:
    """The trial-method constant must not depend on the trial argument:
    values at w = 50, 100, 200 (20 tail terms) agree within their
    reported errors.  The strongest detector of a slip in the series."""
    yield "stabilization", k, None
    records = [gkbj_constant(k, w, 20, ctx) for w in (50, 100, 200)]
    values = [_exact(r.value) for r in records]
    tolerance = 2 * max(_exact(r.err) for r in records) + _floor(ctx, 1)
    return max(values) - min(values), tolerance, ctx


def _unit_integral(level: Callable, exact: int, ctx: PrecisionContext) -> tuple:
    """``(residual, tolerance, ctx)`` of int_0^1 f = exact by :func:`_tanh_sinh`,
    with ``level`` giving f's raw values, within its err and the rounding floor at 1."""
    (value,), err = _tanh_sinh(level, 0, 1, ctx)
    return _exact(value) - exact, _exact(err) + _floor(ctx, 1), ctx


@_check
def _quadrature_unit_check(ctx) -> CheckReport:
    yield "quadrature-constant", None, None
    return _unit_integral(lambda xs: [[fone] * len(xs)], 1, ctx)


@_check
def _quadrature_log_check(ctx) -> CheckReport:
    yield "quadrature-log-singular", None, None
    prec = ctx.bits(5)
    return _unit_integral(lambda xs: [[mpf_log(x, prec, round_nearest) for x in xs]], -1, ctx)


@_check
def _raabe_integral_check(ctx) -> CheckReport:
    """int_0^1 log Gamma(t+1) dt = log sqrt(2 pi) - 1, with both sides
    built from the package's own order-0 machinery."""
    yield "raabe-integral", None, None
    val, err = _route_integral(_log_gengamma_level, 0, 1, ctx)
    base = gkbj_auto(0, ctx)
    residual = _exact(val) - (_exact(base.value) - 1)
    tolerance = _exact(err) + _exact(base.err) + _floor(ctx, 1)
    return residual, tolerance, ctx


@_check
def _zeta_even_check(m: int, ctx) -> CheckReport:
    """zeta(2m) against the closed form pi^(2m) |B_2m| 2^(2m-1)/(2m)!."""
    s = 2 * m
    yield "zeta-even-closed-form", s, None
    value = zeta_positive(s, ctx)
    prec = ctx.bits(5)
    pi_s = _exact(mpf_pow_int(mpf_pi(prec, round_nearest), s, prec, round_nearest))
    closed = pi_s * abs(bernoulli(s)) * 2 ** (s - 1) / math.factorial(s)
    return _exact(value) - closed, _floor(ctx, abs(closed) * 10), ctx


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
