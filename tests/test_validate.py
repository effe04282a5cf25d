import functools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import fone, mpf_abs, mpf_add, mpf_gt, mpf_log, mpf_mul, mpf_neg, mpf_pow_int
from mpmath.libmp import mpf_sub, mpf_sum, round_ceiling, round_nearest

import hzeta.gengamma as gengamma
import hzeta.mpcore as mpcore
import hzeta.validate as validate
from hzeta import (
    NonConvergent,
    PrecisionContext,
    Result,
    bernoulli_poly,
    clear_caches,
    hurwitz_deriv,
    log_gengamma,
    quadrature,
    selftest,
    zeta_positive,
)
from hzeta.cli import run
from hzeta.validate import (
    alexeiewsky_check,
    alt_recursion_check,
    bendersky_recursion_check,
    general_solution_check,
    gint_moment_check,
    jeffery_difference_check,
    log_coefficient_check,
    stabilization_check,
)


class TestQuadrature:
    def test_unit(self, ctx20):
        val, err = quadrature(lambda t: mpmath.mpf(1), 0, 1, ctx20)
        with ctx20.workprec():
            assert abs(val - 1) <= err + ctx20.rounding_floor(1)

    def test_log_singularity(self, ctx20):
        val, err = quadrature(mpmath.log, 0, 1, ctx20)
        with ctx20.workprec():
            assert abs(val + 1) <= err + ctx20.rounding_floor(1)

    def test_cubic(self, ctx20):
        val, err = quadrature(lambda t: t**3, 0, 1, ctx20)
        with ctx20.workprec():
            assert abs(val - mpmath.mpf(1) / 4) <= err + ctx20.rounding_floor(1)

    def test_shifted_interval(self, ctx20):
        val, err = quadrature(mpmath.log, 1, 3, ctx20)
        with ctx20.workprec():
            oracle = 3 * mpmath.log(3) - 2
            assert abs(val - oracle) <= err + ctx20.rounding_floor(1)

    def test_endpoints_are_finite_and_exact(self, ctx20):
        # a divergent int_0^inf log t, a float inf or nan and a string are refused,
        # as at every other entry point; an endpoint's value, not its type, decides
        for bad in (mpmath.inf, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="argument must be finite"):
                quadrature(mpmath.log, 0, bad, ctx20)
        with pytest.raises(TypeError):
            quadrature(mpmath.log, "1", 3, ctx20)
        want = [v._mpf_ for v in quadrature(mpmath.log, 1, 3, ctx20)]
        for a, b in ((Fraction(1), Fraction(3)), (mpmath.mpf(1), mpmath.mpf(3)), (1.0, 3.0)):
            assert [v._mpf_ for v in quadrature(mpmath.log, a, b, ctx20)] == want

    def test_nonintegrable_raises(self, ctx20):
        calls = []

        def f(t):
            calls.append(t)
            return 1 / t

        with pytest.raises(NonConvergent):
            quadrature(f, 0, 1, ctx20)
        # 1/t's level differences shrink by about 1/2 a level: stopped at
        # level 4 (141 calls), not after all 12 (33,963)
        assert len(calls) < 200

    @pytest.mark.parametrize("digits", [15, 20])
    def test_a_blow_up_past_the_clip_stops_early(self, digits):
        calls = []

        def f(t):
            calls.append(t)
            return t**-1.5

        with pytest.raises(NonConvergent):
            quadrature(f, 0, 1, PrecisionContext(digits))
        # level 0's node at t = 5, past t_max ~ 4.1, sets the scale; against the
        # level's weighted magnitudes the end nodes stop it at level 4 (139 and
        # 141 calls), not after all 12 (32,953 and 33,963)
        assert len(calls) < 200

    @pytest.mark.parametrize("digits", [15, 20])
    def test_mass_beyond_the_clip_raises(self, digits):
        # t^-1/2 leaves 2 sqrt(offset) beyond the outermost nodes, far above the
        # rounding floor: the levels converge to the clipped integral, which read
        # err 2.0e-28 and 2.0e-33 against actual errors of 2.3e-22 and 2.7e-25
        with pytest.raises(NonConvergent, match="outermost nodes"):
            quadrature(lambda t: 1 / mpmath.sqrt(t), 0, 1, PrecisionContext(digits))

    def test_slow_levels_before_the_oscillation_is_resolved(self, ctx20):
        # differences shrink by 0.8 and 0.5 at levels 4 and 5, then square:
        # the early stop above keeps to integrands that do not vanish at the ends
        val, err = quadrature(lambda t: mpmath.sin(200 * t), 0, 1, ctx20)
        with ctx20.workprec():
            assert abs(val - (1 - mpmath.cos(200)) / 200) <= err + ctx20.rounding_floor(1)

    def test_complex_integrand(self, ctx20):
        val, err = quadrature(lambda t: mpmath.exp(1j * t), 0, 1, ctx20)
        assert isinstance(val, mpmath.mpc)
        with ctx20.workprec():
            oracle = mpmath.mpc(mpmath.sin(1), 1 - mpmath.cos(1))
            assert abs(val - oracle) <= err + ctx20.rounding_floor(1)

    def test_complex_values_keep_the_real_bits(self, ctx20):
        # a zero imaginary part leaves the real part's sums and exits as they are
        real = quadrature(mpmath.log, 0, 1, ctx20)
        val, err = quadrature(lambda t: mpmath.mpc(mpmath.log(t)), 0, 1, ctx20)
        assert (val.real._mpf_, val.imag, err._mpf_) == (real[0]._mpf_, 0, real[1]._mpf_)
        # one complex value makes the estimate complex, as mpf arithmetic does
        val, _ = quadrature(lambda t: mpmath.mpc(t) if t < 0.5 else t, 0, 1, ctx20)
        assert isinstance(val, mpmath.mpc)

    def test_values_convert_as_mpf_operators_take_them(self, ctx20):
        val, _ = quadrature(lambda t: Fraction(1, 3), 0, 1, ctx20)
        with ctx20.workprec():
            assert abs(val - mpmath.mpf(1) / 3) <= ctx20.rounding_floor(1)
        for value in (None, "1"):
            with pytest.raises(TypeError):
                quadrature(lambda t: value, 0, 1, ctx20)

    def test_rejects_empty_interval(self, ctx20):
        with pytest.raises(ValueError):
            quadrature(mpmath.log, 1, 1, ctx20)

    def test_precision_monotone(self):
        lo = PrecisionContext(15)
        hi = PrecisionContext(30)
        vlo, _ = quadrature(mpmath.log, 0, 1, lo)
        vhi, ehi = quadrature(mpmath.log, 0, 1, hi)
        with hi.workprec():
            assert abs(vhi + 1) <= ehi + hi.rounding_floor(1)
            assert abs(vlo - vhi) < mpmath.mpf("1e-20")


def _package_log_gamma(ctx, calls=None):
    """t -> log Gamma(t+1) through the package's order-0 route."""

    def f(t):
        if calls is not None:
            calls.append(t)
        return log_gengamma(0, t + 1, ctx).value

    return f


# (integrand for a context, a, b, oracle evaluated at D+30 digits)
HONESTY_CASES = {
    "package-log-gamma": (
        _package_log_gamma, 0, 1, lambda: mpmath.log(2 * mpmath.pi) / 2 - 1),
    "log": (lambda ctx: mpmath.log, 0, 1, lambda: mpmath.mpf(-1)),
    "mpmath-log-gamma": (
        lambda ctx: lambda t: mpmath.loggamma(t + 1), 0, Fraction(11, 2),
        lambda: mpmath.quad(lambda t: mpmath.loggamma(t + 1), [0, mpmath.mpf(11) / 2])),
    "exp": (lambda ctx: mpmath.exp, 0, 3, lambda: mpmath.e**3 - 1),
}


class TestQuadratureHonesty:
    """The returned error covers the actual error against an oracle
    computed independently at D+30 digits, whichever exit was taken."""

    @pytest.mark.parametrize("digits", [15, 20, 30, 50])
    @pytest.mark.parametrize("case", sorted(HONESTY_CASES))
    def test_error_covers_actual(self, case, digits):
        make, a, b, oracle = HONESTY_CASES[case]
        ctx = PrecisionContext(digits)
        val, err = quadrature(make(ctx), a, b, ctx)
        with mpmath.mp.workdps(digits + 30):
            assert abs(val - oracle()) <= err

    def test_stops_a_level_early(self):
        # at D=20 the differences 3.3e-12, 5.9e-25 predict a next one of
        # 1e-37, below the rounding floor 1e-33: level 5's 134 nodes are skipped
        calls = []
        ctx = PrecisionContext(20)
        quadrature(_package_log_gamma(ctx, calls), 0, 1, ctx)
        assert len(calls) <= 141

    def test_runs_on_while_the_prediction_is_above_the_floor(self):
        calls = []
        ctx = PrecisionContext(30)
        quadrature(_package_log_gamma(ctx, calls), 0, 1, ctx)
        assert len(calls) == 285


class TestRouteIntegralHonesty:
    """A route integral's err, which holds its nodes' err integrated over the
    weight (b - t)^power, covers the actual error against mpmath.quad at D+40
    digits, on one piece or on many; so does it for the integrals singular at
    t = 0 that the checks take from a route integral with the singular end
    subtracted in closed form."""

    @pytest.mark.parametrize("digits", [20, 50])
    @pytest.mark.parametrize("b, power", [
        *((b, power) for b in (1, 2, Fraction(5, 2), Fraction(11, 2)) for power in (0, 1, 3)),
        (100, 0), (1000, 0)])
    def test_error_covers_actual(self, b, power, digits):
        ctx = PrecisionContext(digits)
        value, err = validate._route_integral(validate._log_gengamma_level, 0, b, ctx, power)
        with mpmath.mp.workdps(digits + 40):
            end = mpmath.mpf(b.numerator) / b.denominator if isinstance(b, Fraction) else b
            oracle = mpmath.quad(lambda t: (end - t) ** power * mpmath.loggamma(t + 1),
                                 [0, *(c for c in (1, 10, 100) if c < end), end])
            assert abs(value - oracle) <= err

    @pytest.mark.parametrize("digits", [20, 50])
    @pytest.mark.parametrize("k, x", [(0, 1), (0, 2), (1, 3)])
    def test_alt_recursion_integral(self, k, x, digits):
        # int_0^x [zeta'(-k, t) + B_{k+1}(t)/(k+1)^2] dt is the route integral
        # at t + 1 less x^(k+1) log x / (k+1)
        ctx = PrecisionContext(digits)
        value, err = validate._route_integral(validate._alt_integrand_level, k, x, ctx)
        with mpmath.mp.workdps(digits + 40):
            oracle = mpmath.quad(
                lambda t: mpmath.zeta(-k, t, 1) + mpmath.bernpoly(k + 1, t) / (k + 1) ** 2, [0, x])
            corrected = value - mpmath.mpf(x) ** (k + 1) * mpmath.log(x) / (k + 1)
            assert abs(corrected - oracle) <= err

    @pytest.mark.parametrize("digits", [20, 50])
    def test_gamma_variant_integral(self, digits):
        # int_0^1 (1 - t) log Gamma(t) dt is the route integral at power 1 plus 3/4
        ctx = PrecisionContext(digits)
        value, err = validate._route_integral(validate._log_gengamma_level, 0, 1, ctx, 1)
        with mpmath.mp.workdps(digits + 40):
            oracle = mpmath.quad(lambda t: (1 - t) * mpmath.loggamma(t), [0, 1])
            assert abs(value + mpmath.mpf(3) / 4 - oracle) <= err


class TestGaussLegendreNodes:
    """The kept n-point rule is Gauss-Legendre's: exact for polynomials of degree
    2n - 1 up to rounding, symmetric, and built without touching mpmath's precision."""

    @pytest.mark.parametrize("digits", [20, 100])
    def test_rule_integrates_polynomials_of_degree_below_2n(self, digits, precision_writes):
        ctx = PrecisionContext(digits)
        prec = ctx.bits(5)
        clear_caches()
        rules = {n: validate._gl_nodes(prec, n) for n in (8, 16, 32, 64)}
        assert precision_writes == []
        with mpmath.mp.workprec(prec + 60):
            floor = ctx.rounding_floor(1)
            for n, (offsets, halves) in rules.items():
                assert len(offsets) == len(halves) == n // 2
                s = [mpmath.mp.make_mpf(v) for v in offsets]  # nodes s and 1 - s on (0, 1)
                h = [mpmath.mp.make_mpf(v) for v in halves]
                assert abs(4 * mpmath.fsum(h) - 2) <= 2 * floor  # the weights on (-1, 1)
                for j in range(2 * n):
                    moment = mpmath.fsum(hi * (si**j + (1 - si) ** j) for si, hi in zip(s, h))
                    assert abs(moment - mpmath.mpf(1) / (j + 1)) <= floor, (n, j)

    def test_nodes_are_symmetric(self, ctx20):
        seen = []

        def level(xs):
            seen.append(xs)
            return [fone] * len(xs)

        value = validate._gauss_legendre(level, -1, 1, 16, ctx20)
        assert [len(xs) for xs in seen] == [16]  # one rule, one call
        assert all(xs == [mpf_neg(x) for x in reversed(xs)] for xs in seen)
        assert abs(validate._exact(value) - 2) <= validate._floor(ctx20, Fraction(2))


class TestNodeTable:
    """A tanh-sinh level's nodes and a Gauss-Legendre rule are computed once per
    precision, their abscissae once per interval, and the node plans once per
    order and context; a quadrature value does not depend on what the memos hold."""

    CASES = [
        (lambda t: mpmath.log(t), 0, 1),
        (lambda t: mpmath.exp(-t) * mpmath.sqrt(t), 0, 3),
        (lambda t: 1 / (1 + t * t), -1, Fraction(5, 2)),
    ]

    @classmethod
    def run(cls, ctx):
        return [tuple(v._mpf_ for v in quadrature(f, a, b, ctx)) for f, a, b in cls.CASES]

    def test_bit_identical_after_clear_caches(self, ctx20):
        f = _package_log_gamma(ctx20)
        first = quadrature(f, 0, 1, ctx20), self.run(ctx20)
        clear_caches()
        again = quadrature(f, 0, 1, ctx20), self.run(ctx20)
        assert [v._mpf_ for v in first[0]] == [v._mpf_ for v in again[0]]
        assert first[1] == again[1]

    def test_interleaved_precisions_match_separate_runs(self, ctx20, ctx30):
        separate = {}
        for ctx in (ctx20, ctx30):
            clear_caches()
            separate[ctx] = self.run(ctx)
        clear_caches()
        for _ in range(2):
            for ctx in (ctx20, ctx30):
                assert self.run(ctx) == separate[ctx]

    def test_clear_caches_empties_the_table(self, ctx20):
        memos = validate._level_nodes, validate._gl_nodes, gengamma._level_plan
        quadrature(mpmath.log, 0, 1, ctx20)
        validate._raabe_integral_check(ctx20)
        assert all(memo.cache_info().currsize for memo in memos)
        clear_caches()
        assert not any(memo.cache_info().currsize for memo in memos)

    def test_route_integrals_keep_their_bits_on_kept_rules_and_plans(self, ctx20, monkeypatch):
        # every route integral of selftest full, cold inside the suite, then
        # warm, then again from cleared caches
        calls = []
        route_integral = validate._route_integral

        def spy(*args, **kwargs):
            result = route_integral(*args, **kwargs)
            calls.append((args, kwargs, [v._mpf_ for v in result]))
            return result

        monkeypatch.setattr(validate, "_route_integral", spy)
        clear_caches()
        assert all(r.passed for r in selftest("full", ctx20))
        assert len(calls) == 17

        def again():
            return [[v._mpf_ for v in route_integral(*args, **kwargs)] for args, kwargs, _ in calls]

        cold = [bits for _, _, bits in calls]
        assert again() == cold
        clear_caches()
        assert again() == cold

    def test_a_sweep_over_b_keeps_bounded_memos(self):
        # 70 route integrals over (0, 1 + i/70), every piece in one rule: the node
        # plans of (0, 1) and of the 69 pieces (1, b), of which the memo keeps the
        # last 64; the point counts, keyed by the piece alone at power 0, the same
        # 70, the last 64 kept; the rules are (0, 1)'s and those of the short pieces
        ctx = PrecisionContext(5)
        clear_caches()
        validate._route_integral(validate._log_gengamma_level, 0, 1, ctx)
        tracemalloc.start()
        try:
            for i in range(70):
                validate._route_integral(validate._log_gengamma_level, 0, 1 + Fraction(i, 70), ctx)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert gengamma._level_plan.cache_info().currsize == 64
        assert validate._gl_nodes.cache_info().currsize == 5
        assert validate._gl_count.cache_info().currsize == 64
        assert validate._level_nodes.cache_info().currsize == 0
        assert held < 550_000  # about 0.17 MB


class TestLevelIntegrals:
    """One integrand call per level or round gives the bits of one call per node."""

    def test_integrator_matches_the_public_quadrature(self, ctx20):
        # a level of raw logarithms at the integrator's precision, one part,
        # against quadrature's scalar mpmath.log
        def level(xs):
            return [[mpf_log(x, ctx20.bits(5), round_nearest) for x in xs]]

        for b in (1, 2, Fraction(11, 2)):
            (value, *rest), err = validate._tanh_sinh(level, 0, b, ctx20)
            want = quadrature(mpmath.log, 0, b, ctx20)
            assert not rest and [value, err] == [v._mpf_ for v in want]

    # (route, k, b, power, scalar integrand at t + 1 and its err)
    @staticmethod
    def cases(ctx):
        def gamma(t):
            return log_gengamma(0, t + 1, ctx)

        def alt(k, t):
            d = hurwitz_deriv(k, t + 1, ctx)
            return d.value + bernoulli_poly(k + 1, t + 1) / (k + 1) ** 2, d.err

        return [
            (validate._log_gengamma_level, 0, 2, 0, lambda t: (gamma(t).value, gamma(t).err)),
            (validate._log_gengamma_level, 0, Fraction(5, 2), 1,
             lambda t: ((mpmath.mpf(5) / 2 - t) ** 1 * gamma(t).value, gamma(t).err)),
            (validate._log_gengamma_level, 0, 1, 3,
             lambda t: ((1 - t) ** 3 * gamma(t).value, gamma(t).err)),
            (validate._alt_integrand_level, 1, 3, 0, lambda t: alt(1, t)),
        ]

    def test_route_integrals_match_scalar_integrands(self, ctx20):
        # Gauss-Legendre on the pieces (0, 1) and (1, b), each at the route's point
        # count, fed here the scalar integrand as quadrature feeds tanh-sinh, the
        # pieces summed, each err the remainder bound plus the rounding floor, and
        # the largest node err times the weight's integral b^(power+1)/(power+1)
        prec = ctx20.bits(5)
        for route, k, b, power, scalar in self.cases(ctx20):
            errs = []

            def f(t):
                value, err = scalar(t)
                errs.append(err)
                return value

            def level(xs):
                return [mpmath.mp.convert(f(mpmath.mp.make_mpf(x)))._mpf_ for x in xs]

            value, err = validate._route_integral(route, k, b, ctx20, power)
            values, piece_errs = [], []
            for lo, hi in [(0, 1), (1, b)] if b > 1 else [(0, b)]:
                n, bound = validate._gl_count(k, power, lo, hi, b, ctx20.working_digits)
                with ctx20.workprec(5):
                    values.append(validate._gauss_legendre(level, lo, hi, n, ctx20))
                scale = values[-1] if mpf_gt(mpf_abs(values[-1]), fone) else fone
                piece_errs += [validate._rounded(bound, prec, round_ceiling)._mpf_,
                               mpcore._rounding_floor(ctx20, scale, prec)]
            nodes = Fraction(b) ** (power + 1) / (power + 1) * validate._exact(max(errs))
            piece_errs.append(validate._rounded(nodes, prec, round_ceiling)._mpf_)
            want = mpf_sum(values, prec, round_nearest)
            want_err = mpf_sum(piece_errs, prec, round_ceiling)
            assert (value._mpf_, err._mpf_) == (want, want_err), (route, b)


@functools.lru_cache
def _selftest_route_integrals(digits):
    """The number of route integrals of one ``selftest full`` at D digits, their
    pieces ``(route, k, power, lo, hi, b)`` in order, duplicates dropped (b kept
    at power > 0 only), and the level-route evaluations the run made."""
    pieces, counts = {}, [0, 0]
    route_integral = validate._route_integral

    def spy(route, k, b, ctx, power=0):
        def counted(k, nodes, ctx):
            counts[1] += len(nodes)
            return route(k, nodes, ctx)

        b, counts[0] = Fraction(b), counts[0] + 1
        cuts = [0, *(2**j - 1 for j in range(1, 64) if 2**j - 1 < b)]
        for lo, hi in zip(cuts, cuts[1:] + [b]):
            pieces.setdefault((route, k, power, lo, hi, b if power else None), b)
        return route_integral(counted, k, b, ctx, power)

    validate._route_integral = spy
    try:
        assert all(r.passed for r in selftest("full", PrecisionContext(digits)))
    finally:
        validate._route_integral = route_integral
    return counts[0], [(*key[:5], b) for key, b in pieces.items()], counts[1]


class TestRemainderBound:
    """Each piece's point count n comes from a bound on the Gauss-Legendre
    remainder built on the exact derivatives of the level routes: the bound
    covers the rule's actual error, and n - 2 points would miss the target."""

    @pytest.mark.parametrize("k, j, x", [(0, 2, 1), (0, 5, Fraction(3, 2)), (1, 3, 2),
                                         (1, 4, Fraction(5, 2)), (2, 5, Fraction(3, 2))])
    def test_derivatives_of_zeta_prime(self, k, j, x):
        # d^j/dx^j zeta'(-k, x) = (-1)^(j+k) k! (j-k-1)! zeta(j-k, x), j >= k + 2
        with mpmath.mp.workdps(30):
            xv = mpmath.mpf(x.numerator) / x.denominator
            want = ((-1) ** (j + k) * math.factorial(k) * math.factorial(j - k - 1)
                    * mpmath.zeta(j - k, xv))
            assert abs(mpmath.diff(lambda t: mpmath.zeta(-k, t, 1), xv, j) - want) <= (
                mpmath.mpf("1e-25") * abs(want))
            if k == 0:  # log Gamma(x) = zeta'(0, x) - zeta'(0)
                assert abs(mpmath.diff(mpmath.loggamma, xv, j) - want) <= (
                    mpmath.mpf("1e-25") * abs(want))

    @pytest.mark.parametrize("digits", [20, 100])
    def test_bound_covers_the_rule_error(self, digits):
        # the rule at n points on values at D + 40 digits, against mpmath.quad of
        # mpmath.loggamma, or the alt integrand's antiderivative zeta'(-k-1, .)/(k+1)
        integrals, pieces, _ = _selftest_route_integrals(digits)
        assert integrals == 17
        ctx = PrecisionContext(digits)
        fine = PrecisionContext(digits + 40)
        prec, rnd = fine.bits(5), round_nearest
        for route, k, power, lo, hi, b in pieces:
            n, bound = validate._gl_count(k, power, lo, hi, b, ctx.working_digits)
            end = mpcore._to_raw(b, prec)

            def level(ts):
                pairs = route(k, [mpf_add(t, fone, prec, rnd) for t in ts], fine)
                return [mpf_mul(mpf_pow_int(mpf_sub(end, t, prec, rnd), power, prec, rnd), y,
                                prec, rnd) for t, (y, _) in zip(ts, pairs)]

            rule = validate._exact(validate._gauss_legendre(level, lo, hi, n, fine))
            with mpmath.mp.workdps(digits + 40):
                lo_v, hi_v, b_v = (mpmath.mpf(v.numerator) / v.denominator
                                   for v in map(Fraction, (lo, hi, b)))
                if route is validate._log_gengamma_level:
                    oracle = mpmath.quad(lambda t: (b_v - t) ** power * mpmath.loggamma(t + 1),
                                         [lo_v, hi_v])
                else:
                    oracle = (mpmath.zeta(-k - 1, hi_v + 1, 1)
                              - mpmath.zeta(-k - 1, lo_v + 1, 1)) / (k + 1)
                piece = (route.__name__, k, power, lo, hi)
                assert abs(rule - validate._exact(oracle)) <= bound, piece

    @pytest.mark.parametrize("digits", [20, 100])
    def test_the_count_is_the_fewest(self, digits):
        _, pieces, _ = _selftest_route_integrals(digits)
        W = PrecisionContext(digits).working_digits
        target = Fraction(1, 10 ** (W - 1))
        for route, k, power, lo, hi, b in pieces:
            n, bound = validate._gl_count(k, power, lo, hi, b, W)
            assert n % 2 == 0 and bound <= target
            fewer = validate._gl_remainder(k, power, lo, hi, b, n - 2)
            assert math.prod(Fraction(v) ** e for v, e in fewer) > target, (k, power, lo, hi)


class TestRouteEvaluationBudget:
    """A selftest full's route integrals evaluate their level routes once per
    node of one rule per piece: 636 evaluations at D=20 and 2,122 at D=100."""

    @pytest.mark.parametrize("digits, budget", [(20, 700), (100, 2300)])
    def test_evaluations_per_selftest_full(self, digits, budget):
        assert _selftest_route_integrals(digits)[2] <= budget


class TestZetaPositive:
    def test_even_closed_forms(self, ctx20):
        with ctx20.workprec():
            assert abs(zeta_positive(2, ctx20) - mpmath.pi**2 / 6) < mpmath.mpf("1e-32")
            assert abs(zeta_positive(4, ctx20) - mpmath.pi**4 / 90) < mpmath.mpf("1e-32")
            assert abs(zeta_positive(6, ctx20) - mpmath.pi**6 / 945) < mpmath.mpf("1e-32")

    def test_apery_constant(self, ctx20):
        with mpmath.mp.workdps(50):
            oracle = mpmath.zeta(3)
        with ctx20.workprec():
            assert abs(zeta_positive(3, ctx20) - oracle) < mpmath.mpf("1e-33")

    def test_rejects_below_two(self, ctx20):
        with pytest.raises(ValueError):
            zeta_positive(1, ctx20)


GRIDS = {
    "bendersky": [(0, 100), (1, 100), (2, 50)],
    "alt": [(0, 1), (0, 2), (1, 3)],
    "alexeiewsky": [1, 2, Fraction(11, 2)],
    "general": [(1, 1), (2, 2), (3, 1)],
    "gint": [1, 2, 3, 4, 5],
    "jeffery": [(0, 1), (1, 2), (4, 7)],
}


class TestIdentityChecks:
    def test_bendersky_recursion(self, ctx20):
        for k, x in GRIDS["bendersky"]:
            rep = bendersky_recursion_check(k, x, ctx20)
            assert rep.passed, rep

    def test_alt_recursion(self, ctx20):
        for k, x in GRIDS["alt"]:
            rep = alt_recursion_check(k, x, ctx20)
            assert rep.passed, rep

    def test_alt_recursion_rhs_vanishes_at_one(self, ctx20):
        # at x = 1 the right side is zeta'(-k-1, 1) - zeta'(-k-1) = 0
        rep = alt_recursion_check(0, 1, ctx20)
        assert rep.passed and rep.residual < mpmath.mpf("1e-25")

    def test_alexeiewsky(self, ctx20):
        for x in GRIDS["alexeiewsky"]:
            rep = alexeiewsky_check(x, ctx20)
            assert rep.passed, rep

    def test_general_solution(self, ctx20):
        for k, x in GRIDS["general"]:
            rep = general_solution_check(k, x, ctx20)
            assert rep.passed, rep

    def test_long_intervals_keep_small_rules(self, ctx20, monkeypatch):
        # [0, x] cut at 1, 3, 7, ..., 2047: each piece converges as (0, 1) does,
        # where one rule over (0, 3000) ran to 2048 points
        clear_caches()
        sizes = set()
        gl_nodes = validate._gl_nodes
        monkeypatch.setattr(validate, "_gl_nodes",
                            lambda prec, n: sizes.add(n) or gl_nodes(prec, n))
        assert alexeiewsky_check(3000, ctx20).passed
        assert general_solution_check(2, 200, ctx20).passed
        assert sizes and max(sizes) <= 64

    def test_general_solution_rejects_large_order(self, ctx20):
        with pytest.raises(ValueError):
            general_solution_check(4, 1, ctx20)

    def test_gint_moments(self, ctx20):
        for k in GRIDS["gint"]:
            rep = gint_moment_check(k, ctx20)
            assert rep.passed, rep

    def test_gint_gamma_variant(self, ctx20):
        rep = gint_moment_check(2, ctx20, gamma_variant=True)
        assert rep.passed, rep

    def test_gint_variant_only_order_two(self, ctx20):
        with pytest.raises(ValueError):
            gint_moment_check(3, ctx20, gamma_variant=True)

    def test_jeffery_difference(self, ctx20):
        for k, x in GRIDS["jeffery"]:
            rep = jeffery_difference_check(k, x, ctx20)
            assert rep.passed, rep

    def test_log_coefficient(self, ctx20):
        for k in range(7):
            rep = log_coefficient_check(k, ctx20)
            assert rep.passed and rep.residual == 0

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize(
        "delta, differing",
        [({1: Fraction(1, 7)}, 20),  # one coefficient: every point moves
         ({0: Fraction(15, 7), 1: Fraction(-8, 7), 2: Fraction(1, 7)}, 18)],  # (x-3)(x-5)/7
        ids=["one-coefficient", "two-roots"])
    def test_log_coefficient_counts_perturbed_points(self, ctx20, monkeypatch, k, delta, differing):
        # the order-k log-x coefficients perturbed: the check fails with the
        # count of differing points of the Fraction comparison
        original = validate.log_coefficient_poly

        def perturbed(order):
            coeffs = original(order)
            if order == k:
                for p, d in delta.items():
                    coeffs[p] += d
            return coeffs

        monkeypatch.setattr(validate, "log_coefficient_poly", perturbed)
        coeffs = perturbed(k)
        expected = sum(
            sum(c * Fraction(x) ** p for p, c in enumerate(coeffs))
            != bernoulli_poly(k + 1, Fraction(x + 1)) / (k + 1)
            for x in range(1, 21)
        )
        assert expected == differing
        rep = log_coefficient_check(k, ctx20)
        assert not rep.passed and rep.residual == expected
        assert log_coefficient_check(k + 1, ctx20).residual == 0

    def test_bendersky_term_list_and_zeta_corrections_are_kept_and_cleared(self, ctx20):
        first = bendersky_recursion_check(1, 100, ctx20)
        assert validate._integrated_lambda_terms(1, 21) is validate._integrated_lambda_terms(1, 21)
        zeta_positive(3, ctx20)
        assert validate._zeta_correction.cache_info().currsize > 0
        mpcore.clear_caches()
        assert validate._integrated_lambda_terms.cache_info().currsize == 0
        assert validate._zeta_correction.cache_info().currsize == 0
        again = bendersky_recursion_check(1, 100, ctx20)  # rebuilt, the same bits
        assert (again.residual, again.tolerance) == (first.residual, first.tolerance)

    @pytest.mark.parametrize("check, args", [(bendersky_recursion_check, (1,)),
                                             (alexeiewsky_check, ()),
                                             (general_solution_check, (2,))],
                             ids=lambda v: getattr(v, "__name__", None))
    def test_a_point_counts_by_its_value_not_its_type(self, ctx20, check, args):
        reports = [check(*args, x, ctx20) for x in (Fraction(5, 2), 2.5, mpmath.mpf("2.5"))]
        assert all(rep.passed for rep in reports)
        assert len({(rep.residual._mpf_, rep.tolerance._mpf_) for rep in reports}) == 1

    def test_a_non_finite_value_fails_its_check(self, ctx20, monkeypatch):
        # equal infinite values would otherwise cancel to a zero residual
        inf = mpmath.mpf("inf")
        monkeypatch.setattr(validate, "gkbj_constant",
                            lambda k, w, terms, ctx: Result("L", k, w, inf, inf, "trial", {}))
        rep = stabilization_check(1, ctx20)
        assert not rep.passed and mpmath.isnan(rep.residual)

    def test_stabilization(self, ctx20):
        for k in range(5):
            rep = stabilization_check(k, ctx20)
            assert rep.passed, rep

    def test_report_shape(self, ctx20):
        rep = jeffery_difference_check(2, 3, ctx20)
        assert rep.name == "jeffery-difference"
        assert rep.k == 2 and rep.x_or_w == 3
        assert rep.passed == (rep.residual <= rep.tolerance)
        assert rep.elapsed >= 0


class TestSelftest:
    def test_quick_all_pass(self, ctx20):
        reports = selftest("quick", ctx20)
        assert reports and all(r.passed for r in reports)

    def test_quick_at_fifteen_digits(self):
        ctx = PrecisionContext(15)
        reports = selftest("quick", ctx)
        assert all(r.passed for r in reports)

    def test_full_all_pass(self, ctx20):
        reports = selftest("full", ctx20)
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]
        names = {r.name for r in reports}
        assert {
            "bendersky-recursion",
            "alt-recursion",
            "alexeiewsky",
            "general-solution",
            "gint-moment",
            "gint-moment-gamma-variant",
            "jeffery-difference",
            "log-coefficient",
            "stabilization",
            "raabe-integral",
        } <= names

    @pytest.mark.parametrize("digits", [30, 40])
    def test_full_all_pass_at_more_digits(self, digits):
        reports = selftest("full", PrecisionContext(digits))
        assert len(reports) == 63
        assert all(r.passed for r in reports), [r for r in reports if not r.passed]

    def test_the_table_is_the_benchmarks_grid(self):
        # perfbench's identity-suite workload repeats the full rows, by name
        from perfbench.workloads import _suite_checks

        rows = [(check.__name__, [str(a) if isinstance(a, Fraction) else a for a in args], kwargs)
                for check, args, kwargs, _ in validate._SUITE]
        assert rows == _suite_checks()

    def test_each_level_runs_its_rows_of_the_table(self, ctx20, monkeypatch):
        calls = []

        def spy(check):
            return lambda *args, **kwargs: calls.append((check, args, kwargs))

        table = validate._SUITE
        monkeypatch.setattr(validate, "_SUITE", [(spy(c), a, kw, q) for c, a, kw, q in table])
        for level, count in (("quick", 18), ("full", 63)):
            calls.clear()
            selftest(level, ctx20)
            assert calls == [(check, args, dict(kwargs, ctx=ctx20))
                             for check, args, kwargs, in_quick in table
                             if in_quick or level == "full"]
            assert len(calls) == count

    def test_a_check_that_raises_is_a_failed_report(self, ctx20, monkeypatch, capsys):
        clean = selftest("quick", ctx20)

        def stalled(*args, **kwargs):
            raise NonConvergent("level differences stalled")

        monkeypatch.setattr(validate, "_tanh_sinh", stalled)  # quadrature's integrator
        monkeypatch.setattr(validate, "_log_gengamma_level", stalled)  # Raabe's level route
        reports = selftest("quick", ctx20)
        assert [(r.name, r.k, r.x_or_w) for r in reports] == [(r.name, r.k, r.x_or_w) for r in clean]
        assert [r.name for r in reports if not r.passed] == [
            "quadrature-constant", "quadrature-log-singular", "raabe-integral"]
        assert run(["selftest", "--level", "quick"]) == 1
        assert "15/18 passed" in capsys.readouterr().out

    def test_rejects_unknown_level(self, ctx20):
        with pytest.raises(ValueError):
            selftest("exhaustive", ctx20)

    def test_fault_injection_names_stabilization(self, ctx20):
        # a corrupted tangent number must surface as a stabilization failure:
        # T_2 is the one source of B_4 and of the tail entries with k + s = 4
        clear_caches()
        try:
            mpcore.bernoulli(12)  # grow the table before poisoning it
            mpcore._BERNOULLI._tangents[2] = 3
            reports = selftest("quick", ctx20)
            failed = {r.name for r in reports if not r.passed}
            assert "stabilization" in failed
        finally:
            clear_caches()
        # and a clean run passes again
        assert all(r.passed for r in selftest("quick", ctx20))
