from fractions import Fraction

import mpmath
import pytest

from hzeta import (
    PrecisionContext,
    hurwitz_deriv,
    hurwitz_deriv_integer,
    log_gengamma,
    zeta_deriv_neg,
    zeta_positive,
)
from hzeta.constants import gkbj_auto, gkbj_constant
from hzeta.mpcore import as_exact, bernoulli, harmonic, to_mpf


class TestZetaDerivNeg:
    def test_order_zero(self, ctx20):
        d = zeta_deriv_neg(0, ctx20)
        with ctx20.workprec():
            oracle = -mpmath.log(2 * mpmath.pi) / 2
            assert abs(d.value - oracle) <= d.err + ctx20.rounding_floor(1)
        assert d.arg is None

    def test_order_one_printed(self, ctx20):
        d = zeta_deriv_neg(1, ctx20)
        with ctx20.workprec():
            # 1/12 - L_1, with L_1 pinned by the printed summation constant
            oracle = to_mpf(Fraction(1, 12) - Fraction(1, 8)) + mpmath.mpf("-0.2475089541") / 2
            # the 10 printed digits limit the oracle to half an ulp, halved
            assert abs(d.value - oracle) < mpmath.mpf("2.5e-11")

    def test_order_two_functional_equation(self, ctx30):
        d = zeta_deriv_neg(2, ctx30)
        with ctx30.workprec():
            oracle = -zeta_positive(3, ctx30) / (4 * mpmath.pi**2)
            assert abs(d.value - oracle) <= mpmath.mpf("1e-30")

    def test_even_orders_functional_equation(self, ctx20):
        # zeta'(-2m) = (-1)^m (2m)! zeta(2m+1) / (2 (2pi)^(2m))
        import math

        for m in (1, 2, 3):
            d = zeta_deriv_neg(2 * m, ctx20)
            with ctx20.workprec():
                oracle = (
                    mpmath.mpf(-1) ** m
                    * math.factorial(2 * m)
                    * zeta_positive(2 * m + 1, ctx20)
                    / (2 * (2 * mpmath.pi) ** (2 * m))
                )
                assert abs(d.value - oracle) <= mpmath.mpf(10) ** -ctx20.target_digits

    @pytest.mark.parametrize("k, w_trial, tail_terms", [(0, 150, 25), (1, 200, 30), (3, 120, None)])
    def test_trial_overrides(self, ctx20, k, w_trial, tail_terms):
        d = zeta_deriv_neg(k, ctx20, w_trial=w_trial, tail_terms=tail_terms)
        const = gkbj_constant(k, w_trial, tail_terms or 7, ctx20)
        with ctx20.workprec():
            expected = to_mpf(harmonic(k) * bernoulli(k + 1) / (k + 1)) - const.value
        assert d.value == expected
        assert d.err == const.err
        assert d.params == const.params

    def test_default_is_auto_search(self, ctx20):
        for k in range(4):
            assert zeta_deriv_neg(k, ctx20).params == gkbj_auto(k, ctx20).params



class TestIntegerOffsets:
    def test_w_one_is_riemann_case(self, ctx20):
        for k in range(5):
            a = hurwitz_deriv_integer(k, 1, ctx20)
            b = zeta_deriv_neg(k, ctx20)
            assert a.value == b.value

    def test_w_two_order_zero(self, ctx20):
        # zeta(s, 2) = zeta(s) - 1, so the derivatives at s = 0 coincide
        a = hurwitz_deriv_integer(0, 2, ctx20)
        b = zeta_deriv_neg(0, ctx20)
        with ctx20.workprec():
            assert abs(a.value - b.value) <= a.err + b.err

    def test_order_one_w_three(self, ctx20):
        d = hurwitz_deriv_integer(1, 3, ctx20)
        base = zeta_deriv_neg(1, ctx20)
        with ctx20.workprec():
            assert abs(d.value - base.value - mpmath.log(4)) <= d.err + base.err

    def test_rejects_bad_offset(self, ctx20):
        with pytest.raises(ValueError):
            hurwitz_deriv_integer(1, 0, ctx20)


class TestRealOffsets:
    def test_duplication_identity(self, ctx20):
        # zeta(s, 1/2) = (2^s - 1) zeta(s) differentiated at s = -1
        d = hurwitz_deriv(1, Fraction(1, 2), ctx20)
        base = zeta_deriv_neg(1, ctx20)
        with ctx20.workprec():
            oracle = -base.value / 2 - mpmath.log(2) / 24
            assert abs(d.value - oracle) <= d.err + base.err + ctx20.rounding_floor(1)

    def test_w_one_reached_by_shifting(self, ctx20):
        d = hurwitz_deriv(0, 1, ctx20)
        with ctx20.workprec():
            oracle = -mpmath.log(2 * mpmath.pi) / 2
            assert abs(d.value - oracle) <= d.err + ctx20.rounding_floor(1)
        assert d.method == "asymptotic-shift"

    def test_w_one_consistency(self, ctx20):
        for k in range(7):
            a = hurwitz_deriv(k, 1, ctx20)
            b = zeta_deriv_neg(k, ctx20)
            with ctx20.workprec():
                assert abs(a.value - b.value) <= a.err + b.err + ctx20.rounding_floor(1)

    def test_cross_method_agreement(self, ctx20):
        for k in range(5):
            for w in (2, 5, 17, 50):
                a = hurwitz_deriv(k, w, ctx20)
                b = hurwitz_deriv_integer(k, w, ctx20)
                with ctx20.workprec():
                    bound = mpmath.mpf(10) ** -20 * max(1, abs(b.value))
                    assert abs(a.value - b.value) <= bound

    def test_forward_difference_law(self, ctx20):
        for k in range(5):
            for w in (Fraction(3, 10), Fraction(17, 10), Fraction(21, 4)):
                hi = hurwitz_deriv(k, w + 1, ctx20)
                lo = hurwitz_deriv(k, w, ctx20)
                with ctx20.workprec():
                    step = to_mpf(w**k) * mpmath.log(to_mpf(w))
                    resid = hi.value - lo.value - step
                    assert abs(resid) <= hi.err + lo.err + ctx20.rounding_floor(abs(step) + 1)

    def test_independent_multiprecision_oracle(self, ctx20):
        # spot values against a library route we never use internally
        for k, w in ((0, Fraction(1, 4)), (2, 7), (3, Fraction(17, 10))):
            d = hurwitz_deriv(k, w, ctx20)
            with mpmath.mp.workdps(45):
                oracle = mpmath.zeta(-k, to_mpf(Fraction(w)), 1)
                assert abs(d.value - oracle) < mpmath.mpf("1e-25")

    def test_mpf_offset_is_not_rounded_to_the_ambient_precision(self):
        # an mpf made at 60 digits keeps its bits when the call is made at
        # mpmath's default 15; rounded to 53 bits it was off by 1.9e-18
        with mpmath.mp.workdps(60):
            w = mpmath.mpf(1) / 3
        ctx = PrecisionContext(40)
        with mpmath.mp.workdps(15):
            d = hurwitz_deriv(1, w, ctx)
        assert d.arg == as_exact(w)
        with mpmath.mp.workdps(80):
            assert abs(d.value - mpmath.zeta(-1, w, 1)) <= d.err <= mpmath.mpf(10) ** -40

    def test_rejects_nonpositive(self, ctx20):
        with pytest.raises(ValueError):
            hurwitz_deriv(1, 0, ctx20)
        with pytest.raises(ValueError):
            hurwitz_deriv(1, Fraction(-1, 2), ctx20)


class TestPrecisionScaling:
    def test_thirty_digit_agreement(self, ctx30):
        a = hurwitz_deriv(2, 7, ctx30)
        b = hurwitz_deriv_integer(2, 7, ctx30)
        with ctx30.workprec():
            assert abs(a.value - b.value) <= mpmath.mpf(10) ** -30 * max(1, abs(b.value))


class TestOracleGrid:
    """Both shifted-series routes against mpmath at D + 40 digits, past the
    precision a fixed-length tail could reach: the error estimate covers
    the actual error and meets the requested 10^-D."""

    @pytest.mark.parametrize("digits", [60, 100, 200])
    @pytest.mark.parametrize("w", [Fraction(3, 7), Fraction(5, 2), Fraction(71, 3)], ids=str)
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    @pytest.mark.parametrize("route", [hurwitz_deriv, log_gengamma], ids=lambda f: f.__name__)
    def test_value_within_err_within_target(self, route, k, w, digits):
        res = route(k, w, PrecisionContext(target_digits=digits))
        with mpmath.mp.workdps(digits + 40):
            oracle = mpmath.zeta(-k, to_mpf(w), 1)
            if route is log_gengamma:  # log Gamma_k(w) = zeta'(-k, w) - zeta'(-k)
                oracle -= mpmath.zeta(-k, 1, 1)
            assert abs(res.value - oracle) <= res.err <= mpmath.mpf(10) ** -digits

    @pytest.mark.parametrize(
        "k, w", [(1, Fraction(10**17 + 1, 2)), (3, Fraction(2 * 10**16 + 1, 2)),
                 (0, Fraction(10**37 + 1, 2))], ids=str)
    def test_large_argument_needs_no_shift_and_one_term(self, ctx20, k, w):
        res = hurwitz_deriv(k, w, ctx20)
        with mpmath.mp.workdps(80):
            oracle = mpmath.zeta(-k, to_mpf(w), 1)
            assert abs(res.value - oracle) <= res.err <= mpmath.mpf(10) ** -20 * abs(oracle)

    @pytest.mark.parametrize("w", [Fraction(10**400, 3), "1e400"], ids=["10^400/3", "1e400"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_argument_beyond_float_range(self, ctx20, k, w):
        # no shift, one term: the plan compares with the threshold exactly and
        # takes log w without float(w)
        w = mpmath.mpf(w) if isinstance(w, str) else w
        res = hurwitz_deriv(k, w, ctx20)
        assert res.params == {"tail_terms": 1}
        with mpmath.mp.workdps(60):
            assert abs(res.value - mpmath.zeta(-k, to_mpf(w), 1)) <= res.err


class TestExactRoutesOracleGrid:
    """The routes built on the exact sum against mpmath at D + 40 digits:
    the error estimate covers the actual error and meets 10^-D."""

    @pytest.mark.parametrize("digits", [20, 100])
    @pytest.mark.parametrize("k", range(5))
    def test_constant_and_zeta_derivative(self, k, digits):
        ctx = PrecisionContext(digits)
        const, deriv = gkbj_auto(k, ctx), zeta_deriv_neg(k, ctx)
        with mpmath.mp.workdps(digits + 40):
            oracle = mpmath.zeta(-k, 1, 1)
            head = to_mpf(harmonic(k) * bernoulli(k + 1) / (k + 1))
            bound = mpmath.mpf(10) ** -digits
            assert abs(deriv.value - oracle) <= deriv.err <= bound
            assert abs(const.value - (head - oracle)) <= const.err <= bound

    @pytest.mark.parametrize("digits", [20, 100])
    @pytest.mark.parametrize("w", [2, 17, 50])
    @pytest.mark.parametrize("k", range(5))
    def test_integer_offset(self, k, w, digits):
        res = hurwitz_deriv_integer(k, w, PrecisionContext(digits))
        with mpmath.mp.workdps(digits + 40):
            oracle = mpmath.zeta(-k, w, 1)
            assert abs(res.value - oracle) <= res.err <= mpmath.mpf(10) ** -digits
