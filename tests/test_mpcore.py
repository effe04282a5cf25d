import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, mpf_div, round_nearest

from hzeta import PrecisionContext, bernoulli, bernoulli_poly, build_lambda_terms, harmonic, hurwitz_deriv, phi
from hzeta import exact_log_gengamma, gengamma, log_gengamma, mpcore, shift_log_gengamma, validate
from hzeta import zeta_positive
from hzeta.asymptotic import plan
from hzeta.mpcore import BernoulliCache, as_exact, clear_caches, to_mpf
from hzeta.validate import selftest


def akiyama_tanigawa(n):
    """Independent Bernoulli oracle: B_0..B_n in one Akiyama-Tanigawa sweep
    (first-kind convention gives B_1 = +1/2; flip the sign to land on
    B_1 = -1/2)."""
    row, out = [], []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return out


class TestBernoulli:
    def test_defining_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)

    def test_b12(self):
        assert akiyama_tanigawa(12)[12] == Fraction(-691, 2730)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_against_independent_oracle(self):
        oracle = akiyama_tanigawa(200)
        for n in range(201):
            assert bernoulli(n) == oracle[n]

    def test_against_oracle_after_a_tail_grew_the_table(self):
        # a series tail reads the tangent numbers directly; the Fractions
        # made from them afterwards are the oracle's
        clear_caches()
        build_lambda_terms(12, 150)  # largest index 12 + 2 + 2 * 149 = 312
        assert len(mpcore._BERNOULLI._tangents) == 157
        assert [bernoulli(n) for n in range(301)] == akiyama_tanigawa(300)

    def test_odd_vanish(self):
        for m in range(1, 21):
            assert bernoulli(2 * m + 1) == 0

    def test_recurrence(self):
        # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
        for n in range(1, 41):
            total = sum(math.comb(n + 1, j) * bernoulli(j) for j in range(n + 1))
            assert total == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestBernoulliGrowth:
    """The tangent table T_0..T_h, and the B_n Fractions made from it on request."""

    def test_one_call_matches_index_by_index(self):
        whole, stepwise = BernoulliCache(), BernoulliCache()
        whole.get(300)
        stepwise_values = [stepwise.get(n) for n in range(301)]
        assert whole._tangents == stepwise._tangents and len(whole._tangents) == 151
        assert [whole.get(n) for n in range(301)] == stepwise_values

    def test_growth_appends_only(self):
        table = BernoulliCache()
        table.get(12)
        before = list(table._tangents)
        made = [table.get(n) for n in range(13)]
        table.get(200)
        assert len(table._tangents) == 101
        assert all(a is b for a, b in zip(before, table._tangents[:7], strict=True))
        assert all(b is table.get(n) for n, b in enumerate(made))

    def test_concurrent_growth_matches_serial(self):
        serial, shared = BernoulliCache(), BernoulliCache()
        targets = (57, 120, 181, 250)
        for n in targets:
            serial.get(n)
        start = threading.Barrier(len(targets))

        def grow(n):
            start.wait(timeout=30)
            shared.get(n)

        threads = [threading.Thread(target=grow, args=(n,)) for n in targets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert shared._tangents == serial._tangents
        assert [shared.get(n) for n in range(251)] == [serial.get(n) for n in range(251)]


class TestBernoulliPoly:
    def test_b1_at_zero(self):
        assert bernoulli_poly(1, 0) == Fraction(-1, 2)

    def test_b2_at_one(self):
        assert bernoulli_poly(2, 1) == Fraction(1, 6)

    def test_b3_at_two(self):
        # oracle: expand y^3 - (3/2) y^2 + y/2 at y = 2 in exact rationals
        y = Fraction(2)
        assert y**3 - Fraction(3, 2) * y**2 + y / 2 == 3
        assert bernoulli_poly(3, 2) == 3

    @given(st.integers(0, 8), st.fractions(min_value=-5, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_difference_property(self, n, x):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        if n == 0:
            assert bernoulli_poly(0, x + 1) == bernoulli_poly(0, x)
        else:
            assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == n * x ** (n - 1)

    def test_real_argument(self, ctx20):
        with ctx20.workprec():
            val = bernoulli_poly(2, mpmath.mpf("0.5"))
            assert abs(val - (mpmath.mpf("0.25") - mpmath.mpf("0.5") + to_mpf(Fraction(1, 6)))) < mpmath.mpf("1e-30")

    def test_monotone_refinement(self):
        lo = PrecisionContext(target_digits=15)
        hi = PrecisionContext(target_digits=30)
        with lo.workprec():
            a = bernoulli_poly(6, mpmath.mpf(10) / 3)
        with hi.workprec():
            b = bernoulli_poly(6, mpmath.mpf(10) / 3)
            assert mpmath.nstr(b, 15) == mpmath.nstr(a, 15)


def fraction_sum_bernoulli_poly(n, x):
    """B_n(x) as the Fraction sum of C(n,j) B_j x^(n-j), term by term."""
    xq = Fraction(x)
    acc = Fraction(0)
    for j in range(n + 1):
        b = bernoulli(j)
        if b:
            acc += math.comb(n, j) * b * xq ** (n - j)
    return acc


rationals = st.one_of(
    st.integers(-10**9, 10**9),
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)),
)


class TestIntegerPath:
    """The int/Fraction path (common denominator per n, Horner's rule in
    integers) against the Fraction sum, term by term."""

    @seed(15)
    @given(st.integers(0, 60), rationals)
    @settings(max_examples=200, deadline=None)
    def test_bernoulli_poly_equals_the_fraction_sum(self, n, x):
        got = bernoulli_poly(n, x)
        assert type(got) is Fraction
        assert got == fraction_sum_bernoulli_poly(n, x)

    @seed(15)
    @given(st.integers(1, 60), rationals)
    @settings(max_examples=200, deadline=None)
    def test_phi_equals_the_fraction_sum(self, n, x):
        expected = (fraction_sum_bernoulli_poly(n + 1, x) - bernoulli(n + 1)) / (n + 1)
        got = phi(n, x)
        assert type(got) is Fraction
        assert got == expected

    def test_clear_caches_empties_the_coefficient_table(self):
        bernoulli_poly(5, Fraction(1, 3))
        assert mpcore._bernoulli_poly_ints.cache_info().currsize > 0
        clear_caches()
        assert mpcore._bernoulli_poly_ints.cache_info().currsize == 0


class TestBinaryArgument:
    """At a float or mpf, bernoulli_poly and phi are the Fraction result at
    the argument's exact value, rounded once at the ambient precision."""

    @staticmethod
    def nodes():
        rng = random.Random(23)
        with mpmath.mp.workprec(300):  # 272-bit mantissas in (-2, 6)
            return [mpmath.mpf((rng.getrandbits(272), -269)) - 2 for _ in range(60)]

    @pytest.mark.parametrize("prec", [53, 136])
    @pytest.mark.parametrize("fn", [bernoulli_poly, phi], ids=["bernoulli_poly", "phi"])
    def test_equals_the_rounded_fraction_result(self, fn, prec):
        for x in self.nodes():
            for n in range(1, 7):
                with mpmath.mp.workprec(prec):
                    got = fn(n, x)
                    assert got._mpf_ == to_mpf(fn(n, as_exact(x)))._mpf_, (n, x)
                    assert fn(n, float(x))._mpf_ == to_mpf(fn(n, as_exact(float(x))))._mpf_


class TestToMpf:
    @pytest.mark.parametrize("prec", [53, 136])
    def test_a_fraction_is_rounded_once(self, prec):
        # numerators longer than the precision, which a rounded numerator
        # would round twice
        rng = random.Random(prec)
        for _ in range(500):
            den = rng.choice((3, 7, 11, 1000003, rng.getrandbits(40) | 1))
            x = Fraction(rng.getrandbits(prec + rng.randint(1, 80)), den)
            want = mpf_div(from_int(x.numerator), from_int(x.denominator), prec, round_nearest)
            with mpmath.mp.workprec(prec):
                got = to_mpf(x)
            assert got._mpf_ == want, x
            if prec == 53:
                assert float(got) == float(x), x


class TestPhi:
    def test_small_sums(self):
        assert phi(1, 4) == 6
        assert phi(2, 4) == 14

    @given(st.fractions(min_value=-10, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_order_one_closed_form(self, x):
        assert phi(1, x) == x * (x - 1) / 2

    def test_brute_force_power_sums(self):
        for n in range(1, 13):
            for w in range(1, 51):
                assert phi(n, w + 1) == sum(Fraction(i) ** n for i in range(1, w + 1))

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            phi(0, 3)


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(4) == Fraction(25, 12)

    @given(st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_exact_sum(self, n):
        assert harmonic(n) == sum(Fraction(1, i) for i in range(1, n + 1))


class TestPrecisionContext:
    def test_working_floor(self):
        assert PrecisionContext(20, 3).working_digits == 30
        assert PrecisionContext(20, 15).working_digits == 35

    def test_rejects_bad_settings(self):
        with pytest.raises(ValueError):
            PrecisionContext(0)
        with pytest.raises(ValueError):
            PrecisionContext(10, 0)
        # not rounded or truncated to an int: 20.5 digits would run at 35.5 working digits
        for bad in ((20.5,), (20, 15.0), ("20",), (None,)):
            with pytest.raises(TypeError):
                PrecisionContext(*bad)

    def test_workprec_scopes_mpmath(self):
        ctx = PrecisionContext(target_digits=40)
        before = mpmath.mp.dps
        with ctx.workprec():
            assert mpmath.mp.dps == 55
        assert mpmath.mp.dps == before

    def test_rounding_floor_has_the_bits_of_a_fresh_power(self):
        # the power is cached per precision: a value cached at W+5 digits
        # must not be reused at W
        ctx = PrecisionContext(20)
        for extra in (5, 0, 5):
            with ctx.workprec(extra):
                fresh = mpmath.mpf(3) * mpmath.mpf(10) ** -(ctx.working_digits - 2)
                assert ctx.rounding_floor(-3)._mpf_ == fresh._mpf_


class TestAsExact:
    @pytest.mark.parametrize("x", [mpmath.e, mpmath.pi, "3/7", "2.5", 1j, None],
                             ids=["e", "pi", "str-rational", "str-decimal", "complex", "None"])
    def test_rejects_what_it_cannot_keep_exact(self, x):
        with pytest.raises(TypeError):
            as_exact(x)

    @pytest.mark.parametrize("x", [mpmath.e, "0.5"], ids=["e", "str"])
    @pytest.mark.parametrize("call", [
        lambda x: hurwitz_deriv(0, x, PrecisionContext(20)),
        lambda x: bernoulli_poly(2, x),
        lambda x: phi(2, x),
    ], ids=["hurwitz_deriv", "bernoulli_poly", "phi"])
    def test_an_mpmath_constant_is_rejected_at_the_entry_point(self, call, x):
        with pytest.raises(TypeError):
            call(x)

    @pytest.mark.parametrize(
        "x", [math.inf, -math.inf, math.nan, mpmath.inf, -mpmath.inf, mpmath.nan],
        ids=["inf", "-inf", "nan", "mpf-inf", "mpf--inf", "mpf-nan"])
    @pytest.mark.parametrize("call", [
        lambda x, ctx: hurwitz_deriv(1, x, ctx),
        lambda x, ctx: log_gengamma(1, x, ctx),
        lambda x, ctx: shift_log_gengamma(1, x, 3, 0, ctx),
        lambda x, ctx: plan(1, x, ctx),
        lambda x, ctx: bernoulli_poly(2, x),
        lambda x, ctx: phi(2, x),
    ], ids=["hurwitz_deriv", "log_gengamma", "shift_log_gengamma", "plan", "bernoulli_poly", "phi"])
    def test_a_nonfinite_argument_fails_at_the_entry_point(self, call, x):
        with pytest.raises(ValueError, match="argument must be finite"):
            call(x, PrecisionContext(20))

    @pytest.mark.parametrize("prec", [10, 53, 200])
    def test_a_float_keeps_all_its_bits_at_any_ambient_precision(self, prec):
        with mpmath.mp.workprec(prec):
            assert as_exact(0.1) == Fraction(0.1)

    def test_a_float_argument_is_not_rounded_by_a_low_ambient_precision(self):
        ctx = PrecisionContext(20)
        ref = hurwitz_deriv(0, 0.1, ctx)
        with mpmath.mp.workprec(10):
            low = hurwitz_deriv(0, 0.1, ctx)
        assert (low.value, low.err) == (ref.value, ref.err)
        assert ref.value == hurwitz_deriv(0, mpmath.mpf(0.1), ctx).value


class TestMemo:
    def test_clear_caches_empties_every_memo(self):
        selftest("quick", PrecisionContext(20))
        filled = [fn for fn in mpcore._MEMOS if fn.cache_info().currsize]
        assert mpcore._floor_power in filled
        clear_caches()
        for fn in mpcore._MEMOS:
            assert fn.cache_info().currsize == 0, fn.__wrapped__.__qualname__

    def test_clear_caches_empties_the_raw_value_tables(self):
        # the exact sum's prime weights and zeta_positive's corrections
        ctx = PrecisionContext(20)
        tables = (gengamma._prime_weights, validate._zeta_correction)
        exact_log_gengamma(2, 50, ctx)
        zeta_positive(4, ctx)
        assert all(fn.cache_info().currsize for fn in tables)
        clear_caches()
        assert not any(fn.cache_info().currsize for fn in tables)
