import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzeta import (
    ArgumentTooSmall,
    PrecisionContext,
    TermPoly,
    bernoulli,
    bernoulli_poly,
    build_lambda_terms,
    eval_lambda,
    eval_term_poly,
    exact_log_gengamma,
    gkbj_constant,
    integrate_lambda_terms,
    log_coefficient_poly,
    shift_threshold,
)
from hzeta import asymptotic, constants, gengamma, hurwitz, hurwitz_deriv, log_gengamma, validate
from hzeta import zeta_deriv_neg
from hzeta.asymptotic import plan, tail_length
from hzeta.mpcore import clear_caches, harmonic, to_mpf


def as_dicts(poly):
    main = {(p, l): c for c, p, l in poly.main_terms}
    tail = {q: Fraction(num, den) for num, den, q in poly.tail_terms}
    return main, tail


def tail_of(pairs):
    """Tail triples from (Fraction, inv_power) pairs: equal powers summed,
    zero sums dropped, sorted by power."""
    acc = {}
    for c, q in pairs:
        acc[q] = acc.get(q, 0) + c
    return tuple((c.numerator, c.denominator, q) for q, c in sorted(acc.items()) if c)


def fractions(tail):
    return tuple((Fraction(num, den), q) for num, den, q in tail)


class TestBuildTerms:
    def test_order_two(self):
        main, tail = as_dicts(build_lambda_terms(2, 2))
        assert main == {
            (3, True): Fraction(1, 3),
            (2, True): Fraction(1, 2),
            (1, True): Fraction(1, 6),
            (3, False): Fraction(-1, 9),
            (1, False): Fraction(1, 12),
        }
        assert tail == {1: Fraction(-1, 360), 3: Fraction(1, 7560)}

    def test_order_one(self):
        main, tail = as_dicts(build_lambda_terms(1, 2))
        assert main == {
            (2, True): Fraction(1, 2),
            (1, True): Fraction(1, 2),
            (0, True): Fraction(1, 12),
            (2, False): Fraction(-1, 4),
        }
        assert tail == {2: Fraction(1, 720), 4: Fraction(-1, 5040)}

    def test_order_zero(self):
        main, tail = as_dicts(build_lambda_terms(0, 3))
        assert main == {
            (1, True): Fraction(1),
            (0, True): Fraction(1, 2),
            (1, False): Fraction(-1),
        }
        assert tail == {1: Fraction(1, 12), 3: Fraction(-1, 360), 5: Fraction(1, 1260)}

    @pytest.mark.parametrize("k", [-3, -1])
    def test_rejects_low_order(self, k):
        with pytest.raises(ValueError):
            build_lambda_terms(k, 5)

    def test_tail_entries_sorted_and_counted(self):
        poly = build_lambda_terms(4, 7)
        powers = [q for _, _, q in poly.tail_terms]
        assert powers == sorted(powers)
        assert len(powers) == 7

    @pytest.mark.parametrize("k", range(13))
    def test_tail_entries_match_reference_formula(self, k):
        # (-1)^s k! (s-2)! B_{k+s} / (k+s)! at x^-(s-1), nonzero entries only
        reference = []
        s = 2
        while len(reference) < 150:
            c = Fraction((-1) ** s * math.factorial(k) * math.factorial(s - 2)) * bernoulli(k + s)
            c /= math.factorial(k + s)
            if c:
                reference.append((c, s - 1))
            s += 1
        assert fractions(build_lambda_terms(k, 150).tail_terms) == tuple(reference)


class TestEvalLambda:
    def test_stirling_regime(self, ctx20):
        # remainder + limiting constant must reproduce log(100!) to 29+ digits
        lam = eval_lambda(0, 100, 20, ctx20)
        exact = exact_log_gengamma(0, 100, ctx20)
        with ctx20.workprec():
            l0 = mpmath.log(2 * mpmath.pi) / 2
            assert abs(l0 + lam.value - exact.value) < mpmath.mpf("1e-29")

    def test_small_argument_rejected(self, ctx20):
        with pytest.raises(ArgumentTooSmall):
            eval_lambda(0, 1, 20, ctx20)

    def test_below_one_rejected(self, ctx20):
        with pytest.raises(ValueError):
            eval_lambda(0, Fraction(1, 2), 20, ctx20)

    @pytest.mark.parametrize("x", [mpmath.mpf(30.5), 30.5], ids=["mpf", "float"])
    def test_arg_is_the_exact_value(self, ctx20, x):
        arg = eval_lambda(0, x, ctx=ctx20).arg
        assert type(arg) is Fraction and arg == Fraction(61, 2)

    def test_truncation_message_names_the_exact_argument_on_both_routes(self, ctx20,
                                                                        monkeypatch):
        # every err is too large against a zero ratio; the node 0.375 is
        # shifted to 0.375 + 20 = 163/8
        monkeypatch.setattr(asymptotic, "_TOO_SMALL", mpmath.libmp.fzero)
        node = mpmath.mpf(0.375)
        head = hurwitz._head(1, ctx20.bits(5))
        with pytest.raises(ArgumentTooSmall, match=r"at x=163/8$"):
            gengamma._series_level(1, [node._mpf_], head, 0, ctx20)
        with pytest.raises(ArgumentTooSmall, match=r"at x=163/8$"):
            hurwitz_deriv(1, node, ctx20)

    def test_err_covers_truth(self, ctx20):
        # truncation-error honesty: reported err bounds the actual deviation
        for k in range(5):
            ref = gkbj_constant(k, 300, 30, ctx20)
            for x in (50, 100):
                for tail in (5, 10, 20):
                    lam = eval_lambda(k, x, tail, ctx20)
                    exact = exact_log_gengamma(k, x, ctx20)
                    with ctx20.workprec():
                        deviation = abs(ref.value + lam.value - exact.value)
                        assert deviation <= lam.err + ref.err


def differentiate(poly: TermPoly) -> TermPoly:
    """Test-side symbolic derivative, the inverse of termwise integration."""
    main = []
    tail = []
    for c, p, has_log in poly.main_terms:
        if has_log:
            if p > 0:
                main.append((c * p, p - 1, True))
                main.append((c, p - 1, False))
            else:
                tail.append((c, 1))
        elif p > 0:
            main.append((c * p, p - 1, False))
    for c, q in fractions(poly.tail_terms):
        tail.append((-c * q, q + 1))
    from hzeta.asymptotic import _merge_main

    return TermPoly(poly.k - 1, _merge_main(main), tail_of(tail))


main_term = st.tuples(
    st.fractions(min_value=-10, max_value=10).filter(bool),
    st.integers(0, 6),
    st.booleans(),
)
tail_term = st.tuples(
    st.fractions(min_value=-10, max_value=10).filter(bool),
    st.integers(1, 9),
)


class TestIntegration:
    def test_constant_term(self):
        poly = TermPoly(0, ((Fraction(3), 0, False),), ())
        out = integrate_lambda_terms(poly)
        assert out.main_terms == ((Fraction(3), 1, False),)

    def test_x_log_x(self):
        poly = TermPoly(0, ((Fraction(1), 1, True),), ())
        out = integrate_lambda_terms(poly)
        main, _ = as_dicts(out)
        assert main == {(2, True): Fraction(1, 2), (2, False): Fraction(-1, 4)}

    def test_inverse_x_promotes_to_log(self):
        poly = TermPoly(2, (), tail_of([(Fraction(-1, 360), 1)]))
        out = integrate_lambda_terms(poly)
        main, tail = as_dicts(out)
        assert main == {(0, True): Fraction(-1, 360)}
        assert tail == {}
        # differentiating the promoted log term must recover the input
        back = differentiate(out)
        assert back.main_terms == poly.main_terms
        assert fractions(back.tail_terms) == fractions(poly.tail_terms)

    @given(st.lists(main_term, max_size=6), st.lists(tail_term, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_differentiation_round_trip(self, main, tail):
        from hzeta.asymptotic import _merge_main

        poly = TermPoly(0, _merge_main(main), tail_of(tail))
        back = differentiate(integrate_lambda_terms(poly))
        assert back.main_terms == poly.main_terms
        assert fractions(back.tail_terms) == fractions(poly.tail_terms)


class TestLogCoefficient:
    def test_order_two(self):
        # x^3/3 + x^2/2 + x/6, ascending, with the vanishing constant slot
        assert log_coefficient_poly(2) == [
            Fraction(0),
            Fraction(1, 6),
            Fraction(1, 2),
            Fraction(1, 3),
        ]

    def test_order_one(self):
        assert log_coefficient_poly(1) == [Fraction(1, 12), Fraction(1, 2), Fraction(1, 2)]

    def test_order_three_at_one(self):
        coeffs = log_coefficient_poly(3)
        value = sum(c for c in coeffs)  # evaluate at x = 1
        assert value == bernoulli_poly(4, Fraction(2)) / 4

    def test_identity_against_bernoulli(self):
        # coefficient of log x equals B_{k+1}(x+1)/(k+1), exactly
        for k in range(7):
            coeffs = log_coefficient_poly(k)
            for x in range(1, 21):
                xq = Fraction(x)
                value = sum(c * xq**p for p, c in enumerate(coeffs))
                assert value == bernoulli_poly(k + 1, xq + 1) / (k + 1)


class TestStabilization:
    def test_constant_across_trial_points(self, ctx20):
        # strongest misprint detector: the exact-sum/series difference is
        # independent of the trial argument
        for k in range(7):
            recs = [gkbj_constant(k, w, 20, ctx20) for w in (50, 100, 200)]
            with ctx20.workprec():
                spread = max(r.value for r in recs) - min(r.value for r in recs)
                assert spread <= sum(r.err for r in recs)


class TestThreshold:
    def test_default_and_scaling(self):
        assert shift_threshold(PrecisionContext(10)) == 20
        assert shift_threshold(PrecisionContext(20)) == 20
        assert shift_threshold(PrecisionContext(30)) == 27
        assert shift_threshold(PrecisionContext(50)) == 45


class TestPlan:
    @staticmethod
    def log10_bound(k, s, y):
        """log10 of 2 zeta(2) k! (s-2)! / ((2 pi)^(k+s) y^(s-1)), the bound on
        the tail entry of inverse power s - 1."""
        with mpmath.mp.workdps(30):
            b = (2 * mpmath.zeta(2) * mpmath.factorial(k) * mpmath.factorial(s - 2)
                 / ((2 * mpmath.pi) ** (k + s) * to_mpf(y) ** (s - 1)))
            return mpmath.log10(b)

    @pytest.mark.parametrize("digits", [20, 100, 200])
    @pytest.mark.parametrize(
        "x", [0, Fraction(-4, 7), Fraction(71, 3), 150, mpmath.mpf("2.75")], ids=str)
    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    def test_shift_clears_threshold_and_tail_reaches_working_precision(self, k, x, digits):
        ctx = PrecisionContext(target_digits=digits)
        n, terms = plan(k, x, ctx)
        y = x + n
        assert n >= 0 and y >= shift_threshold(ctx)
        assert n == 0 or y - 1 < shift_threshold(ctx)
        # nonzero entries have k + s even; the first one held back is the
        # first whose bound is below 10^-working_digits
        s_held = 2 + k % 2 + 2 * terms
        assert self.log10_bound(k, s_held, y) < -ctx.working_digits
        assert terms == 1 or self.log10_bound(k, s_held - 2, y) >= -ctx.working_digits

    def test_tail_no_longer_than_before_at_low_precision(self, ctx20):
        assert max(plan(k, x, ctx20)[1] for k in range(10) for x in (0, 20, 25)) <= 20

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_at_least_one_term_at_large_argument(self, ctx20, k):
        # the first entry is already below 10^-working_digits; one is still
        # planned so that the held-back entry feeds the estimate
        assert plan(k, Fraction(10**37, 2), ctx20) == (0, 1)
        assert eval_lambda(k, Fraction(10**37, 2), ctx=ctx20).params["tail_terms"] == 1

    @pytest.mark.parametrize("y", [1, 2, 5])
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_small_argument_stops_at_the_bound_minimum(self, k, y):
        # sized at y itself, not at the threshold a shift would reach
        terms = tail_length(k, y, PrecisionContext(target_digits=200))
        s_held = 2 + k % 2 + 2 * terms
        assert self.log10_bound(k, s_held, y) >= self.log10_bound(k, s_held - 2, y)
        assert terms == 1 or self.log10_bound(k, s_held - 2, y) < self.log10_bound(k, s_held - 4, y)


def closed_form_tail_length(k, y, ctx):
    """tail_length with every bound computed afresh, in the same float order."""
    log_y = math.log(y)
    floor = -ctx.working_digits * math.log(10)
    log_const = math.log(math.pi**2 / 3) + math.lgamma(k + 1) - k * math.log(2 * math.pi)
    prev = math.inf
    for terms, s in enumerate(range(2 + k % 2, 10**6, 2)):
        bound = log_const + math.lgamma(s - 1) - s * math.log(2 * math.pi) - (s - 1) * log_y
        if bound < floor or bound >= prev:
            return max(terms, 1)
        prev = bound


class TestTailBoundTable:
    @pytest.mark.parametrize("digits", [20, 1000])
    def test_same_counts_as_the_closed_form_loop(self, digits):
        clear_caches()
        ctx = PrecisionContext(digits)
        for k in range(13):
            for y in (1, 2, 20, 10**6, Fraction(81, 2), mpmath.mpf("27.25")):
                assert tail_length(k, y, ctx) == closed_form_tail_length(k, y, ctx)

    def test_concurrent_growth_matches_serial(self):
        # threads counting one order's tail at once get the serial counts
        clear_caches()
        ctx = PrecisionContext(1000)
        args = [(k, y) for k in (0, 1, 5) for y in (900, 300, 60, 20, 5)]
        serial = [closed_form_tail_length(k, y, ctx) for k, y in args]
        results = {}

        def work(i):
            results[i] = [tail_length(k, y, ctx) for k, y in args]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
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
        assert all(results[i] == serial for i in range(8))


class TestIntegerTail:
    """The fixed-point tail made from unreduced integer triples against one
    made from reduced Fractions: the same floors, the same g, and the same
    turn decisions, also at arguments within an ulp of a tie."""

    @staticmethod
    def arguments(r, d):
        """x near r^(1/d): at it and one ulp either side at the working
        precision and at 53 bits, 1e-8 either side, and three others."""
        root = mpmath.root(to_mpf(r), d)
        xs = [mpmath.mpf(2), mpmath.mpf(81) / 2, mpmath.mpf(10**6)]
        for prec in (mpmath.mp.prec, 53):
            man, exp = mpmath.mpf(root, prec=prec).man_exp
            xs += [mpmath.mpf((man + j, exp)) for j in (-1, 0, 1)]
        return xs + [root * (1 + mpmath.mpf(j) / 10**8) for j in (-1, 1)]

    @pytest.mark.parametrize("digits", [20, 100, 400])
    def test_coefficients_match_a_fraction_reference(self, digits):
        ties = 0
        for k in (0, 1, 6, 12):
            poly = build_lambda_terms(k, 60)
            ref = fractions(poly.tail_terms)
            with PrecisionContext(digits).workprec(5):
                _, wp, frac, tail = asymptotic._coefficients(poly, mpmath.mp.prec)
                assert wp == mpmath.mp.prec + 10
                assert frac - wp == max(abs(c.numerator) // c.denominator for c, _ in ref).bit_length()
                assert [fixed for fixed, _, _ in tail] == [(c.numerator << wp) // c.denominator
                                                           for c, _ in ref]
                for i in range(1, len(ref)):
                    (c_prev, q_prev), (c, q) = ref[i - 1], ref[i]
                    d, r = q - q_prev, abs(c / c_prev)
                    assert tail[i][1] == d
                    for x in self.arguments(r, d):
                        man, exp = x.man_exp
                        log_x = math.log(man) + exp * math.log(2)
                        ties += abs(tail[i][2][0] - d * log_x) <= 1e-9
                        exact = r >= Fraction(man) ** d * Fraction(2) ** (d * exp)
                        assert asymptotic._turns(d, tail[i][2], log_x, man, exp) == exact
        assert ties > 0  # the exact cross-products were reached


class TestEvalTermPoly:
    def test_divergence_guard_stops_at_smallest(self, ctx20):
        # at x = 2 the order-0 tail turns early; the guard must stop there
        poly = build_lambda_terms(0, 30)
        _, err, used = eval_term_poly(poly, 2, ctx20)
        assert used < 30
        assert err > 0

    def test_cached_coefficients_follow_the_precision(self, ctx20, ctx30):
        # one term list evaluated at two precisions gives, at each, the bits
        # of a fresh copy that has never been evaluated, with its tail reduced
        poly = build_lambda_terms(3, 21)
        for ctx in (ctx20, ctx30, ctx20):
            value, err, used = eval_term_poly(poly, Fraction(81, 2), ctx)
            fresh = TermPoly(poly.k, poly.main_terms, tail_of(fractions(poly.tail_terms)))
            ref_value, ref_err, ref_used = eval_term_poly(fresh, Fraction(81, 2), ctx)
            assert (value._mpf_, err._mpf_, used) == (ref_value._mpf_, ref_err._mpf_, ref_used)

    def test_clear_caches_drops_cached_coefficients(self, ctx20):
        poly = build_lambda_terms(2, 11)
        eval_term_poly(poly, 30, ctx20)
        assert poly._mpf_coeffs
        clear_caches()
        rebuilt = build_lambda_terms(2, 11)
        assert rebuilt is not poly and not rebuilt._mpf_coeffs


def _mpf_rule_count(poly, x, ctx):
    """Tail terms summed by the rule evaluated in mpf at working precision:
    stop at the held-back last entry, or at the first entry whose rounded
    magnitude is not below its predecessor's."""
    with ctx.workprec(5):
        xf = to_mpf(x)
        prev = None
        for i, (c, q) in enumerate(fractions(poly.tail_terms)):
            mag = abs(to_mpf(c) / xf**q)
            if i == len(poly.tail_terms) - 1 or (prev is not None and mag >= prev):
                return i
            prev = mag


class TestFixedPointTail:
    """The tail summed in fixed-point integers against the remainder from
    mpmath at D+40 digits, lambda_k(x) = zeta'(-k, x+1) - H_k B_(k+1)/(k+1):
    the estimate covers the actual error, and the tail stops where the
    magnitudes in mpf turn."""

    @staticmethod
    def check(k, x, terms, ctx):
        res = eval_lambda(k, x, terms, ctx)
        assert res.params["tail_terms"] == _mpf_rule_count(build_lambda_terms(k, terms + 1), x, ctx)
        with mpmath.mp.workdps(ctx.target_digits + 40):
            oracle = mpmath.zeta(-k, to_mpf(x) + 1, 1) - to_mpf(harmonic(k) * bernoulli(k + 1) / (k + 1))
            assert abs(res.value - oracle) <= res.err

    @pytest.mark.parametrize("times", [1, 10])
    @pytest.mark.parametrize("digits", [20, 100, 400])
    @pytest.mark.parametrize("k", [0, 1, 2, 6, 12])
    def test_within_err_of_the_oracle(self, k, digits, times):
        ctx = PrecisionContext(digits)
        x = times * shift_threshold(ctx)
        self.check(k, x, tail_length(k, x, ctx), ctx)

    def test_trial_argument_with_a_long_tail(self, ctx20):
        # `const --w-trial 150 --terms 25`: the magnitudes keep falling for
        # all 25 terms, far below the fixed-point resolution
        self.check(0, 150, 25, ctx20)
        assert eval_lambda(0, 150, 25, ctx20).params["tail_terms"] == 25

    @pytest.mark.parametrize("x", [Fraction(1, 2), 2, Fraction(81, 2), 10**6], ids=str)
    @pytest.mark.parametrize("k", [0, 3, 12])
    def test_rounding_part_covers_the_same_terms_in_mpf(self, ctx20, k, x):
        # err less the truncation part still covers the difference to the
        # summed terms at 60 digits, also below x = 1 where 1/x^q grows
        poly = build_lambda_terms(k, 30)
        value, err, used = eval_term_poly(poly, x, ctx20)
        assert used == _mpf_rule_count(poly, x, ctx20)
        with mpmath.mp.workdps(60):
            xf = to_mpf(x)
            terms = [to_mpf(c) * xf**p * (mpmath.log(xf) if has_log else 1)
                     for c, p, has_log in poly.main_terms]
            terms += [to_mpf(c) / xf**q for c, q in fractions(poly.tail_terms[:used + 1])]
            omitted = abs(terms.pop())
            assert abs(value - mpmath.fsum(terms)) <= err - 2 * omitted

    @pytest.mark.parametrize("x", [Fraction(1, 60), Fraction(1, 2), 10**6], ids=str)
    def test_horner_bound_at_high_precision(self, x):
        # k = 12 at D=400 against the same terms at 440 digits: below x = 1
        # the sum stops after a few entries whose powers exceed 1, at 10^6
        # it runs to the held-back last entry, far below 2^-wp
        ctx = PrecisionContext(400)
        poly = build_lambda_terms(12, 80)
        value, err, used = eval_term_poly(poly, x, ctx)
        assert used == _mpf_rule_count(poly, x, ctx)
        assert (used == 79) == (x > 1)
        with mpmath.mp.workdps(440):
            xf = to_mpf(x)
            terms = [to_mpf(c) * xf**p * (mpmath.log(xf) if has_log else 1)
                     for c, p, has_log in poly.main_terms]
            terms += [to_mpf(c) / xf**q for c, q in fractions(poly.tail_terms[:used + 1])]
            omitted = abs(terms.pop())
            assert abs(value - mpmath.fsum(terms)) <= err - 2 * omitted


    @pytest.mark.parametrize("x", [2, Fraction(81, 2), 10**6], ids=str)
    @pytest.mark.parametrize("digits", [20, 400])
    @pytest.mark.parametrize("k", [0, 12])
    def test_fixed_point_bound_alone(self, monkeypatch, k, digits, x):
        # a tail without main terms, and a rounding floor cut to the half
        # ulp of the tail's conversion: what is left of err must cover the
        # Horner sum's own truncations
        monkeypatch.setattr(PrecisionContext, "rounding_floor",
                            lambda self, scale: abs(scale) * mpmath.mpf((1, -mpmath.mp.prec)))
        full = build_lambda_terms(k, 40)
        poly = TermPoly(k, (), full.tail_terms)
        value, err, used = eval_term_poly(poly, x, PrecisionContext(digits))
        with mpmath.mp.workdps(digits + 40):
            xf = to_mpf(x)
            terms = [to_mpf(c) / xf**q for c, q in fractions(poly.tail_terms[:used + 1])]
            omitted = abs(terms.pop())
            assert abs(value - mpmath.fsum(terms)) <= err - 2 * omitted


# The _mpf_ of values taken at commit 67f798b, before the series tail was
# summed by Horner's rule: that change kept every bit.  A deliberate change
# of bits updates these values and says so in CHANGES.md.
NODE = (0xB504F333F9DE6484597D89B3754ABE9F1D6F60BA893BA84CED17AC85833399154AFC, -271)
GOLDEN = [
    (hurwitz_deriv, 0, "node", 20, (1, 1414650217242284414547423402030771651013, -130, 131)),
    (hurwitz_deriv, 1, Fraction(1, 3), 20, (0, 7973343444416863456069937788165505067, -126, 123)),
    (hurwitz_deriv, 3, Fraction(7, 2), 30,
     (0, 89030910680932111994221350552477702721455401559, -152, 156)),
    (log_gengamma, 0, "node", 20, (1, 163855900707318640085358536930480509381, -130, 127)),
    (log_gengamma, 2, Fraction(5, 4), 100,
     (1, 5290075286154262409238760581946472128516711533280129500419258795983721994377075440672361269958488525190810554436741, -385, 382)),  # noqa: E501
    (gkbj_constant, 0, 20, 20, (0, 305369706185294378530777554956125767, -118, 118)),
    (gkbj_constant, 3, 50, 100,
     (1, 25434431051373179371279628005068286092475861545479732180805666361041423168543228279252845058455450608460223390011, -379, 374)),  # noqa: E501
    # value and err bits taken at commit bf4b4a3, before the series at a node
    # ran on raw libmp values: the order >= 1 shift chain at a node and at a
    # rational, B_n(x) at a node, and a quadrature whose weight product is
    # inexact (width 3); bernoulli_poly runs under ctx.workprec(5) and has no err
    (hurwitz_deriv, 1, "node", 20, (1, 194384946895224082267130210958834386963, -129, 128),
     (0, 72835317147383658980685607629397132792877, -235, 136)),
    (log_gengamma, 1, "node", 20, (1, 81805150260907819539813269355576249659, -129, 126),
     (0, 28282222547820186625719580674736449717001, -233, 135)),
    (log_gengamma, 3, Fraction(17, 7), 20, (0, 1275172087755793307056380424726851525, -120, 120),
     (0, 23254657161538563363678733777518409953041, -225, 135)),
    # B_2 at the node: the correctly rounded value, one ulp above 67f798b's
    (bernoulli_poly, 2, "node", 20, (0, 4096744373216389030622572338350629508807, -132, 132), None),
    # its err taken when the predicted next difference became the first exit
    (validate.quadrature, "log", 3, 20, (0, 25771025660524956779611835311643606524219, -136, 135),
     (0, 56539106072908298546665520023773392506479, -245, 136)),
]


def _golden(fn, k, arg, ctx):
    """``(value, err)`` of one GOLDEN case, err None where fn has none."""
    if fn is gkbj_constant:
        res = fn(k, arg, None, ctx)
    elif fn is bernoulli_poly:
        with ctx.workprec(5):
            return fn(k, arg), None
    elif fn is validate.quadrature:  # k names the integrand, over (0, arg)
        return fn(getattr(mpmath, k), 0, arg, ctx)
    else:
        res = fn(k, arg, ctx)
    return res.value, res.err


@pytest.mark.parametrize("fn, k, arg, digits, bits, err_bits",
                         [g + (None,) * (6 - len(g)) for g in GOLDEN],
                         ids=[f"{g[0].__name__}-{g[1]}-{g[2]}-D{g[3]}" for g in GOLDEN])
def test_golden_bits(fn, k, arg, digits, bits, err_bits):
    ctx = PrecisionContext(digits)
    if arg == "node":  # a quadrature-like node: a 272-bit mantissa, kept exact
        with mpmath.mp.workprec(300):
            arg = mpmath.mpf(NODE)
    value, err = _golden(fn, k, arg, ctx)
    assert value._mpf_ == bits
    if err_bits is not None:
        assert err._mpf_ == err_bits


# The _mpf_ of the memoized routes, taken at commit 8d84f93, before their
# hand-written tables became lru_caches: that change kept every bit.  Each
# is checked on a cold memo and again on the hit.
GOLDEN_MEMO = [
    ("gkbj_auto-2", 20, lambda ctx: constants.gkbj_auto(2, ctx).value,
     (0, 323783532403769299930309335690291575, -123, 118)),
    ("varpi-3", 20, lambda ctx: constants.varpi(3, ctx).value,
     (1, 971350597211307899790928007070874725, -123, 120)),
    ("kinkelin", 100, lambda ctx: constants.kinkelin_logvarpi(ctx).value,
     (0, 26071699716399316333368286565749110058726852093791943129236601946586894076762428245394683613379366234477290323576355, -385, 384)),  # noqa: E501
    ("zeta_deriv_neg-1", 30, lambda ctx: zeta_deriv_neg(1, ctx).value,
     (1, 3777551130739993904177890859474496106083345797, -154, 152)),
    ("quadrature-log-value", 20, lambda ctx: validate.quadrature(mpmath.log, 0, 1, ctx)[0],
     (1, 1, 0, 1)),
    ("quadrature-log-err", 20, lambda ctx: validate.quadrature(mpmath.log, 0, 1, ctx)[1],
     (0, 56539106072908298546665520023773392506479, -245, 136)),  # the rounding floor
    ("exact_log_gengamma-3-90", 100, lambda ctx: exact_log_gengamma(3, 90, ctx).value,
     (0, 1372864993445082976099950947503582139060998391142164910236522750055552512151455230556584650656723702069421316364992495667, -373, 400)),  # noqa: E501
]


@pytest.mark.parametrize("digits, route, bits", [g[1:] for g in GOLDEN_MEMO],
                         ids=[f"{g[0]}-D{g[1]}" for g in GOLDEN_MEMO])
def test_golden_bits_of_memoized_routes(digits, route, bits):
    ctx = PrecisionContext(digits)
    clear_caches()
    assert route(ctx)._mpf_ == bits
    assert route(ctx)._mpf_ == bits
