import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import dps_to_prec, from_int, from_man_exp, mpf_gt, mpf_lt

import hzeta.constants
from hzeta import (
    PrecisionContext,
    clear_caches,
    exact_log_gengamma,
    gkbj_auto,
    hurwitz_deriv,
    hurwitz_deriv_integer,
    log_gengamma,
    shift_log_gengamma,
)
from hzeta import gengamma, hurwitz
from hzeta.asymptotic import plan, shift_threshold
from hzeta.gengamma import PrimeLogTable
from hzeta.mpcore import as_exact, to_mpf


class TestExactSum:
    def test_power_sums_by_brute_force(self):
        # from the Bernoulli-polynomial integers; k = 0 counts no 0^0 term
        for k in range(13):
            for n in range(41):
                assert gengamma._power_sum(k, n) == sum(i**k for i in range(1, n + 1))

    def test_single_term(self, ctx20):
        assert exact_log_gengamma(1, 1, ctx20).value == 0

    def test_log_factorial(self, ctx20):
        g = exact_log_gengamma(0, 3, ctx20)
        with ctx20.workprec():
            assert abs(g.value - mpmath.log(6)) < mpmath.mpf("1e-32")

    def test_weighted_sum(self, ctx20):
        g = exact_log_gengamma(1, 3, ctx20)
        with ctx20.workprec():
            assert abs(g.value - mpmath.log(108)) < mpmath.mpf("1e-31")

    def test_boundary_values(self, ctx20):
        for k in range(7):
            assert exact_log_gengamma(k, 0, ctx20).value == 0
            assert exact_log_gengamma(k, 1, ctx20).value == 0

    def test_rejects_negative(self, ctx20):
        with pytest.raises(ValueError):
            exact_log_gengamma(1, -1, ctx20)

    def test_err_zero_and_method(self, ctx20):
        g = exact_log_gengamma(2, 10, ctx20)
        with mpmath.mp.workdps(80):
            oracle = mpmath.fsum(mpmath.mpf(m) ** 2 * mpmath.log(m) for m in range(2, 11))
            assert 0 < g.err
            assert abs(g.value - oracle) <= g.err
        assert g.method == "exact-sum"
        assert g.arg == 11

    def test_shift_identity(self, ctx20):
        # moving the upper limit from w-1 to w adds w^k log w
        for k in range(7):
            for w in range(2, 31):
                hi = exact_log_gengamma(k, w, ctx20)
                lo = exact_log_gengamma(k, w - 1, ctx20)
                with ctx20.workprec():
                    step = mpmath.mpf(w**k) * mpmath.log(w)
                    assert abs(hi.value - lo.value - step) < ctx20.rounding_floor(
                        abs(hi.value) + abs(step) + 1
                    )


class TestExactSumOracleGrid:
    """The fixed-point exact sum against mpmath at D + 60 digits: the
    explicit err covers the actual error."""

    @pytest.mark.parametrize("digits", [20, 100, 400])
    @pytest.mark.parametrize("k", [0, 1, 2, 6, 12])
    def test_value_within_err(self, k, digits):
        ctx = PrecisionContext(digits)
        limits = (1, 2, 5, 20, 90, 360)
        with mpmath.mp.workdps(digits + 60):
            oracle, m = mpmath.mpf(0), 1
            for w in limits:
                while m < w:
                    m += 1
                    oracle += mpmath.mpf(m) ** k * mpmath.log(m)
                g = exact_log_gengamma(k, w, ctx)
                assert abs(g.value - oracle) <= g.err, (w, g.err)
                assert (g.err == 0) == (w == 1)

    @pytest.mark.parametrize("k, x", [(0, 5), (2, 7)])
    def test_integer_log_gengamma_reports_its_rounding(self, ctx20, k, x):
        # both were off by about 1e-41 and 5e-40 with err 0
        g = log_gengamma(k, x, ctx20)
        with mpmath.mp.workdps(80):
            oracle = mpmath.fsum(mpmath.mpf(m) ** k * mpmath.log(m) for m in range(2, x))
            assert 0 < abs(g.value - oracle) <= g.err <= mpmath.mpf(10) ** -35


def _count_logs(monkeypatch):
    calls = []
    for name in ("ln", "log"):
        original = getattr(mpmath, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args[0])
            return _original(*args, **kwargs)

        monkeypatch.setattr(mpmath, name, counted)
    return calls


class TestPrimeLogTable:
    def test_pi_of_w_logarithms_per_precision(self, monkeypatch):
        clear_caches()
        calls = _count_logs(monkeypatch)
        ctx = PrecisionContext(100)
        for k in range(6):
            exact_log_gengamma(k, 90, ctx)
        assert len(calls) == 24  # pi(90)
        exact_log_gengamma(3, 60, ctx)
        assert len(calls) == 24

    def test_clear_caches_empties_the_table(self, monkeypatch):
        exact_log_gengamma(1, 30, PrecisionContext(20))
        clear_caches()
        assert gengamma._prime_logs.cache_info().currsize == 0
        calls = _count_logs(monkeypatch)
        exact_log_gengamma(1, 30, PrecisionContext(20))
        assert len(calls) == 10  # pi(30)

    def test_primes_and_entries(self):
        table = PrimeLogTable()
        wp = 200
        for w in (8, 30, 31, 1000, 12000):  # grows in stages, past lo^2 of the first
            primes, entries = table.upto(w, wp)
            assert primes == [p for p in range(2, w + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
            assert len(entries) == len(primes)
        with mpmath.mp.workprec(wp + 64):
            for p, entry in zip(primes[:50] + primes[-50:], entries[:50] + entries[-50:]):
                # the floor of a logarithm good to an ulp at wp + 10 bits
                shortfall, slack = mpmath.log(p) * 2**wp - entry, mpmath.log(p) / 2**9
                assert -slack <= shortfall < 1 + slack

    def test_a_sweep_over_w_keeps_a_bounded_memo(self, ctx20):
        # 400 (k, w), of which the weight memo keeps the last 128
        clear_caches()
        log_gengamma(0, 1400, ctx20)  # the primes and their logarithms, once
        tracemalloc.start()
        try:
            for n in range(1000, 1400):
                log_gengamma(0, n, ctx20)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 400_000  # about 0.26 MB for 128 (k, w); 0.73 MB for all 400

    def test_concurrent_sums_match_serial(self):
        jobs = [(PrecisionContext(20), 3, 2000), (PrecisionContext(100), 1, 900),
                (PrecisionContext(20), 0, 2400), (PrecisionContext(100), 5, 1100)]
        serial = [exact_log_gengamma(k, w, ctx) for ctx, k, w in jobs]
        clear_caches()
        start = threading.Barrier(len(jobs))
        results = [None] * len(jobs)

        def run(i):
            ctx, k, w = jobs[i]
            start.wait(timeout=30)
            results[i] = exact_log_gengamma(k, w, ctx)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
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
        for a, b in zip(results, serial, strict=True):
            assert (a.value._mpf_, a.err._mpf_) == (b.value._mpf_, b.err._mpf_)


class TestShift:
    def test_empty_chain(self, ctx20):
        assert shift_log_gengamma(3, 5, 0, mpmath.mpf(7), ctx20) == 7

    def test_down_to_one(self, ctx20):
        with ctx20.workprec():
            out = shift_log_gengamma(0, 1, 2, mpmath.log(2), ctx20)
            assert abs(out) < mpmath.mpf("1e-33")

    def test_removes_top_term(self, ctx20):
        top = exact_log_gengamma(2, 3, ctx20)
        out = shift_log_gengamma(2, 3, 1, top.value, ctx20)
        lo = exact_log_gengamma(2, 2, ctx20)
        with ctx20.workprec():
            assert abs(out - lo.value) < mpmath.mpf("1e-33")

    @pytest.mark.parametrize(
        "digits, make_x, n",
        [
            (20, lambda: mpmath.mpf(1) / 3, 20),  # full mantissa, negative exponent
            (20, lambda: mpmath.mpf(2) ** -60, 20),
            (20, lambda: mpmath.mpf(12), 9),  # 3 * 2^2: positive exponent
            (20, lambda: mpmath.mpf(2) ** 70 + 2**20, 5),
            (20, lambda: Fraction(3, 7), 20),
            (400, lambda: Fraction(3, 7), 360),
            (400, lambda: mpmath.mpf(1) / 3, 360),
        ],
        ids=["third", "2^-60", "twelve", "2^70", "3/7", "3/7-D400", "third-D400"],
    )
    @pytest.mark.parametrize("k", [0, 1, 3, 12])
    def test_chain_is_the_sum_of_its_terms(self, k, digits, make_x, n):
        # order 0: one log of the rising product; order >= 1: n raw terms,
        # exact powers at rational x; against sum (x+j)^k log(x+j) at D+40 digits
        ctx = PrecisionContext(digits)
        with ctx.workprec(5):
            x = make_x()
        out = shift_log_gengamma(k, x, n, 0, ctx)
        with mpmath.mp.workdps(digits + 40):
            terms = [(to_mpf(x) + j) ** k * mpmath.log(to_mpf(x) + j) for j in range(n)]
            floor = ctx.rounding_floor(mpmath.fsum(abs(v) for v in terms))
            assert abs(out + mpmath.fsum(terms)) <= floor

    def test_rejects_nonpositive(self, ctx20):
        with pytest.raises(ValueError):
            shift_log_gengamma(1, 0, 1, mpmath.mpf(0), ctx20)
        with pytest.raises(ValueError):
            shift_log_gengamma(1, -2, 1, mpmath.mpf(0), ctx20)


class TestAmbientPrecision:
    """The routes take their precision from the context: the ambient
    mpmath precision changes no bit, and is left as it was."""

    @staticmethod
    def bits(fn, k, x, digits):
        res = fn(k, x, PrecisionContext(digits))
        return res.value._mpf_, res.err._mpf_, res.params

    @pytest.mark.parametrize("ambient", [53, 2000])
    @pytest.mark.parametrize("digits", [20, 100])
    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("fn", [hurwitz_deriv, log_gengamma], ids=lambda f: f.__name__)
    def test_same_bits_at_any_ambient_precision(self, fn, k, digits, ambient):
        node = mpmath.mp.make_mpf(from_man_exp(0xB504F333F9DE6484597D89B3754ABE9F1D6F60BA8, -163))
        for x in (node, Fraction(29, 11)):
            clear_caches()
            expected = self.bits(fn, k, x, digits)
            clear_caches()
            prec = mpmath.mp.prec
            with mpmath.mp.workprec(ambient):
                got = self.bits(fn, k, x, digits)
                assert mpmath.mp.prec == ambient
            assert mpmath.mp.prec == prec
            assert got == expected


class TestBeyondFloatRange:
    def test_log_gamma_of_a_huge_rational(self, ctx20):
        x = Fraction(10**400, 3)
        res = log_gengamma(0, x, ctx20)
        assert res.params == {"tail_terms": 1}
        with mpmath.mp.workdps(60):
            assert abs(res.value - mpmath.loggamma(to_mpf(x))) <= res.err


class TestIntegersBeyondTheExactSum:
    """The exact sum stops at constants._MAX_TRIAL_W = 10^6; larger integers
    take the series with no shift, and the exact routes raise before sieving."""

    def test_exact_sum_refuses_past_the_bound(self, ctx20):
        clear_caches()
        with pytest.raises(ValueError, match="exact sums stop"):
            exact_log_gengamma(0, 10**6 + 1, ctx20)
        with pytest.raises(ValueError, match="exact sums stop"):
            exact_log_gengamma(0, 10**8 - 1, ctx20)
        with pytest.raises(ValueError, match="exact sums stop"):
            hurwitz_deriv_integer(0, 10**6 + 2, ctx20)
        assert gengamma._prime_logs()._sieved <= 10**6  # refused before any sieving

    def test_the_bound_splits_the_routes(self, ctx20, monkeypatch):
        monkeypatch.setattr(hzeta.constants, "_MAX_TRIAL_W", 100)
        assert log_gengamma(1, 100, ctx20).method == "exact-sum"
        assert log_gengamma(1, 101, ctx20).method == "asymptotic-shift"
        with pytest.raises(ValueError):
            exact_log_gengamma(1, 101, ctx20)

    @pytest.mark.parametrize("x", [10**6 + 1, 10**8, 10**400, "1e400"], ids=str)
    @pytest.mark.parametrize("k", [0, 2])
    def test_series_route_within_err(self, ctx20, k, x):
        x = mpmath.mpf(x) if isinstance(x, str) else x
        res = log_gengamma(k, x, ctx20)
        assert res.method == "asymptotic-shift"
        with mpmath.mp.workdps(60):
            xf = mpmath.mpf(x)
            oracle = (mpmath.loggamma(xf) if k == 0
                      else mpmath.zeta(-k, xf, 1) - mpmath.zeta(-k, 1, 1))
            assert abs(res.value - oracle) <= res.err


class TestLogGengamma:
    def test_at_one(self, ctx20):
        g = log_gengamma(0, 1, ctx20)
        assert g.value == 0
        assert g.method == "exact-sum"

    def test_product_rule_half_integers(self, ctx20):
        hi = log_gengamma(0, Fraction(11, 2), ctx20)
        lo = log_gengamma(0, Fraction(9, 2), ctx20)
        with ctx20.workprec():
            step = mpmath.log(mpmath.mpf(9) / 2)
            assert abs(hi.value - lo.value - step) <= hi.err + lo.err

    def test_asymptotic_matches_exact_sum(self, ctx20):
        limit = gkbj_auto(1, ctx20)
        value, _, _ = gengamma.shifted_series(1, 101, limit.value, limit.err, ctx20)
        e = exact_log_gengamma(1, 100, ctx20)
        with ctx20.workprec():
            assert abs(value - e.value) < mpmath.mpf("1e-29") * abs(e.value)

    def test_method_agreement_grid(self, ctx20):
        for k in range(5):
            limit = gkbj_auto(k, ctx20)
            for x in (20, 50, 200):
                value, _, _ = gengamma.shifted_series(k, x, limit.value, limit.err, ctx20)
                e = exact_log_gengamma(k, x - 1, ctx20)
                with ctx20.workprec():
                    assert abs(value - e.value) <= mpmath.mpf("1e-20")

    def test_ordinary_loggamma_oracle(self, ctx20):
        # order 0 is the ordinary log-gamma; mpmath is an independent route
        g = log_gengamma(0, Fraction(11, 2), ctx20)
        with mpmath.mp.workdps(40):
            oracle = mpmath.loggamma(mpmath.mpf(11) / 2)
            assert abs(g.value - oracle) < mpmath.mpf("1e-25")

    def test_hyperfactorial_oracle(self, ctx20):
        # order 1 against an independent multiprecision zeta-derivative route
        g = log_gengamma(1, Fraction(7, 4), ctx20)
        with mpmath.mp.workdps(40):
            oracle = mpmath.zeta(-1, mpmath.mpf(7) / 4, 1) - mpmath.zeta(-1, derivative=1)
            assert abs(g.value - oracle) < mpmath.mpf("1e-25")

    def test_mpf_argument_is_not_rounded_to_the_ambient_precision(self):
        # an mpf made at 60 digits keeps its bits when the call is made at
        # mpmath's default 15
        with mpmath.mp.workdps(60):
            x = mpmath.mpf(1) / 3
        ctx = PrecisionContext(40)
        with mpmath.mp.workdps(15):
            g = log_gengamma(0, x, ctx)
        assert g.arg == as_exact(x)
        with mpmath.mp.workdps(80):
            assert abs(g.value - mpmath.loggamma(x)) <= g.err <= mpmath.mpf(10) ** -40

    def test_rejects_nonpositive(self, ctx20):
        with pytest.raises(ValueError):
            log_gengamma(0, 0, ctx20)
        with pytest.raises(ValueError):
            log_gengamma(0, Fraction(-3, 2), ctx20)

    def test_err_and_method_tags(self, ctx20):
        g = log_gengamma(2, Fraction(7, 2), ctx20)
        assert g.method == "asymptotic-shift"
        assert g.err > 0


class TestArgumentByValue:
    """A real argument counts by its value: a full-mantissa mpf and the equal
    Fraction give the same value, err and params, bit for bit."""

    @staticmethod
    def nodes(ctx):
        rng = random.Random(60)
        prec = dps_to_prec(ctx.working_digits + 5)
        return [mpmath.mp.make_mpf(from_man_exp(rng.getrandbits(prec) * 6, -prec, prec))
                for _ in range(60)]  # in (0, 6)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("route", [hurwitz_deriv, log_gengamma], ids=lambda f: f.__name__)
    def test_mpf_and_fraction_give_the_same_bits(self, route, k, ctx20):
        for x in self.nodes(ctx20):
            man, exp = x.man_exp
            a, b = route(k, x, ctx20), route(k, Fraction(man) * Fraction(2) ** exp, ctx20)
            assert (a.value._mpf_, a.err._mpf_, a.params) == (b.value._mpf_, b.err._mpf_, b.params)


def _route_nodes(b, ctx):
    """The raw nodes t + 1 that the route integral of log Gamma(t + 1) over (0, b)
    passes to its level route at ctx, in order."""
    from hzeta import validate

    nodes = []

    def route(k, xs, ctx):
        nodes.extend(xs)
        return gengamma._log_gengamma_level(k, xs, ctx)

    validate._route_integral(route, 0, b, ctx)
    return nodes


class TestLevelRoute:
    """The level routes of the identity integrals give the scalar routes' bits at
    the nodes the route integrals pass them, none of them an integer; at an
    integer, log Gamma_k's level route is within its err of the exact sum."""

    @staticmethod
    def plan_nodes(ctx):
        """x = 2 - c 2^(e - 4), c = 5 and 11, with 2^e the float ulp at t - 1: the
        float of t - (x - 1) = t - 1 + (c/16) 2^e rounds down to t - 1 at c = 5
        and up to t at c = 11, but n is the exact ceiling, t at both."""
        e = (shift_threshold(ctx) - 1).bit_length() - 1 - 52
        return [from_man_exp((1 << (5 - e)) - c, e - 4) for c in (5, 11)]

    @classmethod
    def nodes(cls, ctx):
        rng = random.Random(ctx.target_digits)
        prec = dps_to_prec(ctx.working_digits + 5)
        # full mantissas in (0, 6)
        nodes = [from_man_exp(rng.getrandbits(prec) * 6, -prec, prec) for _ in range(8)]
        two = from_int(2)  # t = 1, the end of (0, 1) and a cut of (0, 2)
        for b in (1, 2):
            xs = _route_nodes(b, ctx)  # each piece's nodes in order
            below, above = [x for x in xs if mpf_lt(x, two)], [x for x in xs if mpf_gt(x, two)]
            nodes += xs[::len(xs) // 6] + below[-1:] + above[:1]  # the nodes next to t = 1
        return nodes + cls.plan_nodes(ctx)

    @pytest.mark.parametrize("digits", [20, 30, 100])
    def test_bits_of_log_gengamma_and_hurwitz_deriv(self, digits):
        ctx = PrecisionContext(digits)
        nodes = self.nodes(ctx)
        make = mpmath.mp.make_mpf
        for k in range(5):
            level = gengamma._log_gengamma_level(k, nodes, ctx)
            scalar = [log_gengamma(k, make(x), ctx) for x in nodes]
            assert level == [(g.value._mpf_, g.err._mpf_) for g in scalar]
            head = hurwitz._head(k, dps_to_prec(ctx.working_digits + 5))
            level = gengamma._series_level(k, nodes, head, 0, ctx)
            scalar = [hurwitz_deriv(k, make(x), ctx) for x in nodes]
            assert level == [(d.value._mpf_, d.err._mpf_) for d in scalar]

    def test_nodes_miss_the_integers_and_reach_both_roundings_of_n(self, ctx20):
        # an even-point rule has no node at its midpoint: no route node is an integer
        assert all(x[2] < 0 for b in (1, 2, Fraction(11, 2)) for x in _route_nodes(b, ctx20))
        t = shift_threshold(ctx20)
        xs = [as_exact(mpmath.mp.make_mpf(x)) for x in self.plan_nodes(ctx20)]
        ns = [plan(0, x - 1, ctx20)[0] for x in xs]
        assert ns == [t, t]

    @pytest.mark.parametrize("digits", [20, 100])
    def test_integer_nodes_meet_the_exact_sum_within_both_errs(self, digits):
        ctx = PrecisionContext(digits)
        ms = (1, 2, 3, 7, 50, 1000)
        for k in range(5):
            level = gengamma._log_gengamma_level(k, [from_int(m) for m in ms], ctx)
            for m, (value, err) in zip(ms, level, strict=True):
                exact = exact_log_gengamma(k, m - 1, ctx)
                value, err = (as_exact(mpmath.mp.make_mpf(v)) for v in (value, err))
                assert abs(value - as_exact(exact.value)) <= err + as_exact(exact.err), (k, m)
