import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import mpf_log, round_nearest

import hzeta.gengamma as gengamma
import hzeta.mpcore as mpcore
import hzeta.validate as validate
from hzeta import (
    NonConvergent,
    PrecisionContext,
    bernoulli_poly,
    clear_caches,
    hurwitz_deriv,
    log_gengamma,
    quadrature,
    selftest,
    zeta_positive,
)
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


class TestNodeTable:
    """A tanh-sinh level's nodes are computed once per precision, its abscissae
    once per interval, and its node plans once per order and context; a
    quadrature value does not depend on what the memos hold."""

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
        memos = validate._level_nodes, gengamma._level_plan
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
        # 26 route integrals of 4 or 5 levels each: 108 node plans, of which the
        # memo keeps the last 64; the nodes are the 5 levels'
        ctx = PrecisionContext(5)
        clear_caches()
        validate._route_integral(validate._log_gengamma_level, 0, 1, ctx, shift=1)
        tracemalloc.start()
        try:
            for i in range(26):
                validate._route_integral(validate._log_gengamma_level, 0, 1 + Fraction(i, 26),
                                         ctx, shift=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert gengamma._level_plan.cache_info().currsize == 64
        assert validate._level_nodes.cache_info().currsize == 5
        assert held < 550_000  # about 0.27 MB; 0.37 MB with the plan memo unbounded


class TestLevelIntegrals:
    """One integrand call per tanh-sinh level gives the bits of one call per node."""

    def test_integrator_matches_the_public_quadrature(self, ctx20):
        # a level of raw logarithms at the integrator's precision, one part,
        # against quadrature's scalar mpmath.log
        def level(xs):
            return [[mpf_log(x, ctx20.bits(5), round_nearest) for x in xs]]

        for b in (1, 2, Fraction(11, 2)):
            (value, *rest), err = validate._tanh_sinh(level, 0, b, ctx20)
            want = quadrature(mpmath.log, 0, b, ctx20)
            assert not rest and [value, err] == [v._mpf_ for v in want]

    # (route, b, shift, power, scalar integrand, scalar err at t)
    @staticmethod
    def cases(ctx):
        def gamma(t, shift):
            return log_gengamma(0, t + shift, ctx)

        def alt(k, t):
            d = hurwitz_deriv(k, t, ctx)
            return d.value + bernoulli_poly(k + 1, t) / (k + 1) ** 2, d.err

        return [
            (validate._log_gengamma_level, 0, 2, 1, 0,
             lambda t: (gamma(t, 1).value, gamma(t, 1).err)),
            (validate._log_gengamma_level, 0, Fraction(5, 2), 1, 1,
             lambda t: ((mpmath.mpf(5) / 2 - t) ** 1 * gamma(t, 1).value, gamma(t, 1).err)),
            (validate._log_gengamma_level, 0, 1, 1, 3,
             lambda t: ((1 - t) ** 3 * gamma(t, 1).value, gamma(t, 1).err)),
            (validate._log_gengamma_level, 0, 1, 0, 1,
             lambda t: ((1 - t) * gamma(t, 0).value, gamma(t, 0).err)),
            (validate._alt_integrand_level, 1, 3, 0, 0, lambda t: alt(1, t)),
        ]

    def test_route_integrals_match_scalar_integrands(self, ctx20):
        for route, k, b, shift, power, scalar in self.cases(ctx20):
            errs = []

            def f(t):
                value, err = scalar(t)
                errs.append(err)
                return value

            value, err, node_err = validate._route_integral(route, k, b, ctx20, shift, power)
            want = quadrature(f, 0, b, ctx20)
            assert (value._mpf_, err._mpf_) == (want[0]._mpf_, want[1]._mpf_), (route, b)
            assert node_err._mpf_ == max(errs)._mpf_


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
