"""Every public entry point returns the one result type, with the
quantity, argument, route and parameter keys it documents."""

from fractions import Fraction

import pytest

from hzeta import (
    Result,
    eval_lambda,
    exact_log_gengamma,
    gkbj_auto,
    gkbj_constant,
    hurwitz_deriv,
    hurwitz_deriv_integer,
    kinkelin_logvarpi,
    limit_constant,
    log_gengamma,
    varpi,
    zeta_deriv_neg,
)

CONSTANT = {"w_used", "tail_terms"}
SERIES = {"tail_terms"}

CASES = [
    ("gkbj_auto", lambda ctx: gkbj_auto(1, ctx), "L", None, "trial-method", CONSTANT),
    ("gkbj_constant", lambda ctx: gkbj_constant(1, 100, 20, ctx), "L", None, "trial-method",
     CONSTANT),
    ("limit_constant", lambda ctx: limit_constant(2, ctx), "L", None, "trial-method", CONSTANT),
    ("varpi", lambda ctx: varpi(2, ctx), "varpi", None, "trial-method", CONSTANT),
    ("kinkelin_logvarpi", kinkelin_logvarpi, "kinkelin", None, "trial-method", CONSTANT),
    ("zeta_deriv_neg", lambda ctx: zeta_deriv_neg(1, ctx), "zeta_deriv", None, "exact-sum",
     CONSTANT),
    ("hurwitz_deriv", lambda ctx: hurwitz_deriv(1, Fraction(1, 3), ctx), "hurwitz_deriv",
     Fraction(1, 3), "asymptotic-shift", SERIES),
    ("hurwitz_deriv_integer", lambda ctx: hurwitz_deriv_integer(1, 4, ctx), "hurwitz_deriv", 4,
     "exact-sum", set()),
    ("log_gengamma-integer", lambda ctx: log_gengamma(1, 5, ctx), "gengamma", 5, "exact-sum",
     set()),
    ("log_gengamma-rational", lambda ctx: log_gengamma(1, Fraction(7, 4), ctx), "gengamma",
     Fraction(7, 4), "asymptotic-shift", SERIES),
    ("exact_log_gengamma", lambda ctx: exact_log_gengamma(2, 10, ctx), "gengamma", 11,
     "exact-sum", set()),
    ("eval_lambda", lambda ctx: eval_lambda(0, 60, 20, ctx), "lambda", 60, "truncated-series",
     SERIES),
]


@pytest.mark.parametrize(
    "call, quantity, arg, method, param_keys",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_entry_point_returns_result(call, quantity, arg, method, param_keys, ctx20):
    res = call(ctx20)
    assert isinstance(res, Result)
    assert res.quantity == quantity
    assert res.arg == arg
    assert res.method == method
    assert set(res.params) == param_keys
    assert res.err >= 0
