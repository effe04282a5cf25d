"""The value routes and the quadrature's route integrals take their
precision from the context: they set no mpmath precision, and their bits
depend neither on the ambient precision nor on what other threads are doing."""

import sys
import threading
from fractions import Fraction

import mpmath
import pytest

import hzeta.validate as validate
from hzeta import (
    PrecisionContext,
    clear_caches,
    eval_lambda,
    exact_log_gengamma,
    gkbj_auto,
    gkbj_constant,
    hurwitz_deriv,
    hurwitz_deriv_integer,
    kinkelin_logvarpi,
    log_gengamma,
    shift_log_gengamma,
    varpi,
    zeta_deriv_neg,
)

THIRD = mpmath.mpf(1) / 3  # 53 bits, built before any route runs

ROUTES = [
    (hurwitz_deriv, (1, Fraction(3, 7))),
    (hurwitz_deriv, (2, THIRD)),
    (hurwitz_deriv_integer, (1, 4)),
    (log_gengamma, (1, Fraction(5, 7))),
    (log_gengamma, (0, THIRD)),
    (log_gengamma, (2, 9)),
    (exact_log_gengamma, (3, 50)),
    (gkbj_constant, (2, 60)),
    (gkbj_auto, (3,)),
    (zeta_deriv_neg, (1,)),
    (varpi, (1,)),
    (varpi, (3,)),
    (kinkelin_logvarpi, ()),
    (eval_lambda, (1, 30)),
    (shift_log_gengamma, (2, THIRD, 21, THIRD)),
]


def _bits(result):
    if isinstance(result, mpmath.mpf):
        return result._mpf_
    return result.value._mpf_, result.err._mpf_, result.params


@pytest.mark.parametrize("fn, args", ROUTES, ids=lambda v: getattr(v, "__name__", None))
def test_routes_set_no_precision_and_ignore_the_ambient_one(fn, args, precision_writes):
    ctx = PrecisionContext(30)
    seen = []
    for ambient in (20, 53, 3000):
        with mpmath.workprec(ambient):
            clear_caches()
            before = len(precision_writes)
            seen.append(_bits(fn(*args, ctx=ctx)))
            assert precision_writes[before:] == []
    assert seen[0] == seen[1] == seen[2]


def _in_threads(call, contexts, repeats):
    """call(ctx) repeatedly in one thread per context, all started together
    under a 1 us switch interval: each thread's results, in order."""
    results = [[] for _ in contexts]
    start = threading.Event()

    def run(i):
        start.wait(timeout=30)
        for _ in range(repeats):
            results[i].append(call(contexts[i]))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(contexts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        start.set()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


@pytest.mark.parametrize("fn, args", [(hurwitz_deriv, (1, Fraction(3, 7))),
                                      (log_gengamma, (1, Fraction(5, 7))),
                                      (gkbj_constant, (2, 60))],
                         ids=lambda v: getattr(v, "__name__", None))
def test_threads_get_the_serial_bits(fn, args):
    contexts = [PrecisionContext(20), PrecisionContext(150), PrecisionContext(20)]
    serial = [_bits(fn(*args, ctx=ctx)) for ctx in contexts]
    prec = mpmath.mp.prec
    results = _in_threads(lambda ctx: _bits(fn(*args, ctx=ctx)), contexts, 30)
    assert mpmath.mp.prec == prec
    assert results == [[bits] * 30 for bits in serial]


@pytest.mark.parametrize("route, k, b", [(validate._log_gengamma_level, 0, 1),
                                         (validate._log_gengamma_level, 0, 2),
                                         (validate._alt_integrand_level, 1, 2)],
                         ids=["log-gamma-route", "log-gamma-route-64-points", "alt-route"])
def test_route_integrals_in_threads_get_the_serial_bits(route, k, b, precision_writes):
    # the quadrature's nodes, abscissae and node plans are shared across the threads;
    # over (0, 2), two pieces, the Gauss-Legendre rounds run to 64 points at D=30
    contexts = [PrecisionContext(20), PrecisionContext(30), PrecisionContext(20)]

    def integral(ctx):
        return [v._mpf_ for v in validate._route_integral(route, k, b, ctx)]

    serial = [integral(ctx) for ctx in contexts]
    clear_caches()
    prec = mpmath.mp.prec
    results = _in_threads(integral, contexts, 4)
    assert mpmath.mp.prec == prec
    assert precision_writes == []
    assert results == [[bits] * 4 for bits in serial]


def _report(rep):
    return rep.name, rep.k, rep.x_or_w, rep.residual._mpf_, rep.tolerance._mpf_, rep.passed


@pytest.mark.parametrize("level", ["quick", "full"])
def test_selftest_in_threads_gets_the_serial_reports(level, precision_writes):
    contexts = [PrecisionContext(20), PrecisionContext(60), PrecisionContext(20)]

    def reports(ctx):
        return [_report(rep) for rep in validate.selftest(level, ctx)]

    serial = [reports(ctx) for ctx in contexts]
    clear_caches()
    prec = mpmath.mp.prec
    results = _in_threads(reports, contexts, 1)
    assert mpmath.mp.prec == prec
    assert precision_writes == []
    assert results == [[r] for r in serial]


def test_selftest_reports_ignore_the_ambient_precision(precision_writes):
    seen = []
    for ambient in (53, 300):
        with mpmath.workprec(ambient):
            clear_caches()
            before = len(precision_writes)
            seen.append([_report(rep) for rep in validate.selftest("full", PrecisionContext(20))])
            assert precision_writes[before:] == []
    assert seen[0] == seen[1]
