"""Anatomy of the divergent remainder series.

The expansions are held symbolically (exact rational coefficients), so
you can print them, integrate them termwise, and watch the divergent
tail turn.  The error estimate is twice the first omitted term, and the
evaluator stops at the smallest term on its own (optimal truncation).

Run:  python demos/03_asymptotic_series.py
"""

from fractions import Fraction

import mpmath

from hzeta import (
    PrecisionContext,
    build_lambda_terms,
    eval_term_poly,
    exact_log_gengamma,
    eval_lambda,
    gkbj_auto,
    integrate_lambda_terms,
)

ctx = PrecisionContext(target_digits=20)


def render(poly):
    pieces = []
    for c, p, has_log in poly.main_terms:
        body = f"x^{p}" if p else ""
        if has_log:
            body = (body + "*log x") if body else "log x"
        pieces.append(f"({c})" + (f"*{body}" if body else ""))
    for num, den, q in poly.tail_terms:
        pieces.append(f"({Fraction(num, den)})/x^{q}")
    return "  +  ".join(pieces)


print("The expansions at argument x+1, orders 2 down to 0")
print("-" * 70)
for k in (2, 1, 0):
    print(f"order {k:+d}:  {render(build_lambda_terms(k, 3))}")

print()
print("Termwise integration raises the order (1/x promotes to log x):")
print("-" * 70)
base = build_lambda_terms(2, 3)
print("integral of order 2:", render(integrate_lambda_terms(base)))

print()
print("Optimal truncation at work: order 0 series at x = 8")
print("-" * 70)
for tail in (3, 6, 10, 20, 40):
    poly = build_lambda_terms(0, tail + 1)
    value, err, used = eval_term_poly(poly, 8, ctx)
    print(f"requested {tail:3d} tail terms, used {used:3d}: "
          f"value = {mpmath.nstr(value, 20)}, err estimate = {mpmath.nstr(err, 2)}")
print("(the evaluator refuses to sum past the smallest term, so the")
print(" reported error saturates instead of exploding)")

print()
print("Error estimates are honest: remainder + constant vs the exact sum")
print("-" * 70)
ref = gkbj_auto(0, ctx)
for x, tail in ((50, 5), (50, 20), (100, 20)):
    lam = eval_lambda(0, x, tail, ctx)
    exact = exact_log_gengamma(0, x, ctx)
    with ctx.workprec():
        actual = abs(ref.value + lam.value - exact.value)
    print(f"x = {x:3d}, tail = {tail:2d}: actual deviation {mpmath.nstr(actual, 2)}"
          f"  <=  reported {mpmath.nstr(lam.err + ref.err, 2)}")
