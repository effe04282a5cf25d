"""Tour of the limiting constants.

The order-k constant L_k is the piece of log Gamma_k(w+1) that survives
as w grows: subtract the known asymptotic remainder from the exact sum
and the difference stabilizes.  L_0 = log sqrt(2 pi) (Stirling), L_1 is
the logarithm of the Glaisher-Kinkelin constant, and the higher orders
continue the family.  Jeffery's summation constants and Kinkelin's
constant are rational offsets of them.

Run:  python demos/01_constants.py
"""

import mpmath

from hzeta import (
    PrecisionContext,
    gkbj_auto,
    gkbj_constant,
    kinkelin_logvarpi,
    varpi,
)

ctx = PrecisionContext(target_digits=30)

print("Limiting constants L_k at 30 digits")
print("-" * 60)
for k in range(7):
    rec = gkbj_auto(k, ctx)
    print(f"L_{k} = {mpmath.nstr(rec.value, 30, strip_zeros=False)}"
          f"   (err <= {mpmath.nstr(rec.err, 2)}, w = {rec.params['w_used']})")

print()
print("Sanity anchors")
print("-" * 60)
with ctx.workprec():
    print("log sqrt(2 pi)          =", mpmath.nstr(mpmath.log(2 * mpmath.pi) / 2, 30))
    print("log A (Glaisher, known) =  0.248754477033784262547252994617...")

print()
print("The trial method is parameter-independent (that is the point):")
print("-" * 60)
for w, tail in ((50, 10), (100, 20), (400, 30)):
    rec = gkbj_constant(1, w, tail, ctx)
    print(f"w = {w:4d}, tail = {tail:3d}:  L_1 = "
          f"{mpmath.nstr(rec.value, 30, strip_zeros=False)}  (err <= {mpmath.nstr(rec.err, 2)})")

print()
print("Jeffery's summation constants (the x = 0 slope of log Gamma_k(x+1))")
print("-" * 60)
for k in range(1, 5):
    rec = varpi(k, ctx)
    print(f"varpi({k}) = {mpmath.nstr(rec.value, 20, strip_zeros=False)}")

rec = kinkelin_logvarpi(ctx)
print()
print("Kinkelin's constant: log varpi = 2 L_1 - 1/6 =",
      mpmath.nstr(rec.value, 20, strip_zeros=False))
print("(published 11-digit value: 0.33084228740)")
