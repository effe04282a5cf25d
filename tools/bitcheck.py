"""Bit-for-bit comparison of hzeta's values, errors and params between two checkouts.

Dump the cases of one checkout (from its root):

    PYTHONPATH=src python tools/bitcheck.py OUT.json

then compare two dumps:

    python tools/bitcheck.py A.json B.json

The 5,538 numeric cases: ``hurwitz_deriv`` and ``log_gengamma`` at 96
mpf nodes (full mantissas, in (0, 4) and (20, 300)) and 24 rationals, for
k in {0, 1, 3} and D in {20, 30, 100}, and the quadrature's level routes
at the same 96 nodes (``gengamma._log_gengamma_level``, and
``gengamma._series_level`` from ``hurwitz._head``), which a checkout
without them records as its scalar ``log_gengamma`` and
``hurwitz_deriv``, so that the comparison checks the level routes against
the scalar routes of the other side; ``bernoulli_poly(n, node)`` for n
in {1, 2, 3} at the same nodes, at the precision of ``ctx.workprec(5)``;
``gkbj_constant`` at eight trial arguments, for k in {0, 1, 3, 6, 12} and
D in {20, 30, 100, 400}; the value and err of ``validate.quadrature`` over
(0, b) for b in {1, 2, 3, 11/2} and D in {20, 30}, of log t, exp(-t) sqrt t
and log_gengamma(0, t+1); every field but ``elapsed`` of the report of each
of the 63 ``selftest full`` checks at D=20, 30 and 40 (residual, tolerance,
passed, name, k and x_or_w, so that a reordered or relabelled suite shows),
each run twice from cleared caches, so that the second run takes the kept
quadrature nodes and node plans; and ``exact_log_gengamma(k, w)``
for k in {0, 1, 3, 6, 12}, w in {1, 2, 7, 50, 100, 200, 1000} and D in
{20, 100}, called twice from cleared caches, so that a sum made from kept
weights is compared as well as a fresh one.  Then five arguments beyond
float range at D=20, ``hurwitz_deriv`` for k in {0, 1} at 10^400/3 and
mpf('1e400'), and ``log_gengamma(0, 10^400/3)``, each recorded as its bits
or as the name of the exception it raises.  The checks that never reach a
quadrature node: ``zeta_positive(s)`` for s in {2, 3, 4, 5, 6, 8, 12} and D in
{20, 30, 100}; the reports of ``log_coefficient_check(k)`` for k <= 8 and
of ``bendersky_recursion_check(k, x)`` for k <= 8, x in {7/2, 50, 100} and
D in {20, 30}; and, as exact strings, ``bernoulli_poly(n, q)`` for n <= 12
and ``phi(n, q)`` for 1 <= n <= 12 at 20 seeded rationals q.  Then the
integers beyond the exact sum's bound of 10^6 (``log_gengamma`` at 10^400,
mpf('1e400') and, for k = 1, 10^400; ``exact_log_gengamma(0, 10^6 + 1)``;
``hz`` and ``gamma`` at 1e400 through ``cli.run``), each recorded as its
bits or output or as the name of the exception it raises; integers between
10^6 and 10^400 are left out, since without the bound their exact sums
take millions of logarithms.  Then the cold command path: stdout, stderr
and exit status of ``cli.run([..., "--json"])`` for each of the 177
command lines of perfbench's cli-replay workload at seed 1, caches cleared
before each as that workload does, with the selftest reports' ``elapsed``
dropped.  The comparison prints each differing value with its distance and
err, each differing exact value, huge-argument case and command line, then
one summary line for each part, the numeric cases also by kind.
"""

import contextlib
import io
import json
import os
import random
import re
import sys
from fractions import Fraction

import mpmath


def compare(path_a: str, path_b: str) -> None:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    cli = [k for k in a if k.startswith("cli ")]
    cli_diff = [k for k in cli if a[k] != b[k]]
    for k in cli_diff:
        print(k, "output differs:", a[k], "->", b[k])
    exact = [k for k in a if k.startswith("exact ")]
    exact_diff = [k for k in exact if a[k] != b[k]]
    for k in exact_diff:
        print(k, "differs:", a[k], "->", b[k])
    huge = [k for k in a if k.startswith("huge")]
    huge_diff = [k for k in huge if a[k] != b[k]]
    for k in huge_diff:  # an exception name, or the bits of a value, or an output
        print(k, "differs:", *(v[0] if isinstance(v[0], str) else "a value" for v in (a[k], b[k])))
    for k in cli + exact + huge:
        del a[k], b[k]

    def num(t):
        return mpmath.mpf(((-1) ** t[0] * int(t[1]), t[2]))

    diff = [k for k in a if a[k][0] != b[k][0]]
    for k in diff:
        print(k, "|delta| =", mpmath.nstr(abs(num(a[k][0]) - num(b[k][0])), 3),
              "err =", mpmath.nstr(num(b[k][1]), 3))
    rel = max(float(abs(num(a[k][1]) - num(b[k][1])) / num(a[k][1])) for k in a if int(a[k][1][1]))
    print(f"{len(a)} cases: {len(diff)} values differ; {sum(a[k][1] != b[k][1] for k in a)} errs differ,"
          f" by at most {rel:.1e} relative; {sum(a[k][2] != b[k][2] for k in a)} params differ")
    kinds: dict = {}
    for k in a:
        kinds.setdefault(k.split()[0], []).append(k)
    for kind, keys in kinds.items():
        print(f"  {kind}: {len(keys)} cases, {sum(a[k][0] != b[k][0] for k in keys)} values,"
              f" {sum(a[k][1] != b[k][1] for k in keys)} errs and"
              f" {sum(a[k][2] != b[k][2] for k in keys)} params or reports differ")
    print(f"{len(exact)} exact values: {len(exact_diff)} differ")
    for prefix, kind in (("huge ", "huge-argument"), ("hugeint ", "huge-integer")):
        part = [k for k in huge if k.startswith(prefix)]
        print(f"{len(part)} {kind} cases: {sum(k in huge_diff for k in part)} differ")
    print(f"{len(cli)} command lines: {len(cli_diff)} differ in stdout, stderr or exit status")


def cli_outputs() -> dict:
    """Output of each cli-replay command line (seed 1) on cleared caches."""
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from perfbench.workloads import cli_replay

    from hzeta.cli import run
    from hzeta.mpcore import clear_caches

    out = {}
    for i, op in enumerate(cli_replay(1)):
        clear_caches()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = run([*op["argv"], "--json"])
        text = re.sub(r'"elapsed": [-+.e0-9]+, ', "", stdout.getvalue())  # selftest's wall clock
        out[f"cli #{i} {' '.join(op['argv'])}"] = (text, stderr.getvalue(), rc)
    return out


def cli_record(argv) -> tuple:
    """``(stdout, stderr, exit status)`` of one command line, or the name of
    the exception it raises."""
    from hzeta.cli import run

    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = run([*argv, "--json"])
    except Exception as exc:
        return (type(exc).__name__, None, None)
    return (stdout.getvalue(), stderr.getvalue(), rc)


def dump(path: str) -> None:
    from hzeta import PrecisionContext, bernoulli_poly, exact_log_gengamma, gengamma, gkbj_constant
    from hzeta import hurwitz, hurwitz_deriv, log_gengamma, phi
    from hzeta.mpcore import clear_caches
    from hzeta.validate import bendersky_recursion_check, log_coefficient_check, quadrature
    from hzeta.validate import selftest, zeta_positive

    def bits(v):
        return raw_bits(v._mpf_)

    def raw_bits(v):
        return [v[0], str(v[1]), v[2]]

    def level_routes(k, nodes, ctx):
        """Raw (value, err) of log Gamma_k and of zeta'(-k, .) at the nodes."""
        if not hasattr(gengamma, "_series_level"):  # the scalar routes' bits
            return ([(g.value._mpf_, g.err._mpf_) for g in (log_gengamma(k, x, ctx) for x in nodes)],
                    [(d.value._mpf_, d.err._mpf_) for d in (hurwitz_deriv(k, x, ctx) for x in nodes)])
        raw = [x._mpf_ for x in nodes]
        head = hurwitz._head(k, mpmath.libmp.dps_to_prec(ctx.working_digits + 5))
        return (gengamma._log_gengamma_level(k, raw, ctx),
                gengamma._series_level(k, raw, head, 0, ctx))

    def record(fn, *args):
        try:
            r = fn(*args)
        except Exception as exc:
            return (type(exc).__name__, None, None)
        return (bits(r.value), bits(r.err), r.params)

    out = {}
    zero = bits(mpmath.mpf(0))
    for D in (20, 30, 100):
        ctx, rng = PrecisionContext(D), random.Random(D)
        with ctx.workprec(5):  # 64 nodes in (0, 4), 32 in (20, 300), full mantissas
            nodes = [mpmath.mpf(rng.getrandbits(400)) / 2**400 * 4 for _ in range(64)]
            nodes += [20 + mpmath.mpf(rng.getrandbits(400)) / 2**400 * 280 for _ in range(32)]
            for n in (1, 2, 3):
                for i, x in enumerate(nodes):
                    out[f"B D={D} n={n} #{i}"] = (bits(bernoulli_poly(n, x)), zero, None)
        rats = [Fraction(rng.randint(1, 400), rng.randint(2, 97)) for _ in range(24)]
        rats = [r if r.denominator != 1 else r + Fraction(1, 3) for r in rats]
        for name, fn in (("hz", hurwitz_deriv), ("lg", log_gengamma)):
            for k in (0, 1, 3):
                for i, x in enumerate(nodes + rats):
                    out[f"{name} D={D} k={k} #{i}"] = record(fn, k, x, ctx)
        for k in (0, 1, 3):
            for name, pairs in zip(("level-lg", "level-hz"), level_routes(k, nodes, ctx)):
                for i, (value, err) in enumerate(pairs):
                    out[f"{name} D={D} k={k} #{i}"] = (raw_bits(value), raw_bits(err), None)
    for D in (20, 30):
        ctx = PrecisionContext(D)
        integrands = {"log": mpmath.log, "exp-sqrt": lambda t: mpmath.exp(-t) * mpmath.sqrt(t),
                      "loggamma": lambda t: log_gengamma(0, t + 1, ctx).value}
        for name, f in integrands.items():
            for b in (1, 2, 3, Fraction(11, 2)):
                value, err = quadrature(f, 0, b, ctx)
                out[f"quad D={D} {name} b={b}"] = (bits(value), bits(err), None)
    ctx = PrecisionContext(20)
    for k in (0, 1):
        for name, w in (("10^400/3", Fraction(10**400, 3)), ("1e400", mpmath.mpf("1e400"))):
            out[f"huge hz k={k} w={name}"] = record(hurwitz_deriv, k, w, ctx)
    out["huge lg k=0 x=10^400/3"] = record(log_gengamma, 0, Fraction(10**400, 3), ctx)
    for D in (20, 30, 100, 400):
        ctx = PrecisionContext(D)
        for k in (0, 1, 3, 6, 12):
            for w in (20, 25, 30, 45, 50, 100, 200, 400):
                out[f"L D={D} k={k} w={w}"] = record(gkbj_constant, k, w, None, ctx)
    def report(rep):  # every field but the wall clock
        return (bits(mpmath.mpf(rep.residual)), bits(mpmath.mpf(rep.tolerance)),
                [rep.passed, rep.name, rep.k, None if rep.x_or_w is None else str(rep.x_or_w)])

    for D in (20, 30, 40):
        clear_caches()
        for call in ("cold", "warm"):  # the second pass on the kept nodes, plans and constants
            for i, rep in enumerate(selftest("full", PrecisionContext(D))):
                out[f"selftest D={D} {call} #{i}"] = report(rep)
    clear_caches()
    for D in (20, 100):
        ctx = PrecisionContext(D)
        for k in (0, 1, 3, 6, 12):
            for w in (1, 2, 7, 50, 100, 200, 1000):
                for call in (1, 2):
                    out[f"exact-sum D={D} k={k} w={w} call {call}"] = record(exact_log_gengamma, k, w, ctx)
    for D in (20, 30, 100):
        ctx = PrecisionContext(D)
        for s in (2, 3, 4, 5, 6, 8, 12):
            out[f"zeta D={D} s={s}"] = (bits(zeta_positive(s, ctx)), zero, None)
    for k in range(9):
        out[f"log-coefficient k={k}"] = report(log_coefficient_check(k, PrecisionContext(20)))
    for D in (20, 30):
        for k in range(9):
            for x in (Fraction(7, 2), 50, 100):
                rep = bendersky_recursion_check(k, x, PrecisionContext(D))
                out[f"bendersky D={D} k={k} x={x}"] = report(rep)
    rng = random.Random(15)
    rats = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for _ in range(20)]
    for i, q in enumerate(rats):
        for n in range(13):
            out[f"exact B n={n} #{i}"] = str(bernoulli_poly(n, q))
            if n:
                out[f"exact phi n={n} #{i}"] = str(phi(n, q))
    ctx = PrecisionContext(20)
    for k, name, x in ((0, "10^400", 10**400), (0, "1e400", mpmath.mpf("1e400")),
                       (1, "10^400", 10**400)):
        out[f"hugeint lg k={k} x={name}"] = record(log_gengamma, k, x, ctx)
    out["hugeint exact k=0 w=10^6+1"] = record(exact_log_gengamma, 0, 10**6 + 1, ctx)
    for argv in (["hz", "-k", "0", "-w", "1e400"], ["gamma", "-k", "0", "-x", "1e400"]):
        out[f"hugeint cli {' '.join(argv)}"] = cli_record(argv)
    clear_caches()  # a checkout without the bound keeps the primes it sieved
    out.update(cli_outputs())
    with open(path, "w") as f:
        json.dump(out, f)


if __name__ == "__main__":
    if len(sys.argv) == 3:
        compare(*sys.argv[1:])
    elif len(sys.argv) == 2:
        dump(sys.argv[1])
    else:
        sys.exit(__doc__)
