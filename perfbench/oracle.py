"""Independent oracle and the correctness checker.

Every reference value comes from ``mpmath.zeta(-k, w, 1)`` at D+40
digits, through these identities:

    L_k          = H_k B_{k+1}/(k+1) - zeta'(-k)
    log G_k(x)   = zeta'(-k, x) - zeta'(-k)
    varpi(k)     = H_k B_k - k L_{k-1},   varpi(1) = -L_0 - 1/2
    log varpi    = 2 L_1 - 1/6

Nothing here imports hzeta: the oracle must not share code with the
program it checks.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

import mpmath

GUARD_DIGITS = 40

# Published digits the oracle must reproduce (see oracle_self_check).
# varpi(3)'s 12th printed digit is one off and varpi(4) is truncated, so the
# published strings are matched to one unit in their last place.
PUBLISHED = {
    ("varpi", 2): "-0.2475089541",
    ("varpi", 3): "-0.091345371176",
    ("varpi", 4): "0.013180972097",
    ("kinkelin", 1): "0.33084228740",
}

# Orders at which gkbj_auto's parameter search gives up on the seed (ROADMAP
# item 2): a killed or failed constant beyond these is the order ceiling.
ORDER_CEILING = {20: 10, 30: 9, 50: 7, 100: 6}
# Digits from which hurwitz_deriv / log_gengamma stop backing their digits.
PRECISION_CAP_DIGITS = 60


def _harmonic(k: int) -> Fraction:
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def _bernoulli(n: int) -> Fraction:
    # mpmath uses B_1 = -1/2, the package's convention too
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


def _mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


class Oracle:
    """Memoized reference values; ``digits`` is the requested D, the work
    happens at D + GUARD_DIGITS."""

    def __init__(self) -> None:
        self._memo: dict = {}

    def _at(self, key, digits, fn):
        key = (key, digits)
        if key not in self._memo:
            with mpmath.workdps(digits + GUARD_DIGITS):
                self._memo[key] = fn()
        return self._memo[key]

    def zeta_deriv(self, k: int, w, digits: int) -> mpmath.mpf:
        """zeta'(-k, w); w = 1 gives zeta'(-k)."""
        w = Fraction(w)
        return self._at(("dz", k, w), digits, lambda: mpmath.zeta(-k, _mpf(w), 1))

    def L(self, k: int, digits: int) -> mpmath.mpf:
        head = _harmonic(k) * _bernoulli(k + 1) / (k + 1)
        return self._at(("L", k), digits, lambda: _mpf(head) - self.zeta_deriv(k, 1, digits))

    def log_gengamma(self, k: int, x, digits: int) -> mpmath.mpf:
        return self._at(
            ("lg", k, Fraction(x)),
            digits,
            lambda: self.zeta_deriv(k, x, digits) - self.zeta_deriv(k, 1, digits),
        )

    def varpi(self, k: int, digits: int) -> mpmath.mpf:
        if k == 1:
            return self._at(("varpi", 1), digits, lambda: -self.L(0, digits) - mpmath.mpf(1) / 2)
        head = _harmonic(k) * _bernoulli(k)
        return self._at(("varpi", k), digits,
                        lambda: _mpf(head) - k * self.L(k - 1, digits))

    def kinkelin(self, digits: int) -> mpmath.mpf:
        return self._at(("kinkelin",), digits,
                        lambda: 2 * self.L(1, digits) - mpmath.mpf(1) / 6)

    # -- dispatch by library function or CLI quantity ------------------------

    def for_op(self, op: dict) -> mpmath.mpf:
        """Reference value of an in-process op (const-cold, hurwitz-warm)."""
        fn, k, digits = op["fn"], op["k"], op["D"]
        if fn == "gkbj_auto":
            return self.L(k, digits)
        if fn == "zeta_deriv_neg":
            return self.zeta_deriv(k, 1, digits)
        if fn == "varpi":
            return self.varpi(k, digits)
        if fn == "kinkelin_logvarpi":
            return self.kinkelin(digits)
        if fn == "hurwitz_deriv":
            return self.zeta_deriv(k, Fraction(op["w"]), digits)
        if fn == "log_gengamma":
            return self.log_gengamma(k, Fraction(op["w"]), digits)
        raise ValueError(f"no oracle for {fn!r}")

    def for_record(self, quantity: str, k: int, arg, digits: int) -> mpmath.mpf:
        """Reference value of one CLI JSON record."""
        if quantity == "L":
            return self.L(k, digits)
        if quantity == "zeta_deriv":
            return self.zeta_deriv(k, 1, digits)
        if quantity == "hurwitz_deriv":
            return self.zeta_deriv(k, Fraction(arg), digits)
        if quantity == "gengamma":
            return self.log_gengamma(k, Fraction(arg), digits)
        if quantity == "varpi":
            return self.varpi(k, digits)
        if quantity == "kinkelin":
            return self.kinkelin(digits)
        raise ValueError(f"no oracle for quantity {quantity!r}")


def expected_records(argv: list[str]) -> list[tuple[str, int, str | None]]:
    """(quantity, k, w_or_x) of every JSON record a CLI command should print;
    empty for selftest, whose records are check reports."""
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    k = int(opts.get("-k", 0))
    if cmd == "hz":
        return [("hurwitz_deriv", k, str(Fraction(opts["-w"])))]
    if cmd == "gamma":
        return [("gengamma", k, str(Fraction(opts["-x"])))]
    if cmd == "const":
        return [("L", k, None)]
    if cmd == "dz":
        return [("zeta_deriv", k, None)]
    if cmd == "varpi":
        return [("varpi", k, None)]
    if cmd == "kinkelin":
        return [("kinkelin", 1, None)]
    if cmd == "table":
        return [rec for j in range(int(opts["--kmax"]) + 1)
                for rec in (("L", j, None), ("zeta_deriv", j, None))]
    if cmd == "selftest":
        return []
    raise ValueError(f"unknown subcommand {cmd!r}")


# ---------------------------------------------------------------------------
# checks


def cli_output(stdout: str) -> list:
    """CLI output with the run-dependent ``elapsed`` field of selftest
    records removed, for comparing two runs of the same command."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            record.pop("elapsed", None)
            out.append(record)
        else:
            out.append(line)
    return out


def check_value(value, err, reference, digits: int) -> str | None:
    """None when |value - reference| <= 10^-D and err covers the actual
    error; otherwise the reason the op failed."""
    with mpmath.workdps(digits + GUARD_DIGITS):
        actual = abs(value - reference)
        if actual > mpmath.mpf(10) ** (-digits):
            return "wrong value"
        if err < actual:
            return "dishonest err"
    return None


def err_slack_dex(value, err, reference, digits: int) -> float | None:
    """log10(err / actual error), None when the value is exact."""
    with mpmath.workdps(digits + GUARD_DIGITS):
        actual = abs(value - reference)
        if actual == 0 or err == 0:
            return None
        return float(mpmath.log10(err / actual))


# Identity checks whose tolerance is fixed (a rounding floor, or 0.5 for a
# count of bad coefficients) rather than assembled from the error estimates
# of the two sides.
FIXED_TOLERANCE_CHECKS = frozenset({"jeffery-difference", "log-coefficient",
                                    "zeta-even-closed-form"})


def check_slack_dex(name: str, residual, tolerance) -> float | None:
    """err_slack_dex of an identity check: log10(tolerance / residual).

    The identity's exact value is 0, so the residual is the actual error of
    the computed difference, and the tolerance is its error estimate: this is
    log10(err / actual error), as for a value.  None for a check with a fixed
    tolerance, where the ratio would measure accuracy rather than the error
    estimate, and for a zero residual.
    """
    residual, tolerance = mpmath.mpf(residual), mpmath.mpf(tolerance)
    if name in FIXED_TOLERANCE_CHECKS or residual == 0 or tolerance == 0:
        return None
    return float(mpmath.log10(tolerance / residual))


def last_digit_unit(printed: str) -> mpmath.mpf:
    """One unit in the last printed digit of a decimal literal."""
    return mpmath.mpf(10) ** Decimal(printed).as_tuple().exponent


def _order_of(argv: list[str]) -> int:
    opts = dict(zip(argv[1::2], argv[2::2]))
    return int(opts.get("-k", opts.get("--kmax", 0)))


def _beyond_ceiling(argv: list[str], digits: int) -> bool:
    ceiling = min((v for d, v in ORDER_CEILING.items() if d <= digits), default=None)
    if ceiling is None:
        return False
    needed = _order_of(argv) - (1 if argv[0] == "varpi" else 0)
    return needed >= ceiling


def _capped(argv: list[str], digits: int) -> bool:
    opts = dict(zip(argv[1::2], argv[2::2]))
    arg = opts.get("-w", opts.get("-x"))
    return (argv[0] in ("hz", "gamma") and arg is not None
            and Fraction(arg).denominator > 1 and digits >= PRECISION_CAP_DIGITS)


def cli_failure_cause(argv: list[str], digits: int, reason: str, stderr: str) -> str:
    """Attribute a failed CLI op to one of the known defects, else 'other'."""
    if argv[0] == "dz" and "NameError" in stderr:
        return "dz-nameerror"
    if "reaches err <=" in stderr or (reason == "killed" and _beyond_ceiling(argv, digits)):
        return "order-ceiling"
    if reason == "wrong value" and _capped(argv, digits):
        return "precision-cap"
    return "other"


def op_failure_cause(op: dict, reason: str, exc_name: str | None = None) -> str:
    """Attribute a failed in-process op to a known defect, else 'other'."""
    if exc_name == "ParameterSearchFailed":
        return "order-ceiling"
    if (reason == "wrong value" and op.get("fn") in ("hurwitz_deriv", "log_gengamma")
            and op["D"] >= PRECISION_CAP_DIGITS):
        return "precision-cap"
    return "other"


def check_cli(op: dict, sample: dict, oracle: Oracle):
    """Check one CLI process.

    Returns ``(reason, cause, slacks)``: reason and cause are None for a
    correct op; slacks are the ``check_slack_dex`` of the printed selftest
    checks.
    """
    argv, digits = op["argv"], op["D"]
    stderr = sample.get("stderr", "")
    slacks: list[float] = []
    if sample.get("killed"):
        reason = "killed"
    elif sample["rc"] != 0:
        reason = f"exit {sample['rc']}"
    else:
        reason = None
        records = [json.loads(line) for line in sample["stdout"].splitlines()
                   if line.startswith("{")]
        expected = expected_records(argv)
        if argv[0] == "selftest":
            if not records or not all(r["passed"] for r in records):
                reason = "selftest check failed"
            for r in records:
                slack = check_slack_dex(r["check"], r["residual"], r["tolerance"])
                if slack is not None:
                    slacks.append(slack)
        elif [(r["quantity"], r["k"], r["w_or_x"]) for r in records] != expected:
            reason = "unexpected records"
        else:
            with mpmath.workdps(digits + GUARD_DIGITS):
                for r in records:
                    ref = oracle.for_record(r["quantity"], r["k"], r["w_or_x"], digits)
                    if abs(mpmath.mpf(r["value"]) - ref) > last_digit_unit(r["value"]):
                        reason = "wrong value"
                        break
    if reason is None:
        return None, None, slacks
    return reason, cli_failure_cause(argv, digits, reason, stderr), slacks


def oracle_self_check(oracle: Oracle | None = None) -> list[str]:
    """Problems found when the oracle is compared with known constants;
    an empty list means it passed."""
    oracle = oracle or Oracle()
    problems = []
    digits = 50
    with mpmath.workdps(digits + GUARD_DIGITS):
        tol = mpmath.mpf(10) ** (-digits)
        if abs(oracle.L(0, digits) - mpmath.log(2 * mpmath.pi) / 2) > tol:
            problems.append("L_0 != log sqrt(2 pi)")
        if abs(oracle.L(1, digits) - mpmath.log(mpmath.glaisher)) > tol:
            problems.append("L_1 != log A")
        for (kind, k), text in PUBLISHED.items():
            value = oracle.varpi(k, digits) if kind == "varpi" else oracle.kinkelin(digits)
            if abs(value - mpmath.mpf(text)) > last_digit_unit(text):
                problems.append(f"{kind}({k}) does not match published {text}")
    return problems
