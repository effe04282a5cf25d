"""Command-line front end.

Subcommands
-----------
dz        zeta'(-k)
hz        zeta'(-k, w), w decimal or rational "p/q"
const     order-k limiting constant L_k
varpi     Jeffery summation constant
kinkelin  Kinkelin's log varpi
gamma     log Gamma_k(x)
table     L_k and zeta'(-k) for k = 0..K
selftest  run the identity suite

Common flags: --digits D (default 20, or the HZETA_DIGITS environment
variable), --json for one JSON object per line: a Result's fields, with
``params`` the digits plus the series parameters the route used; for
selftest, one check report per line, with the pass count on stderr.
Override flags are accepted only where they take effect: dz and const
take --w-trial, the trial argument for L_k, and --terms, which caps its
tail length (default: the count planned for --digits) and needs
--w-trial; hz and gamma take --terms, which caps the tail of the
shifted series at non-integer arguments.  Exit codes: 0 success,
1 computation error or unwritable -o file, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Iterator, TextIO

import mpmath

from .constants import _MAX_TRIAL_W, kinkelin_logvarpi, limit_constant, varpi
from .errors import HzetaError
from .gengamma import log_gengamma
from .hurwitz import hurwitz_deriv, hurwitz_deriv_integer, zeta_deriv_neg
from .mpcore import PrecisionContext, Result
from .validate import selftest

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostic, exit 2
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_rational(text: str) -> Fraction:
    """Exact parse of 'p/q' or a decimal literal."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational or decimal: {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _hz(args, ctx: PrecisionContext) -> list[Result]:
    # integers beyond the exact sums' reach take the series, as log_gengamma does
    if args.w.denominator == 1 and args.w <= _MAX_TRIAL_W:
        return [hurwitz_deriv_integer(args.k, int(args.w), ctx)]
    return [hurwitz_deriv(args.k, args.w, ctx, tail_terms=args.terms)]


def _table(args, ctx: PrecisionContext) -> Iterator[Result]:
    # one constant at a time, so the rows before a failing order still print
    for k in range(args.kmax + 1):
        yield limit_constant(k, ctx)
        yield zeta_deriv_neg(k, ctx)


_K = ("-k", {"type": _nonneg_int, "required": True})
_TRIAL = ("--terms", "--w-trial")

_OVERRIDES = {
    "--terms": {"type": _positive_int, "help": "override the number of tail terms"},
    "--w-trial": {"type": _positive_int, "dest": "w_trial",
                  "help": "override the trial argument for L_k"},
}

# subcommand -> (help, arguments, override flags it accepts,
#                library call returning the results to print; None for selftest)
_COMMANDS = {
    "dz": ("zeta'(-k)", [_K], _TRIAL,
           lambda a, ctx: [zeta_deriv_neg(a.k, ctx, a.w_trial, a.terms)]),
    "hz": ("zeta'(-k, w)",
           [_K, ("-w", {"type": _parse_rational, "required": True,
                        "help": 'offset, decimal or rational "p/q"'})],
           ("--terms",), _hz),
    "const": ("limiting constant L_k", [_K], _TRIAL,
              lambda a, ctx: [limit_constant(a.k, ctx, a.w_trial, a.terms)]),
    "varpi": ("Jeffery summation constant",
              [("-k", {"type": _positive_int, "required": True})], (),
              lambda a, ctx: [varpi(a.k, ctx)]),
    "kinkelin": ("Kinkelin's log varpi", [], (),
                 lambda a, ctx: [kinkelin_logvarpi(ctx)]),
    "gamma": ("log Gamma_k(x)",
              [_K, ("-x", {"type": _parse_rational, "required": True,
                           "help": 'argument, decimal or rational "p/q"'})],
              ("--terms",),
              lambda a, ctx: [log_gengamma(a.k, a.x, ctx, tail_terms=a.terms)]),
    "table": ("L_k and zeta'(-k) for k = 0..K",
              [("--kmax", {"type": _nonneg_int, "required": True}),
               ("-o", {"dest": "outfile", "default": None, "help": "write the table here"})],
              (), _table),
    "selftest": ("run the identity suite",
                 [("--level", {"choices": ("quick", "full"), "default": "quick"})], (), None),
}


def _add_command(parser: _Parser, name: str) -> _Parser:
    """Give ``parser`` the flags of subcommand ``name``, common ones first."""
    _, arguments, overrides, _ = _COMMANDS[name]
    parser.add_argument("--digits", type=_positive_int, default=None,
                        help="significant digits to report (default 20 or $HZETA_DIGITS)")
    parser.add_argument("--json", action="store_true", help="emit JSON lines")
    for flag, settings in arguments:
        parser.add_argument(flag, **settings)
    for flag in overrides:
        parser.add_argument(flag, default=None, **_OVERRIDES[flag])
    return parser


def _build_parser() -> _Parser:
    """The parser with every subcommand, whose usage and errors list them all."""
    parser = _Parser(prog="hzeta", description="Hurwitz zeta derivatives and friends")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _context(args) -> PrecisionContext:
    digits = args.digits
    if digits is None:
        env = os.environ.get("HZETA_DIGITS")
        if env is not None:
            try:
                digits = int(env)
            except ValueError:
                digits = 0
            if digits < 1:
                raise HzetaError(f"HZETA_DIGITS must be a positive integer, got {env!r}")
        else:
            digits = 20
    return PrecisionContext(target_digits=digits)


def _emit(result: Result, as_json: bool, out: TextIO, digits: int) -> None:
    record = {
        "quantity": result.quantity,
        "k": result.k,
        "w_or_x": None if result.arg is None else str(result.arg),
        "value": mpmath.nstr(result.value, digits, strip_zeros=False),
        "err_estimate": "0.0" if result.err == 0 else mpmath.nstr(result.err, 2),
        "method": result.method,
        "params": {"digits": digits, **result.params},
    }
    if as_json:
        print(json.dumps(record, sort_keys=True), file=out)
        return
    name = record["quantity"]
    k = record["k"]
    w = record["w_or_x"]
    head = f"{name}({k},{w})" if w is not None else f"{name}({k})"
    print(f"{head} = {record['value']}  (± {record['err_estimate']})", file=out)


def _run_selftest(args, ctx, out: TextIO) -> int:
    reports = selftest(args.level, ctx)
    for rep in reports:
        record = {
            "check": rep.name,
            "k": rep.k,
            "x_or_w": None if rep.x_or_w is None else str(rep.x_or_w),
            "residual": mpmath.nstr(rep.residual, 3),
            "tolerance": mpmath.nstr(rep.tolerance, 3),
            "passed": rep.passed,
            "elapsed": round(rep.elapsed, 3),
        }
        if args.json:
            print(json.dumps(record, sort_keys=True), file=out)
            continue
        status = "PASS" if rep.passed else "FAIL"
        loc = ""
        if rep.k is not None:
            loc += f" k={rep.k}"
        if rep.x_or_w is not None:
            loc += f" x={rep.x_or_w}"
        print(f"[{status}] {rep.name}{loc}  residual={record['residual']}"
              f" tol={record['tolerance']} ({rep.elapsed:.2f}s)", file=out)
    failed = sum(not rep.passed for rep in reports)
    print(f"selftest {args.level}: {len(reports) - failed}/{len(reports)} passed",
          file=sys.stderr if args.json else out)
    return 0 if failed == 0 else 1


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the process exit status.  A known
    subcommand is parsed by a parser of its own, anything else by the full one."""
    try:
        if argv and argv[0] in _COMMANDS:
            parser = _add_command(_Parser(prog=f"hzeta {argv[0]}"), argv[0])
            args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            parser.prog = "hzeta"  # later errors read as the full parser's
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            parser = _build_parser()
            args = parser.parse_args(argv)
        if "w_trial" in vars(args) and args.w_trial is None and args.terms is not None:
            parser.error("--terms takes effect only with --w-trial")
    except SystemExit as exc:
        return int(exc.code or 0)

    out = sys.stdout
    try:
        ctx = _context(args)
        call = _COMMANDS[args.command][3]
        if call is None:
            return _run_selftest(args, ctx, out)
        sink = open(args.outfile, "w") if getattr(args, "outfile", None) else out
        try:
            for result in call(args, ctx):
                _emit(result, args.json, sink, ctx.target_digits)
        finally:
            if sink is not out:
                sink.close()
    except (HzetaError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"hzeta: error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
