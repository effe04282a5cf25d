"""Workload definitions and the seeded input generator.

Every workload is a *pool* of generated operations.  Timed loops run whole
rounds: round ``r`` is the whole pool in an order shuffled from
``(seed, r)``.  Whole rounds keep the composition of every run identical,
and repeat each op, so its median repetition can be taken.

The library only ever sees the generated inputs: orders, digit counts,
rational arguments and command lines.  The seed never reaches it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    excludes: str
    limit_ms: float  # per-op latency limit; failed or killed ops count at this value
    in_process: bool  # False: each op is a `python -m hzeta` process
    # Duration of one round on the reference machine (2 vCPUs, CPython 3.11,
    # mpmath's pure-Python backend).  A traced run of S seconds does about
    # S / (6 round_s) rounds, each twice; untraced runs are timed instead.
    round_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="const-cold",
            why=(
                "One-shot users pay the cold cost: clear_caches() runs before every op, so the "
                "Bernoulli recurrence, term construction, the exact sum and the trial search all run."
            ),
            excludes=(
                "D=1000 (cold gkbj_auto(1) alone takes about 10 s per op); orders past the "
                "order ceiling (k >= 6 at D=100), which fail on the seed and live in cli-defects."
            ),
            limit_ms=5000.0,
            in_process=True,
            round_s=2.0,
        ),
        Workload(
            name="hurwitz-warm",
            why=(
                "A library user evaluating many points on warm caches: distinct rational arguments "
                "load eval_term_poly and the shift chain and skip Bernoulli and term construction."
            ),
            excludes=(
                "D >= 60, where every op fails on the seed (the precision cap); cli-defects "
                "exposes the cap instead."
            ),
            limit_ms=1000.0,
            in_process=True,
            round_s=0.4,
        ),
        Workload(
            name="identity-suite",
            why=(
                "The 63 checks of selftest('full') at D=20, one op each: the only workload on "
                "validate.quadrature, evaluating the asymptotic layers at mpf quadrature nodes."
            ),
            excludes=(
                "D=50: the full suite takes 189 s there, three checks about 40 s each, which "
                "does not fit a run."
            ),
            limit_ms=10000.0,
            in_process=True,
            round_s=4.0,
        ),
        Workload(
            name="cli-oneshot",
            why=(
                "What CLI users pay: one `python -m hzeta <cmd> --json` process per op, so "
                "interpreter start, import and cold caches, at D in {20, 100}."
            ),
            excludes=(
                "Inputs that fail on the seed (dz, the order ceiling, the precision cap; see "
                "cli-defects) and selftest --level quick at D=100 (3.3 s per process)."
            ),
            limit_ms=10000.0,
            in_process=False,
            round_s=4.0,
        ),
        Workload(
            name="cli-replay",
            why=(
                "The CLI's own cost without interpreter start: cli-oneshot's mix of command lines "
                "through hzeta.cli.run in one process, caches cleared before each as in a fresh one."
            ),
            excludes=(
                "Interpreter start and import, which cli-oneshot measures: between runs they "
                "vary too much on the reference machine to gate on.  Seven of every eight "
                "selftest runs."
            ),
            limit_ms=10000.0,
            in_process=True,
            round_s=1.5,
        ),
        Workload(
            name="cli-defects",
            why=(
                "A probe of the three known CLI defects: dz NameError, the order ceiling and the "
                "precision cap.  Every failure must be attributed to one of them."
            ),
            excludes="Everything that succeeds on the seed; this probe is not a timed workload.",
            limit_ms=3000.0,
            in_process=False,
            round_s=7.0,
        ),
    )
}

# The workloads BENCHMARK.json gates on: two, so that each run can be long
# enough for the machine's slow and fast phases to even out.  Between them
# they run every layer: cli-replay clears the caches before every command,
# so Bernoulli, term construction, the exact sum and the trial search run
# there as on const-cold.  `--workload all` also prints the timed workloads
# left out of the gate: const-cold (its D=400 ops and the ROADMAP profile
# comparison), hurwitz-warm (goodput) and cli-oneshot (process latency),
# whose figures spread too widely between runs on the reference machine;
# and cli-defects, a probe whose ops fail on purpose.
TIMED_WORKLOADS = ("identity-suite", "cli-replay")
UNGATED_WORKLOADS = ("const-cold", "hurwitz-warm", "cli-oneshot")

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  "no move" names the workload where a change to that layer should
# show nothing.
LAYER_EXPECTATIONS = (
    ("mpcore.bernoulli.{self_ms,calls,max_index}", "lat_p50_ms, goodput_ops_s",
     "const-cold, cli-replay", "hurwitz-warm, identity-suite"),
    ("mpcore.{bernoulli_poly,phi,harmonic}.self_ms", "lat_p50_ms", "identity-suite", ""),
    ("asymptotic.build_lambda_terms.{self_ms,calls,hit_ratio}", "lat_p50_ms",
     "const-cold, cli-replay", "hurwitz-warm (hit_ratio ~ 1)"),
    ("asymptotic.eval_term_poly.{self_ms,calls,tail_terms}", "lat_p50_ms, goodput_ops_s",
     "hurwitz-warm, identity-suite", "const-cold (small)"),
    ("asymptotic.eval_lambda.{self_ms,too_small}", "ok_frac", "hurwitz-warm", ""),
    ("gengamma.exact_log_gengamma.{self_ms,terms}", "lat_p90_ms", "const-cold, cli-replay",
     "hurwitz-warm, identity-suite"),
    ("gengamma.shift_log_gengamma.{self_ms,steps}", "lat_p50_ms",
     "hurwitz-warm, identity-suite", "const-cold"),
    ("constants.gkbj_auto.{self_ms,memo_hits}, constants.gkbj_constant.calls, "
     "constants.search.accept_ratio", "lat_p90_ms", "const-cold, cli-replay", ""),
    ("hurwitz.{hurwitz_deriv,zeta_deriv_neg}.self_ms", "lat_p50_ms",
     "hurwitz-warm, const-cold", ""),
    ("validate.quadrature.{self_ms,calls,integrand_evals,nonconvergent}, "
     "validate.zeta_positive.self_ms", "lat_p50_ms", "identity-suite", "all others"),
    ("cli.{import_ms,run_ms,process_overhead_ms}", "lat_p50_ms, setup_s",
     "cli-replay, cli-oneshot", "all others"),
    ("trace.overhead_frac", "-", "each workload", ""),
)


def _rng(seed: int, *salt) -> random.Random:
    # string seeds hash through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(s) for s in (seed, *salt)))


def round_order(seed: int, size: int, r: int) -> list[int]:
    """Pool indices of round ``r`` in a seeded order."""
    order = list(range(size))
    _rng(seed, "round", r).shuffle(order)
    return order


def _draw_fraction(rng: random.Random, lo: int, hi: int, seen: set) -> Fraction:
    """A non-integer p/q in (lo, hi), q <= 60, not drawn before."""
    while True:
        q = rng.randrange(2, 61)
        p = rng.randrange(lo * q + 1, hi * q)
        w = Fraction(p, q)
        if w.denominator > 1 and w not in seen:
            seen.add(w)
            return w


# ---------------------------------------------------------------------------
# generators: each returns the pool of ops

# hurwitz-warm draws this many arguments per (op, order, digits, band)
HURWITZ_PER_STRATUM = 10


def const_cold(seed: int):
    """Every (op, k, D) of the grid, D=100 cells twice so that the median
    falls inside the D=100 cluster and lat_p90 inside the D=400 one."""
    pool = []
    for digits, kmax, copies in ((100, 5, 2), (400, 3, 1)):
        cell = (
            [("gkbj_auto", k) for k in range(kmax + 1)]
            + [("zeta_deriv_neg", k) for k in range(kmax + 1)]
            + [("varpi", k) for k in range(1, kmax + 1)]
            + [("kinkelin_logvarpi", None)]
        )
        pool += [{"fn": fn, "k": k, "D": digits} for fn, k in cell] * copies
    return pool


def hurwitz_warm(seed: int):
    """Distinct rational arguments, stratified by op, order, digits and band.

    The small band (0, 4) needs a shift chain of about 20 steps; the large
    band (30, 300) is past the shift threshold and needs none.
    """
    rng = _rng(seed, "hurwitz-warm")
    seen: set = set()
    pool = []
    for fn in ("hurwitz_deriv", "log_gengamma"):
        for k in range(5):
            for digits in (20, 30):
                for lo, hi in ((0, 4), (30, 300)):
                    for _ in range(HURWITZ_PER_STRATUM):
                        w = _draw_fraction(rng, lo, hi, seen)
                        pool.append({"fn": fn, "k": k, "D": digits, "w": str(w)})
    return pool


def _suite_checks():
    """The 63 checks of selftest('full'), in selftest's order."""
    checks = [("_quadrature_unit_check", [], {}), ("_quadrature_log_check", [], {})]
    checks += [("_zeta_even_check", [m], {}) for m in (1, 2, 3)]
    checks += [("jeffery_difference_check", [k, x], {}) for k, x in ((0, 1), (1, 2), (4, 7))]
    checks += [("log_coefficient_check", [k], {}) for k in range(7)]
    checks += [("stabilization_check", [k], {}) for k in range(7)]
    checks += [("bendersky_recursion_check", [0, 100], {}), ("_raabe_integral_check", [], {})]
    checks += [("bendersky_recursion_check", [1, 100], {}),
               ("bendersky_recursion_check", [2, 50], {})]
    checks += [("alt_recursion_check", [k, x], {}) for k, x in ((0, 1), (0, 2), (1, 3))]
    checks += [("alexeiewsky_check", [x], {}) for x in (1, 2, "11/2")]
    checks += [("general_solution_check", [k, x], {})
               for k, x in ((1, 1), (2, 2), (2, "5/2"), (3, 1))]
    checks += [("gint_moment_check", [k], {}) for k in range(1, 6)]
    checks += [("gint_moment_check", [2], {"gamma_variant": True})]
    checks += [("jeffery_difference_check", [k, x], {}) for k in range(7) for x in (1, 2, 7)]
    return checks


def identity_suite(seed: int):
    pool = [{"check": name, "args": args, "kwargs": kw, "D": 20}
            for name, args, kw in _suite_checks()]
    return pool


# (subcommand, digits, argument kind, order range, copies per round)
_CLI_SLOTS = (
    ("hz", 20, "rational", (0, 12), 4),
    ("hz", 20, "integer", (0, 9), 1),
    ("hz", 100, "integer", (0, 5), 1),
    ("gamma", 20, "rational", (0, 9), 3),
    ("gamma", 100, "integer", (0, 5), 1),
    ("const", 20, None, (0, 9), 3),
    ("const", 100, None, (0, 5), 1),
    ("varpi", 20, None, (1, 10), 2),
    ("varpi", 100, None, (1, 6), 1),
    ("kinkelin", 20, None, None, 1),
    ("kinkelin", 100, None, None, 1),
    ("table", 20, None, (0, 9), 2),
    ("table", 100, None, (0, 5), 1),
    ("selftest", 20, None, None, 1),
)

# (subcommand, digits, argument kind, order range, copies): each slot hits
# exactly one known defect on the seed
_DEFECT_SLOTS = (
    ("dz", 20, None, (0, 5), 2),  # NameError in the dz branch
    ("const", 20, None, (10, 12), 1),  # order ceiling at D=20
    ("gamma", 20, "rational", (10, 12), 1),  # order ceiling through log_gengamma
    ("hz", 100, "rational", (0, 4), 2),  # precision cap
    ("gamma", 100, "rational", (0, 4), 1),  # precision cap
)


def _cli_argv(rng, slot, k, seen) -> list[str]:
    cmd, digits, kind, krange, _ = slot
    argv = [cmd]
    if krange is not None:
        argv += ["--kmax", str(k)] if cmd == "table" else ["-k", str(k)]
    if kind is not None:
        flag = "-w" if cmd == "hz" else "-x"
        arg = _draw_fraction(rng, 0, 30, seen) if kind == "rational" else rng.randint(1, 40)
        argv += [flag, str(arg)]
    if cmd == "selftest":
        argv += ["--level", "quick"]
    return argv + ["--digits", str(digits)]


def _orders(rng, krange, count: int) -> list:
    """``count`` orders that run through ``krange`` in turn from a seeded
    start, in a seeded order.  Every order comes up about equally often, so
    the mix of orders, which sets most of a command's cost, barely changes
    with the seed; a single draw is uniform on the range."""
    if krange is None:
        return [None] * count
    lo, hi = krange
    span = hi - lo + 1
    start = rng.randrange(span)
    ks = [lo + (start + j) % span for j in range(count)]
    rng.shuffle(ks)
    return ks


def _cli_pool(seed: int, slots, salt: str):
    rng = _rng(seed, salt)
    seen: set = set()
    pool = []
    for slot in slots:
        for k in _orders(rng, slot[3], slot[-1]):
            pool.append({"argv": _cli_argv(rng, slot, k, seen), "D": slot[1]})
    return pool


def cli_oneshot(seed: int):
    return _cli_pool(seed, _CLI_SLOTS, salt="cli-oneshot")


def cli_replay(seed: int):
    """cli-oneshot's command lines, eight of each slot where cli-oneshot has
    one, with selftest once instead of eight times: in one process the
    others are cheap, and with only 23 the percentiles would move with
    whichever orders the seed drew, while eight selftests (0.26 s each)
    would take most of each round."""
    slots = [(*slot[:-1], 8 * slot[-1]) for slot in _CLI_SLOTS if slot[0] != "selftest"]
    selftest = [slot for slot in _CLI_SLOTS if slot[0] == "selftest"]
    return _cli_pool(seed, slots + selftest, salt="cli-replay")


def cli_defects(seed: int):
    return _cli_pool(seed, _DEFECT_SLOTS, salt="cli-defects")


GENERATORS = {
    "const-cold": const_cold,
    "hurwitz-warm": hurwitz_warm,
    "identity-suite": identity_suite,
    "cli-oneshot": cli_oneshot,
    "cli-replay": cli_replay,
    "cli-defects": cli_defects,
}


def generate(name: str, seed: int):
    """The pool of ops of a workload; the same seed gives the same inputs."""
    return GENERATORS[name](seed)
