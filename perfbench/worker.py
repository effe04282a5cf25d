"""One workload in a fresh interpreter: ``python -m perfbench.worker``.

Reads a JSON spec on stdin.  Writes to stdout one JSON line per timed
round (``order`` and ``samples``), then one JSON object with the rest.  Modes:

* ``setup``: import and warm up, then report when the first op could start;
* ``run``: the same, then run whole rounds for ``seconds``;
* ``trace``: run each of ``rounds`` rounds untraced and again under the
  tracer, and report per-layer totals.  For CLI workloads the processes run
  first, then the replays through ``hzeta.cli.run`` in this process.

Single client, closed loop, no threads: each op starts when the previous
one has returned.  In-process ops are cut at the workload's latency limit by
an interval timer; CLI ops are processes killed at the limit.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction

from perfbench.workloads import WORKLOADS, round_order


class OpKilled(BaseException):
    """Raised by the interval timer when an op passes the latency limit.

    A BaseException, so the library's own ``except`` clauses cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OpKilled()


def _encode(x) -> list:
    """Exact, JSON-safe form of an mpf: its (sign, mantissa, exponent, bits)."""
    return list(x._mpf_)


def _peak_rss_kb() -> int:
    """This process's own peak resident memory.

    ru_maxrss also counts the peak of the process that spawned this one,
    taken over at exec, so run.py's memory could show in it; VmHWM
    counts this process only.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# in-process workloads


class InProcess:
    """Builds callables for pool ops and warms the caches a workload needs."""

    def __init__(self, name: str, pool: list[dict]) -> None:
        import hzeta  # timed as part of set-up
        from hzeta import constants, gengamma, hurwitz, mpcore, validate

        if not os.path.abspath(hzeta.__file__).startswith(os.path.join(os.getcwd(), "src", "")):
            raise SystemExit(f"hzeta imported from {hzeta.__file__}, not from ./src")

        self.name = name
        self.pool = pool
        self.mpcore = mpcore
        self._modules = {
            "gkbj_auto": constants, "varpi": constants, "kinkelin_logvarpi": constants,
            "zeta_deriv_neg": hurwitz, "hurwitz_deriv": hurwitz, "log_gengamma": gengamma,
        }
        self._validate = validate
        self._ctx = {d: mpcore.PrecisionContext(target_digits=d)
                     for d in sorted({op["D"] for op in pool})}
        self._args = [self._prepare(op) for op in pool]

    def _prepare(self, op):
        ctx = self._ctx[op["D"]]
        if "argv" in op:
            return [op["argv"]], {}
        if "check" in op:
            args = [Fraction(a) if isinstance(a, str) else a for a in op["args"]]
            return args, dict(op["kwargs"], ctx=ctx)
        if op["fn"] == "kinkelin_logvarpi":
            return [ctx], {}
        if "w" in op:
            return [op["k"], Fraction(op["w"]), ctx], {}
        return [op["k"], ctx], {}

    def function(self, i: int):
        """Looked up at call time, so a tracer's rebinding is seen."""
        op = self.pool[i]
        if "check" in op:
            return getattr(self._validate, op["check"])
        return getattr(self._modules[op["fn"]], op["fn"])

    def call(self, i: int, run=None):
        args, kwargs = self._args[i]
        if "argv" in self.pool[i]:
            return _replay_cli(*args, run)
        fn = self.function(i)
        if run is None:
            return fn(*args, **kwargs)
        return run(i, fn, *args, **kwargs)

    def before_op(self, i: int) -> None:
        """const-cold and every command line start on cold caches, as a fresh
        process would."""
        if self.name == "const-cold" or "argv" in self.pool[i]:
            self.mpcore.clear_caches()

    def warm_up(self) -> None:
        """const-cold: touch every op kind once at D=20 (lazy imports, mpmath's
        constant caches), then clear.  Warm workloads: fill the memo and term
        tables they read."""
        from hzeta import constants, gengamma, hurwitz, validate

        if self.name == "const-cold":
            ctx = self.mpcore.PrecisionContext(target_digits=20)
            constants.gkbj_auto(1, ctx)
            hurwitz.zeta_deriv_neg(1, ctx)
            constants.varpi(2, ctx)
            constants.kinkelin_logvarpi(ctx)
            self.mpcore.clear_caches()
        elif self.name == "hurwitz-warm":
            for ctx in self._ctx.values():
                for k in range(5):
                    hurwitz.hurwitz_deriv(k, Fraction(1, 2), ctx)
                    gengamma.log_gengamma(k, Fraction(1, 2), ctx)
        elif self.name == "identity-suite":
            ctx = self._ctx[20]
            for k in range(7):
                constants.gkbj_auto(k, ctx)
            validate.selftest("quick", ctx)
        elif self.name == "cli-replay":
            _replay_cli(["const", "-k", "1", "--digits", "20"])
            self.mpcore.clear_caches()

    @staticmethod
    def encode(result):
        if isinstance(result, dict):  # captured CLI output
            return result
        if hasattr(result, "passed"):  # CheckReport
            return [bool(result.passed), _encode(result.residual), _encode(result.tolerance),
                    result.name]
        return [_encode(result.value), _encode(result.err)]


def _timed_inprocess(work: InProcess, order, limit_s, run=None):
    """Run ops in order; returns per-op (latency, result-or-failure)."""
    out = []
    for i in order:
        work.before_op(i)
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        start = time.perf_counter()
        try:
            res = work.encode(work.call(i, run))
        except OpKilled:
            res = {"fail": "killed"}
        except Exception as exc:  # the op failed; record it and go on
            res = {"fail": "raised", "exc": type(exc).__name__, "msg": str(exc)[:200]}
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        out.append((elapsed, res))
    return out


# ---------------------------------------------------------------------------
# CLI workloads


def _cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HZETA_DIGITS"}
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    return env


def _run_process(argv, limit_s, env) -> tuple[float, dict]:
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hzeta", *argv, "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    killed = False
    try:
        stdout, stderr = proc.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        killed = True
    elapsed = time.perf_counter() - start
    return elapsed, {"rc": proc.returncode, "killed": killed, "stdout": stdout,
                     "stderr": stderr[-2000:]}


def _processes(pool, limit_s, env):
    return lambda ops: [_run_process(pool[i]["argv"], limit_s, env) for i in ops]


def _replay_cli(argv, run=None):
    """hzeta.cli.run in this process, output captured."""
    import hzeta.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        fn = hzeta.cli.run
        rc = fn([*argv, "--json"]) if run is None else run(None, fn, [*argv, "--json"])
    return {"rc": rc, "killed": False, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


# ---------------------------------------------------------------------------
# loops


def _rounds(spec, run_round) -> int:
    """Whole rounds: ``spec["rounds"]`` of them or, when the spec gives
    ``seconds``, as many as start within that time, at least 2.

    Each round's order and samples go to stdout as one JSON line when it
    ends.  A timed run's length follows the machine's speed, and this
    process's memory must not follow it, so that peak_rss_mb measures the
    library.  Returns the number of ops run.
    """
    ran = 0
    start = time.perf_counter()
    for r in itertools.count():
        if "seconds" in spec:
            if r >= 2 and time.perf_counter() - start >= spec["seconds"]:
                break
        elif r >= spec["rounds"]:
            break
        ops = round_order(spec["seed"], len(spec["pool"]), r)
        print(json.dumps({"order": ops, "samples": run_round(ops)}), flush=True)
        ran += len(ops)
    return ran


def _layer_metrics(spans, n_ops: int) -> dict:
    from perfbench.tracer import OP, summarize

    get = summarize(spans).__getitem__  # a layer that never ran reads as zeros

    per_op = 1.0 / n_ops
    m = {}
    for name in ("mpcore.bernoulli", "mpcore.bernoulli_poly", "mpcore.phi", "mpcore.harmonic",
                 "asymptotic.build_lambda_terms", "asymptotic.eval_term_poly",
                 "asymptotic.eval_lambda", "gengamma.exact_log_gengamma",
                 "gengamma.shift_log_gengamma", "constants.gkbj_auto",
                 "hurwitz.hurwitz_deriv", "hurwitz.zeta_deriv_neg", "validate.quadrature",
                 "validate.zeta_positive"):
        m[f"{name}.self_ms"] = get(name)["self_s"] * 1e3 * per_op
    bern = get("mpcore.bernoulli")
    m["mpcore.bernoulli.calls"] = bern["calls"] * per_op
    m["mpcore.bernoulli.max_index"] = bern["extra_max"]
    terms = get("asymptotic.build_lambda_terms")
    m["asymptotic.build_lambda_terms.calls"] = terms["calls"] * per_op
    # a call that builds nothing makes no child calls: it was served from the cache
    m["asymptotic.build_lambda_terms.hit_ratio"] = (
        terms["leaf_calls"] / terms["calls"] if terms["calls"] else 0.0)
    etp = get("asymptotic.eval_term_poly")
    m["asymptotic.eval_term_poly.calls"] = etp["calls"] * per_op
    m["asymptotic.eval_term_poly.tail_terms"] = etp["extra_sum"] / etp["calls"] if etp["calls"] else 0.0
    m["asymptotic.eval_lambda.too_small"] = get("asymptotic.eval_lambda")["exceptions"].get(
        "ArgumentTooSmall", 0) * per_op
    m["gengamma.exact_log_gengamma.terms"] = get("gengamma.exact_log_gengamma")["extra_sum"] * per_op
    m["gengamma.shift_log_gengamma.steps"] = get("gengamma.shift_log_gengamma")["extra_sum"] * per_op
    auto = get("constants.gkbj_auto")
    trials = auto["children"].get("constants.gkbj_constant", 0)
    # a gkbj_auto call that tries no parameters was answered from its memo
    m["constants.gkbj_auto.memo_hits"] = auto["leaf_calls"] * per_op
    m["constants.gkbj_constant.calls"] = get("constants.gkbj_constant")["calls"] * per_op
    m["constants.search.accept_ratio"] = auto["accepted_searches"] / trials if trials else 0.0
    quad = get("validate.quadrature")
    m["validate.quadrature.calls"] = quad["calls"] * per_op
    m["validate.quadrature.integrand_evals"] = quad["extra_sum"] * per_op
    m["validate.quadrature.nonconvergent"] = quad["exceptions"].get("NonConvergent", 0) * per_op
    m["op.self_ms"] = get(OP)["self_s"] * 1e3 * per_op
    return m


def _profile(spans, pool, order) -> dict:
    """Layer shares to compare with ROADMAP's profile."""
    from perfbench.tracer import self_share

    shares = {}
    l1 = [n for n, i in enumerate(order)
          if pool[i].get("fn") == "gkbj_auto" and pool[i].get("k") == 1 and pool[i]["D"] == 400]
    if l1:
        shares["bernoulli_share_of_cold_L1_D400"] = self_share(spans, "mpcore.bernoulli", l1)
    if pool and "check" in pool[0]:
        shares["eval_term_poly_share_of_suite"] = self_share(
            spans, "asymptotic.eval_term_poly", range(len(order)))
    return shares


def _interleaved(spec, run_plain, run_traced):
    """Each round both untraced and traced, alternating which goes first, so
    that slow phases of the machine and order effects fall on both alike;
    returns (order, plain, traced).

    An untimed pass over the pool comes first: the first pass after the
    warm-up still fills caches that later passes find full.
    """
    run_plain(list(range(len(spec["pool"]))))
    order, plain, traced = [], [], []
    for r in range(spec["rounds"]):
        ops = round_order(spec["seed"], len(spec["pool"]), r)
        if r % 2:
            traced += run_traced(ops)
            plain += run_plain(ops)
        else:
            plain += run_plain(ops)
            traced += run_traced(ops)
        order += ops
    return order, plain, traced


def _traced_runner(tracer):
    counter = itertools.count()

    def run(_, fn, *args, **kwargs):
        return tracer.run_op(next(counter), fn, *args, **kwargs)

    return run


def _trace_inprocess(work, spec, limit_s):
    from perfbench.tracer import Tracer

    tracer = Tracer()
    run = _traced_runner(tracer)

    def traced(ops):
        with tracer:
            return _timed_inprocess(work, ops, limit_s, run)

    order, plain, traced = _interleaved(
        spec, lambda ops: _timed_inprocess(work, ops, limit_s), traced)
    return order, plain, traced, tracer.spans


def _trace_cli(spec, limit_s, env):
    """The processes first, streamed as rounds, then the same command lines
    replayed in this process, untraced and traced."""
    pool = spec["pool"]
    _rounds(spec, _processes(pool, limit_s, env))
    work = InProcess(spec["workload"], pool)
    return _trace_inprocess(work, spec, limit_s)


def main() -> int:
    spec = json.load(sys.stdin)
    workload = WORKLOADS[spec["workload"]]
    limit_s = workload.limit_ms / 1e3
    signal.signal(signal.SIGALRM, _on_alarm)
    mode = spec["mode"]
    result: dict = {}

    if workload.in_process:
        work = InProcess(workload.name, spec["pool"])
        work.warm_up()
        result["t_ready"] = time.perf_counter()
        if mode == "run":
            _rounds(spec, lambda ops: _timed_inprocess(work, ops, limit_s))
        elif mode == "trace":
            order, plain, traced, spans = _trace_inprocess(work, spec, limit_s)
            result.update(order=order, samples=plain,
                          traced_samples=traced,
                          layers=_layer_metrics(spans, len(order)),
                          profile=_profile(spans, spec["pool"], order))
            if workload.name == "cli-replay":  # one process per command line, for cli.*
                result["process_samples"] = _processes(spec["pool"], limit_s, _cli_env())(
                    range(len(spec["pool"])))
        result["rss_kb"] = _peak_rss_kb()
    else:
        env = _cli_env()
        if mode == "setup":
            start = time.perf_counter()
            import hzeta.cli  # noqa: F401
            result["import_s"] = time.perf_counter() - start
        elif mode == "run":
            _rounds(spec, _processes(spec["pool"], limit_s, env))
        elif mode == "trace":
            order, plain, traced, spans = _trace_cli(spec, limit_s, env)
            result.update(replay_samples=plain, traced_samples=traced,
                          layers=_layer_metrics(spans, len(order)), profile={})
        # the largest CLI process; this worker, whose peak each child takes
        # over at exec, holds no hzeta and stays below them
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
