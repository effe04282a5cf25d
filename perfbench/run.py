"""hzeta benchmark: entry point.

    python3 perfbench/run.py --workload const-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  Each workload runs in a fresh interpreter
(``python -m perfbench.worker``) against ``src/hzeta`` of this checkout;
this process generates the inputs from the seed, computes the oracle
values (never timed), launches the worker, checks every result and prints
the metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import mpmath  # noqa: E402

from perfbench import oracle as orc  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    LAYER_EXPECTATIONS,
    TIMED_WORKLOADS,
    UNGATED_WORKLOADS,
    WORKLOADS,
    generate,
)

SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 120  # a whole run must end within 180 s


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for ``end_to_end`` and ``per_layer``, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def environment() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": commit,
    }


def _worker(spec: dict) -> tuple[dict, float]:
    """Launch a fresh worker; returns its result and the launch time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("HZETA_DIGITS", None)
    # perf_counter is CLOCK_MONOTONIC, shared with the worker, so the worker's
    # timestamps compare with this one
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker"], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {spec['workload']} passed {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker for {spec['workload']} exited {proc.returncode}:\n{err[-3000:]}")
    *rounds, last = out.splitlines()
    result = json.loads(last)
    for line in rounds:
        part = json.loads(line)
        result.setdefault("order", []).extend(part["order"])
        result.setdefault("samples", []).extend(part["samples"])
    return result, spawned


def _setup_samples(name: str, pool, seed: int, count: int) -> list[float]:
    spec = {"workload": name, "mode": "setup", "seed": seed, "pool": pool}
    samples = []
    for _ in range(count):
        res, spawned = _worker(spec)
        samples.append(res["import_s"] if "import_s" in res else res["t_ready"] - spawned)
    return samples


# ---------------------------------------------------------------------------
# checking


def _decode(t) -> mpmath.mpf:
    # exact: mpf(tuple) would round to the ambient precision
    return mpmath.mp.make_mpf(tuple(t))


class Verdicts:
    """Checks samples against the oracle; identical results are checked once."""

    def __init__(self, pool, oracle) -> None:
        self.pool = pool
        self.oracle = oracle
        self._memo: dict = {}
        self.causes: Counter = Counter()
        self.details: Counter = Counter()
        self.slacks: list[float] = []

    def inprocess(self, i: int, res) -> bool:
        key = (i, json.dumps(res))
        if key not in self._memo:
            self._memo[key] = self._check_inprocess(self.pool[i], res)
        reason, cause, slack = self._memo[key]
        if slack is not None:
            self.slacks.append(slack)
        return self._record(self.pool[i], reason, cause)

    def _check_inprocess(self, op, res):
        if isinstance(res, dict):
            reason = res["fail"] if res["fail"] == "killed" else f"raised {res['exc']}"
            return reason, orc.op_failure_cause(op, reason, res.get("exc")), None
        if "check" in op:
            if not res[0]:
                return "check failed", "other", None
            return None, None, orc.check_slack_dex(res[3], _decode(res[1]), _decode(res[2]))
        value, err = _decode(res[0]), _decode(res[1])
        ref = self.oracle.for_op(op)
        reason = orc.check_value(value, err, ref, op["D"])
        if reason is not None:
            return reason, orc.op_failure_cause(op, reason), None
        return None, None, orc.err_slack_dex(value, err, ref, op["D"])

    def cli(self, i: int, res) -> bool:
        reason, cause, slacks = orc.check_cli(self.pool[i], res, self.oracle)
        self.slacks += slacks
        return self._record(self.pool[i], reason, cause)

    def _record(self, op, reason, cause) -> bool:
        if reason is None:
            return True
        self.causes[cause] += 1
        label = " ".join(op["argv"]) if "argv" in op else json.dumps(op, sort_keys=True)
        self.details[f"{cause}: {reason}: {label}"] += 1
        return False

    def check(self, i: int, res) -> bool:
        if "argv" not in self.pool[i]:
            return self.inprocess(i, res)
        if "fail" in res:  # an in-process replay raised or was cut at the limit
            res = {"rc": None, "killed": res["fail"] == "killed", "stdout": "",
                   "stderr": f"{res.get('exc')}: {res.get('msg')}"}
        return self.cli(i, res)


def _precompute_oracle(pool, oracle) -> None:
    """Fill the oracle memo before anything is timed."""
    for op in pool:
        if "fn" in op:
            oracle.for_op(op)
        elif "argv" in op:
            for quantity, k, arg in orc.expected_records(op["argv"]):
                oracle.for_record(quantity, k, arg, op["D"])


def per_op_ms(order, samples, stat=statistics.median) -> dict[int, float]:
    """Each distinct op's repetitions in the run reduced by ``stat``, in ms.

    The latency metrics take the median repetition.  On the shared 2-vCPU
    machine the benchmark was tuned on, identical work runs about 1.8x
    faster in short bursts that come and go, and in most seconds not at
    all.  The median repetition stays in the common, slower state; the
    fastest repetition depends on whether a burst fell on one of the op's
    few repetitions.  Over 30 s windows of one 150 s run, the quartile
    spread of lat_p90_ms was 0.08 (const-cold), 0.04 (identity-suite) and
    0.06 (cli-replay) at the median repetition, against 0.27, 0.08 and 0.26
    at the fastest.
    """
    times: dict[int, list[float]] = {}
    for i, (elapsed, _) in zip(order, samples):
        times.setdefault(i, []).append(elapsed * 1e3)
    return {i: stat(t) for i, t in times.items()}


def op_latencies_ms(order, samples, ok, limit_ms: float, stat=statistics.median) -> list[float]:
    """Sorted per-op latencies, or the limit for an op with a failed repetition."""
    failed = {i for i, good in zip(order, ok) if not good}
    return sorted(limit_ms if i in failed else t
                  for i, t in per_op_ms(order, samples, stat).items())


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (result object, report lines)."""
    workload = WORKLOADS[name]
    pool = generate(name, seed)
    oracle = orc.Oracle()
    problems = orc.oracle_self_check(oracle)
    if problems:
        raise BenchError("oracle self-check failed: " + "; ".join(problems))
    _precompute_oracle(pool, oracle)

    setup = _setup_samples(name, pool, seed,
                           SETUP_SAMPLES if not workload.in_process else SETUP_SAMPLES - 1)
    spec = {"workload": name, "mode": "trace" if trace else "run", "seed": seed, "pool": pool}
    if trace:  # each round runs twice, untraced and traced, an even number of times
        spec["rounds"] = 2 * max(1, round(seconds / 6 / workload.round_s))
    else:
        spec["seconds"] = seconds
    res, spawned = _worker(spec)
    if workload.in_process:
        setup.append(res["t_ready"] - spawned)

    verdicts = Verdicts(pool, oracle)
    order, samples = res["order"], res["samples"]
    ok = [verdicts.check(i, s) for i, (_, s) in zip(order, samples)]
    correct = sum(ok)
    attempted = len(order)
    lines = [f"workload {name}: seed={seed} seconds={seconds} trace={int(trace)}",
             f"  why: {workload.why}", f"  excludes: {workload.excludes}",
             f"  environment: {json.dumps(environment(), sort_keys=True)}"]

    if not trace:
        lat = op_latencies_ms(order, samples, ok, workload.limit_ms)
        lat_min = op_latencies_ms(order, samples, ok, workload.limit_ms, min)
        lines.append(f"  at the fastest repetition (not gated): lat_p50_ms "
                     f"{statistics.median(lat_min):.6g}, lat_p90_ms "
                     f"{_quantile(lat_min, 0.90):.6g}")
        metrics = {
            "lat_p50_ms": statistics.median(lat),
            "lat_p90_ms": _quantile(lat, 0.90),
            "goodput_ops_s": correct / sum(elapsed for elapsed, _ in samples),
            "ok_frac": correct / attempted,
            "err_slack_dex": statistics.median(verdicts.slacks) if verdicts.slacks else 0.0,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["rss_kb"] / 1024,
        }
        units = declared_metrics()["end_to_end"]
        mismatches = 0
    else:
        # `import hzeta.cli` in fresh interpreters: cli-oneshot's set-up samples
        import_samples = setup if name == "cli-oneshot" else (
            _setup_samples("cli-oneshot", pool, seed, SETUP_SAMPLES)
            if name == "cli-replay" else [])
        metrics, mismatches = _trace_metrics(workload, res, import_samples)
        units = declared_metrics()["per_layer"]
        for key, share in sorted(res["profile"].items()):
            lines.append(f"  profile {key}: {share:.3f}")

    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are not the ones "
                         "BENCHMARK.json declares")
    failed = attempted - correct + mismatches
    lines.append(f"  ops: attempted={attempted} correct={correct} failed={failed} "
                 f"latency limit {workload.limit_ms:g} ms ({len(samples)} samples)")
    lines.append(f"  failures by cause: {json.dumps(dict(verdicts.causes), sort_keys=True)}")
    for detail, count in verdicts.details.most_common(10):
        lines.append(f"    {count} x {detail}")
    if mismatches:
        lines.append(f"  traced results differing from untraced ones: {mismatches}")
    for key, value in metrics.items():
        lines.append(f"  {key:42s} {value:14.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def _trace_metrics(workload, res, import_samples):
    """Per-layer metrics plus the count of traced results that differ.

    Times are per distinct op at its median repetition, as end to end.
    """
    order, samples, traced = res["order"], res["samples"], res["traced_samples"]

    def mean_op_ms(runs):
        times = per_op_ms(order, runs)
        return sum(times.values()) / len(times)

    def same(*results):
        if any("stdout" in r for r in results):  # CLI; selftest records carry run times
            return len({json.dumps(orc.cli_output(r.get("stdout", ""))) for r in results}) == 1
        return all(r == results[0] for r in results)

    metrics = dict(res["layers"])
    metrics.update({"cli.import_ms": 0.0, "cli.run_ms": 0.0, "cli.process_overhead_ms": 0.0})
    proc_ms = None
    if workload.in_process:
        mismatches = sum(not same(a[1], b[1]) for a, b in zip(samples, traced))
        plain_ms = mean_op_ms(samples)
        if "process_samples" in res:  # cli-replay: one process per command line
            procs = res["process_samples"]
            replayed = dict(zip(order, (s[1] for s in samples)))
            mismatches += sum(not same(p[1], replayed[i]) for i, p in enumerate(procs))
            proc_ms = sum(p[0] for p in procs) * 1e3 / len(procs)
    else:
        replay = res["replay_samples"]
        mismatches = sum(not same(p[1], r[1], t[1]) for p, r, t in zip(samples, replay, traced))
        plain_ms = mean_op_ms(replay)
        proc_ms = mean_op_ms(samples)
    if proc_ms is not None:
        import_ms = statistics.median(import_samples) * 1e3
        metrics.update({"cli.import_ms": import_ms, "cli.run_ms": plain_ms,
                        "cli.process_overhead_ms": proc_ms - plain_ms - import_ms})
    metrics["trace.overhead_frac"] = mean_op_ms(traced) / plain_ms - 1
    return metrics, mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "hzeta" / "__init__.py").is_file():
        print(f"perfbench: no hzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, lines = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        return _run_all(args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def _run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, the defect probe, and the table of
    which end-to-end metric each layer metric should move."""
    summary = {}
    for name in (*TIMED_WORKLOADS, *UNGATED_WORKLOADS):
        for trace in (False, True):
            result, lines = run_workload(name, seed, seconds, trace)
            print("\n".join(lines), flush=True)
            summary[f"{name}/trace={int(trace)}"] = result
    result, lines = run_workload("cli-defects", seed, seconds, False)
    print("\n".join(lines))
    summary["cli-defects"] = result
    print("layer metric -> end-to-end metric it should move | on workload | no move on")
    for layer, e2e, where, no_move in LAYER_EXPECTATIONS:
        print(f"  {layer} -> {e2e} | {where} | {no_move or '-'}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
