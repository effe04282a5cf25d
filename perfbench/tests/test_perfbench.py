"""Tests of the benchmark itself: generator, oracle checker, deadlines, tracer."""

import json
import signal
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import oracle as orc  # noqa: E402
from perfbench import run, worker  # noqa: E402
from perfbench.workloads import GENERATORS, WORKLOADS, generate, round_order  # noqa: E402


# -- seeded generator ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_inputs(name):
    assert generate(name, 7) == generate(name, 7)
    assert [round_order(7, 30, r) for r in range(3)] == [round_order(7, 30, r) for r in range(3)]


@pytest.mark.parametrize("name", ["hurwitz-warm", "cli-oneshot", "cli-defects"])
def test_other_seed_other_inputs(name):
    assert generate(name, 1) != generate(name, 2)


def test_hurwitz_pool_distinct_rationals_in_both_bands():
    pool = generate("hurwitz-warm", 3)
    ws = [Fraction(op["w"]) for op in pool]
    assert len(set(ws)) == len(ws)
    assert all(w.denominator > 1 for w in ws)
    assert sum(w < 4 for w in ws) == sum(w > 30 for w in ws) == len(ws) // 2


def test_identity_suite_matches_selftest_full():
    from hzeta import validate

    pool = generate("identity-suite", 1)
    assert len(pool) == 63
    assert all(callable(getattr(validate, op["check"])) for op in pool)


def test_every_workload_records_why_and_exclusions():
    for workload in WORKLOADS.values():
        assert workload.why and workload.excludes and "\n" not in workload.why


# -- oracle and checker -------------------------------------------------------


def test_oracle_self_check_passes():
    assert orc.oracle_self_check() == []


def test_oracle_self_check_catches_a_wrong_constant(monkeypatch):
    o = orc.Oracle()
    real = o.L
    monkeypatch.setattr(o, "L", lambda k, d: real(k, d) + mpmath.mpf("1e-30"))
    assert orc.oracle_self_check(o)


def test_checker_accepts_good_value_and_rejects_bad_digits_and_dishonest_err():
    o = orc.Oracle()
    digits = 20
    ref = o.L(1, digits)
    with mpmath.workdps(digits + orc.GUARD_DIGITS):
        near = ref + mpmath.mpf("3e-35")
        assert orc.check_value(near, mpmath.mpf("1e-30"), ref, digits) is None
        perturbed = ref + 2 * mpmath.mpf(10) ** (-digits)  # last digit off by 2
        assert orc.check_value(perturbed, mpmath.mpf(1), ref, digits) == "wrong value"
        assert orc.check_value(near, mpmath.mpf("1e-36"), ref, digits) == "dishonest err"


def test_check_slack_uses_only_tolerances_built_from_error_estimates():
    assert orc.check_slack_dex("stabilization", "1e-36", "1e-28") == pytest.approx(8.0)
    assert orc.check_slack_dex("stabilization", "0.0", "1e-28") is None
    assert orc.check_slack_dex("jeffery-difference", "1e-37", "1e-29") is None
    assert orc.check_slack_dex("log-coefficient", "1", "0.5") is None


def _cli_sample(records, rc=0, killed=False, stderr=""):
    return {"rc": rc, "killed": killed, "stderr": stderr,
            "stdout": "".join(json.dumps(r) + "\n" for r in records)}


def test_cli_checker_rejects_perturbed_last_printed_digit():
    o = orc.Oracle()
    op = {"argv": ["const", "-k", "1", "--digits", "20"], "D": 20}
    with mpmath.workdps(60):
        good = mpmath.nstr(o.L(1, 20), 20, strip_zeros=False)
    record = {"quantity": "L", "k": 1, "w_or_x": None, "value": good, "err_estimate": "1e-21"}
    assert orc.check_cli(op, _cli_sample([record]), o)[0] is None
    digits = list(good)
    digits[-1] = str((int(digits[-1]) + 2) % 10)
    bad = dict(record, value="".join(digits))
    assert orc.check_cli(op, _cli_sample([bad]), o)[0] == "wrong value"


def test_cli_failures_are_attributed_to_known_defects():
    assert orc.cli_failure_cause(["dz", "-k", "1"], 20, "exit 1",
                                 "NameError: name 'to_mpf' is not defined") == "dz-nameerror"
    assert orc.cli_failure_cause(["const", "-k", "12"], 20, "killed", "") == "order-ceiling"
    assert orc.cli_failure_cause(["const", "-k", "7"], 100, "exit 1",
                                 "no (w <= 1000000, tail <= 200) reaches err <= 1e-100") \
        == "order-ceiling"
    assert orc.cli_failure_cause(["hz", "-k", "0", "-w", "3/7"], 100, "wrong value", "") \
        == "precision-cap"
    assert orc.cli_failure_cause(["hz", "-k", "0", "-w", "3/7"], 20, "wrong value", "") == "other"
    assert orc.cli_failure_cause(["const", "-k", "2"], 20, "killed", "") == "other"


# -- deadlines ------------------------------------------------------------------


def test_killed_process_counts_as_failed_at_the_latency_limit(monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = ["const", "-k", "12", "--digits", "20"]  # runs for seconds on the seed
    elapsed, sample = worker._run_process(argv, 0.5, worker._cli_env())
    assert sample["killed"] and elapsed < 5
    op = {"argv": argv, "D": 20}
    reason, cause, _ = orc.check_cli(op, sample, orc.Oracle())
    assert (reason, cause) == ("killed", "order-ceiling")
    samples = [(elapsed, sample), (0.2, {}), (0.1, {})]
    assert run.op_latencies_ms([0, 1, 1], samples, [False, True, True], 3000.0) == \
        [150.0, 3000.0]


def test_inprocess_op_is_cut_at_the_latency_limit():
    pool = [{"fn": "gkbj_auto", "k": 2, "D": 400}]
    work = worker.InProcess("const-cold", pool)
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        [(elapsed, res)] = worker._timed_inprocess(work, [0], 0.001)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert res == {"fail": "killed"}


def test_command_lines_replay_through_the_inprocess_loop(monkeypatch):
    monkeypatch.chdir(ROOT)
    op = {"argv": ["const", "-k", "1", "--digits", "20"], "D": 20}
    work = worker.InProcess("cli-oneshot", [op])
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        [(elapsed, res)] = worker._timed_inprocess(work, [0], 10.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert res["rc"] == 0
    assert orc.check_cli(op, res, orc.Oracle())[0] is None


# -- tracer ---------------------------------------------------------------------


def _bindings():
    return {(name, attr): value for name, module in sorted(sys.modules.items())
            if name == "hzeta" or name.startswith("hzeta.")
            for attr, value in vars(module).items() if callable(value)}


def test_tracer_restores_bindings_and_keeps_values_bit_identical():
    import hzeta
    from perfbench.tracer import Tracer, summarize

    ctx = hzeta.PrecisionContext(target_digits=20)
    hzeta.clear_caches()
    plain = hzeta.hurwitz_deriv(2, Fraction(3, 7), ctx)
    before = _bindings()
    hzeta.clear_caches()
    with Tracer() as tracer:
        assert hzeta.constants.gkbj_auto is not before[("hzeta.constants", "gkbj_auto")]
        traced = tracer.run_op(0, hzeta.hurwitz.hurwitz_deriv, 2, Fraction(3, 7), ctx)
    assert _bindings() == before
    assert (traced.value, traced.err) == (plain.value, plain.err)
    summary = summarize(tracer.spans)
    assert summary["hurwitz.hurwitz_deriv"]["calls"] == 1
    assert summary["asymptotic.eval_term_poly"]["calls"] == 1
    assert summary["gengamma.shift_log_gengamma"]["extra_sum"] > 0
    total = sum(v["self_s"] for v in summary.values())
    root = tracer.spans[0]
    assert total == pytest.approx(root[2] - root[1], rel=1e-9)


def test_traced_metrics_are_the_declared_per_layer_metrics():
    layer = set(worker._layer_metrics([], 1))
    layer |= {"cli.import_ms", "cli.run_ms", "cli.process_overhead_ms", "trace.overhead_frac"}
    assert layer == set(run.declared_metrics()["per_layer"])
