"""Alternating benchmark pairs of this checkout against a parent checkout.

    python tools/pairs.py PARENT_DIR --workload identity-suite --workload cli-replay \
        --pairs 10 --seconds 50 --out OUT.json

For each workload W, each pair runs ``python3 perfbench/run.py --workload W
--seed N --seconds S --trace 0`` (``--seed``, default 1) once in PARENT_DIR
and once in this checkout (the one holding this script), the parent first
in odd pairs and the change first in even ones, so that a drift of the host
falls on both sides alike.  For each end-to-end metric of ``BENCHMARK.json``
it then prints, per workload, the per-pair values (parent/change), both
medians, the parent's quartiles and the number of pairs the change won, by
the metric's direction, and ends the workload's report with one verdict per
metric: "claim met" (the change won at least 9 pairs in 10 and the medians
differ by more than the parent's quartile spread), "unresolved" (that
spread exceeds the metric's bound, a fraction of the parent's median, and
the runs overlap), or "within bound" or "beyond bound" (the change's median
against the parent's).  ``--out PATH`` also writes the benchmark record in
the layout of the ``BENCH_*.json`` files: the command, the host, a note,
and for each side its commit ("unknown" outside a git checkout) and the
last pair's result line per workload.  Neither checkout is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import mpmath

CHANGE = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result line of one untraced perfbench run in a checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def stats(better: str, parent: list, change: list) -> tuple:
    """``(pairs won, parent median, change median, parent quartiles q1, q3)``."""
    wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return wins, statistics.median(parent), statistics.median(change), q1, q3


def summary(name: str, better: str, parent: list, change: list) -> str:
    """One metric's line: per-pair values, medians, parent quartiles, pairs won."""
    wins, med_p, med_c, q1, q3 = stats(better, parent, change)
    rel = f"{100 * (med_c / med_p - 1):+.1f}%" if med_p else "n/a"
    pairs = ", ".join(f"{p:.5g}/{c:.5g}" for p, c in zip(parent, change))
    return (f"{name} ({better} is better): {pairs}; median {med_p:.5g} -> {med_c:.5g} ({rel}),"
            f" parent quartiles {q1:.4g}-{q3:.4g} (spread {q3 - q1:.3g}),"
            f" change better in {wins} of {len(parent)}")


def verdict(better: str, bound: float, parent: list, change: list) -> str:
    """One metric's verdict: "claim met" when the change won at least 9 pairs in
    10 and the medians differ by more than the parent's quartile spread;
    otherwise "unresolved" when that spread exceeds the bound (a fraction of the
    parent's median, from BENCHMARK.json) and not every run of the change reads
    better than every run of the parent, else "within bound" or "beyond bound"
    by how much worse the change's median is than the parent's."""
    wins, med_p, med_c, q1, q3 = stats(better, parent, change)
    if 10 * wins >= 9 * len(parent) and abs(med_c - med_p) > q3 - q1:
        return "claim met"
    apart = min(change) > max(parent) if better == "higher" else max(change) < min(parent)
    if q3 - q1 > bound * abs(med_p) and not apart:
        return "unresolved"
    worse = med_p - med_c if better == "higher" else med_c - med_p
    return "within bound" if worse <= bound * abs(med_p) else "beyond bound"


def host() -> str:
    """The host as the benchmark record names it: CPUs, Python and mpmath."""
    return (f"{os.cpu_count()}-vCPU host, Python {platform.python_version()},"
            f" mpmath {mpmath.__version__} ({mpmath.libmp.BACKEND} backend)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to run; give it once per workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the benchmark record here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    last: dict[str, dict] = {"parent": {}, "change": {}}
    for workload in args.workload:
        results: dict[str, list] = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run_once(sides[side], workload, args.seconds, args.seed))
            print(f"{workload}: pair {i + 1} of {args.pairs} done", file=sys.stderr, flush=True)
        verdicts = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"].get(name, {}).get("value") for r in results[side]]
                      for side in sides}
            if None not in values["parent"] + values["change"]:
                print(f"{workload} " + summary(name, metric["better"], values["parent"],
                                                values["change"]))
                verdicts.append(f"{name} " + verdict(metric["better"], metric["bound"],
                                                      values["parent"], values["change"]))
        print(f"{workload} verdicts: " + "; ".join(verdicts))
        for side in sides:
            last[side][workload] = results[side][-1]
    if args.out:
        workloads = args.workload[0] if len(args.workload) == 1 else f"{{{','.join(args.workload)}}}"
        record = {"command": f"python3 perfbench/run.py --workload {workloads} --seed {args.seed}"
                             f" --seconds {args.seconds:g} --trace 0",
                  "host": host(),
                  "note": f"one result line per side and workload, the last of {args.pairs}"
                          f" alternating parent/change pairs at seed {args.seed} on each workload"
                          " (tools/pairs.py), parent first in odd pairs",
                  **{side: {"commit": commit(path), **last[side]} for side, path in sides.items()}}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
