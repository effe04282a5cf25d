"""Outside-in tracer for hzeta's layers.

The tracer rebinds each traced public function, in every ``hzeta`` module
that holds a reference to it, to a wrapper that records a span
``[name, start, end, parent, op, extra, exception]`` in memory.  Nothing in
``src/`` changes: calls between modules go through module globals, so the
rebinding sees them.  ``restore()`` puts every binding back.

A layer's self time is its spans' durations minus the time their direct
child spans cover.  Counters are derived from spans only (arguments,
results, child structure), never from the library's private state.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function): the layers named in perfbench/README.md
TARGETS = (
    ("mpcore", "bernoulli"),
    ("mpcore", "bernoulli_poly"),
    ("mpcore", "phi"),
    ("mpcore", "harmonic"),
    ("asymptotic", "build_lambda_terms"),
    ("asymptotic", "eval_term_poly"),
    ("asymptotic", "eval_lambda"),
    ("gengamma", "exact_log_gengamma"),
    ("gengamma", "shift_log_gengamma"),
    ("constants", "gkbj_auto"),
    ("constants", "gkbj_constant"),
    ("hurwitz", "hurwitz_deriv"),
    ("hurwitz", "zeta_deriv_neg"),
    ("validate", "quadrature"),
    ("validate", "zeta_positive"),
)

OP = "op"
NAME, START, END, PARENT, OPID, EXTRA, EXC = range(7)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# extra = a number recorded on the span after the call returns
_EXTRA = {
    "mpcore.bernoulli": lambda a, kw, res: _arg(a, kw, 0, "n"),
    "asymptotic.eval_term_poly": lambda a, kw, res: res[2],
    "gengamma.exact_log_gengamma": lambda a, kw, res: max(0, _arg(a, kw, 1, "w") - 1),
    "gengamma.shift_log_gengamma": lambda a, kw, res: _arg(a, kw, 2, "n"),
}


class Tracer:
    """Context manager: install on enter, restore on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hzeta" or name.startswith("hzeta."))]
        for mod_name, fn_name in TARGETS:
            original = getattr(sys.modules[f"hzeta.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans ------------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(name)
        counts_evals = name == "validate.quadrature"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None, None]
            stack.append(len(spans))
            spans.append(span)
            if counts_evals:
                integrand = args[0]
                span[EXTRA] = 0

                def counted(x):
                    span[EXTRA] += 1
                    return integrand(x)

                args = (counted,) + args[1:]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[EXC] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                span[START] = start
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def run_op(self, op_id, fn, *args, **kwargs):
        """Call ``fn`` as the root span of op ``op_id``."""
        self._op = op_id
        span = [OP, 0.0, 0.0, -1, op_id, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[EXC] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            span[START] = start
            self._stack.pop()
            self._op = None


def _totals() -> dict:
    return {"self_s": 0.0, "calls": 0, "extra_sum": 0, "extra_max": 0,
            "exceptions": defaultdict(int), "leaf_calls": 0, "accepted_searches": 0,
            "children": defaultdict(int)}


def summarize(spans: list[list]) -> dict:
    """Per-layer totals from a span list.

    Returns a defaultdict ``{name: {"self_s", "calls", "extra_sum", "extra_max",
    "exceptions", "leaf_calls", "accepted_searches", "children"}}``:
    ``leaf_calls`` counts spans without child spans, ``accepted_searches``
    the ``gkbj_auto`` spans that tried parameters and returned, and
    ``children`` maps child span names to counts.
    """
    child_time = [0.0] * len(spans)
    child_count = [0] * len(spans)
    child_names: list = [None] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
            child_count[parent] += 1
            if child_names[parent] is None:
                child_names[parent] = defaultdict(int)
            child_names[parent][span[NAME]] += 1
    out: dict = defaultdict(_totals)
    for i, span in enumerate(spans):
        s = out[span[NAME]]
        s["self_s"] += (span[END] - span[START]) - child_time[i]
        s["calls"] += 1
        if span[EXTRA] is not None:
            s["extra_sum"] += span[EXTRA]
            s["extra_max"] = max(s["extra_max"], span[EXTRA])
        if span[EXC] is not None:
            s["exceptions"][span[EXC]] += 1
        if child_count[i] == 0:
            s["leaf_calls"] += 1
        names = child_names[i] or {}
        for child, n in names.items():
            s["children"][child] += n
        if span[NAME] == "constants.gkbj_auto" and names.get("constants.gkbj_constant") \
                and span[EXC] is None:
            s["accepted_searches"] += 1
    return out


def self_share(spans: list[list], layer: str, op_ids) -> float:
    """Share of the root-op time of ``op_ids`` spent in ``layer``'s own code."""
    op_ids = set(op_ids)
    sub = [i for i, s in enumerate(spans) if s[OPID] in op_ids]
    index = {old: new for new, old in enumerate(sub)}
    local = [list(spans[i]) for i in sub]
    for span in local:
        span[PARENT] = index.get(span[PARENT], -1)
    summary = summarize(local)
    total = sum(v["self_s"] for v in summary.values())
    return summary[layer]["self_s"] / total if total else 0.0
