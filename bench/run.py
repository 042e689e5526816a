"""Benchmark for `ddr check` and `ddr lot`: time to verdict, conclusive and
failed shares, and per-layer spans timed from outside.

    python3 bench/run.py --workload check-random --seed 1 --seconds 20 --trace 0

Workloads (see `workloads.py`): check-random, check-structured,
finite-decide, lot-certify.  The load is a closed loop with one client in
one process and one thread: each case is the public CLI entry
`ddr.cli.main(argv)` run in process with stdout captured, timed from the
call to its return (parse, pipeline, printing and the JSON report).  A case
has a per-case budget, enforced by a real-time interval timer that raises
`BudgetExceeded`; a case over budget counts as failed and is recorded at the
budget.  The loop makes whole cycles of passes over the variant sets until
it has timed `--seconds` of cases and at least `MIN_SAMPLES`, so the p90 has
at least ten samples beyond it.

After the timed loop every report is re-checked by `gate.py`, fixture
verdicts are compared with the ones the acceptance gate pins, each input
must reach the same verdict class on every repetition, and conclusive
verdicts on isomorphic variants of one base must agree.  A fixture that
ends without a report, and valid input that raises or exits 3, fail the
gate too, except the pinned known failures.  Any gate failure prints
`"correct": false` and exits 1.

`--trace 0` prints the end-to-end metrics; `--trace 1` splits the time into
an untraced and a traced half over the same cases and prints the per-layer
metrics (times are seconds per traced case), the tracing overhead, each
layer's share of self time, the scaling series as per-size medians, and
writes every span as JSON lines under `.bench_work/`.  The last line of
stdout is always one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import gate as G
import workloads as W
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SAMPLES = 100
SETUP_REPEATS = 5
# Machine-speed reference: a fixed piece of exact-rational work, timed right
# before and right after every case.  Time metrics are reported at the speed
# where it takes REF_NOMINAL_S (see `normalized`).
REF_ITERATIONS = 1000
REF_NOMINAL_S = 0.004
# Each case is normalized by the median reference time of the cases within
# this many places of it (see `smooth_normalization`).
SMOOTH_REACH = 2


class BudgetExceeded(BaseException):
    """Raised by the interval timer inside a case.  A BaseException, so the
    CLI's `except ValueError` and the tracer's `except Exception` cannot
    swallow it."""


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def reference_seconds() -> float:
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(REF_ITERATIONS):
        acc += Fraction(i % 7, 1 + i % 5)
        table[i % 64] = (acc, i)
    return time.perf_counter() - start


def normalized(wall: float, ref: float) -> float:
    """Wall time rescaled to the nominal machine speed.

    On a host whose cores are shared with other work, speed drops by up to
    half for seconds at a time; on the 2-core host this benchmark was tuned
    on, that moved raw timings by a quarter between identical runs.
    Exact-rational Python work slows in step with `ddr`'s own, so dividing by
    the reference time measured around the same interval cancels most of
    that drift."""
    return wall * REF_NOMINAL_S / ref


@dataclass
class Outcome:
    base: str
    wall: float          # raw wall time of the call, the budget when over it
    refs: tuple[float, float]  # reference times measured just before and after
    status: str          # "ok", "over_budget", "raised"
    code: Optional[int] = None
    report: Optional[Path] = None  # the case's report, kept under a name with its digest
    error: str = ""
    span: Optional[int] = None     # the case's root span, when traced
    seconds: float = 0.0  # wall normalized to the nominal machine speed by
                          # `smooth_normalization`; the budget when over it

    @property
    def conclusive(self) -> bool:
        return self.status == "ok" and self.code in (0, 1)

    @property
    def failed(self) -> bool:
        """Over budget, raised, exit 3 on valid input, or failed the gate."""
        return self.status != "ok" or self.code == 3 or self.error != ""


def smooth_normalization(outcomes: list[Outcome]) -> None:
    """Normalize each case by the median reference time of the cases within
    SMOOTH_REACH of it.  The machine's slow spells last seconds, longer than
    a few cases, while one 4 ms reference jitters by several percent; the
    median over neighbours keeps the first and drops the second.  A case over
    budget keeps the budget as its time."""
    for i, o in enumerate(outcomes):
        if o.status == "over_budget":
            o.seconds = o.wall
        else:
            near = [r for n in outcomes[max(0, i - SMOOTH_REACH):i + SMOOTH_REACH + 1]
                    for r in n.refs]
            o.seconds = normalized(o.wall, statistics.median(near))


def run_case(cli, case, budget_s: float, tracer=None) -> Outcome:
    """Run one case through `cli.main` under the budget; keep its report."""
    sink = io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    ref_before = reference_seconds()
    root = tracer.open("case", base=case.base) if tracer is not None else None
    status, code, error = "ok", None, ""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(case.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        status = "over_budget"
    except Exception as exc:  # a traceback escaping main is a failed case
        status, error = "raised", repr(exc)
    elapsed = time.perf_counter() - start
    if root is not None:
        tracer.close(root)
    sys.stdout, sys.stderr = real_out, real_err
    wall = budget_s if status == "over_budget" else elapsed
    out = Outcome(case.base, wall, (ref_before, reference_seconds()), status, code,
                  error=error, span=root)
    if status == "ok" and code in (0, 1, 2):
        out.report = _keep_report(case.report)
    return out


def _keep_report(path: Path) -> Path:
    """Move a report aside under a name with its digest.  The gate reads it
    after the loop, so the loop holds no report in memory, and a repeated
    report is stored and re-checked once."""
    data = path.read_bytes()
    kept = path.with_suffix(f".{hashlib.sha256(data).hexdigest()[:16]}.json")
    path.replace(kept)
    return kept


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q percent of
    the values at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


# --- loading the program -------------------------------------------------------

def import_ddr():
    """Import `ddr` afresh from this checkout's `src`, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "ddr" or n.startswith("ddr.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("ddr.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ddr was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int, work: Path):
    """Generate and write the inputs, import `ddr`, warm up; timed as setup_s."""
    ref_before = reference_seconds()
    start = time.perf_counter()
    cli = import_ddr()
    sets = W.build(workload, seed, work)
    warm = next(c for c in sets[0] if not c.once)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(warm.argv)
    wall = time.perf_counter() - start
    return normalized(wall, (ref_before + reference_seconds()) / 2), cli, sets


# --- the timed loop ------------------------------------------------------------------

@dataclass
class Loop:
    outcomes: list[Outcome] = field(default_factory=list)
    keys: list[tuple[int, int]] = field(default_factory=list)   # (set, index) per outcome
    gate_failures: list[str] = field(default_factory=list)
    passes: int = 0
    # A running estimate of the normalized seconds spent in cases that
    # completed, each case scaled by its own two reference times.  It only
    # decides when the loop stops, so the number of passes follows neither
    # the machine's speed nor the fixed cost of cases over budget; the
    # reported times come from `smooth_normalization`.
    timed: float = 0.0


def timed_loop(cli, workload, sets, seconds: float, tracer=None, skip_once=False,
               min_samples: int = MIN_SAMPLES) -> Loop:
    """Passes over the variant sets, one set per pass, until `seconds` of
    cases and `min_samples` cases are timed.  The loop ends only after a
    whole cycle over the sets, which keeps every run's mix of cases the same
    (each variant set equally often), so its quantiles do not depend on where
    the clock ran out; a hard stop at three times `seconds` bounds the run."""
    loop = Loop()
    while loop.timed < 3 * seconds and (loop.passes % len(sets) or loop.timed < seconds
                                        or len(loop.outcomes) < min_samples):
        set_index = loop.passes % len(sets)
        for index, case in enumerate(sets[set_index]):
            if case.once and (loop.passes > 0 or skip_once):
                continue
            if loop.timed >= 3 * seconds:
                break
            if tracer is not None:
                tracer.active = True
            outcome = run_case(cli, case, workload.budget_s, tracer)
            if tracer is not None:
                tracer.active = False
            loop.outcomes.append(outcome)
            loop.keys.append((set_index, index))
            if outcome.status != "over_budget":
                loop.timed += normalized(outcome.wall, sum(outcome.refs) / 2)
        loop.passes += 1
    smooth_normalization(loop.outcomes)
    if tracer is not None:  # span times use the same speed factor as the case's time
        for o in loop.outcomes:
            tracer.spans[o.span].attrs["scale"] = o.seconds / o.wall
    return loop


def gate_loop(loop: Loop, sets) -> None:
    """Re-check every case of the loop once the timing is done, so that the
    re-checks' time and memory stay out of the figures.  A case that fails
    counts as failed and is listed in `loop.gate_failures`."""
    classes: dict = {}  # (set, index) -> verdict class; base -> conclusive exit code
    gated: dict[Path, Optional[str]] = {}  # kept report -> re-check result
    for (set_index, index), outcome in zip(loop.keys, loop.outcomes):
        case = sets[set_index][index]
        reason = _gate(case, outcome, classes, gated, (set_index, index))
        if reason:
            outcome.error = reason
            loop.gate_failures.append(f"{case.base} ({' '.join(case.argv)}): {reason}")


def _gate(case, outcome: Outcome, classes, gated, key) -> Optional[str]:
    if outcome.report is None:
        # Only a pinned case may end without a verdict.  A fixture must reach
        # its pinned one, and valid input must not raise or exit 3.
        ended = f"{outcome.status}, exit {outcome.code} {outcome.error}".rstrip()
        if case.expect is not None:
            return f"fixture case ended without a report ({ended})"
        if not case.once and (outcome.status == "raised" or outcome.code == 3):
            return f"valid input ended without a verdict ({ended})"
        return None
    report = json.loads(outcome.report.read_text(encoding="utf-8"))
    verdict_class = (outcome.code, tuple((c["method"], c["verdict"])
                                          for c in report["certificates"]))
    first = classes.setdefault(key, verdict_class)
    if first != verdict_class:
        return f"verdict class {verdict_class} differs from an earlier repetition's {first}"
    # Isomorphic variants may differ in UNKNOWN against conclusive (the coset
    # limit counts cosets defined, which depends on the generator order), but
    # two conclusive verdicts on one base must agree.
    if outcome.code in (0, 1):
        seen = classes.setdefault(case.base, outcome.code)
        if seen != outcome.code:
            return f"exit {outcome.code} contradicts exit {seen} on an isomorphic variant"
    if case.expect is not None and not case.expect(outcome.code, report):
        return f"fixture verdicts differ from the acceptance gate: {verdict_class}"
    if outcome.report not in gated:
        try:
            gated[outcome.report] = G.check(case, outcome.code, report)
        except Exception as exc:  # a re-check that crashes has not passed
            gated[outcome.report] = f"re-check raised {exc!r}"
    return gated[outcome.report]


# --- end-to-end metrics ----------------------------------------------------------------

def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    times = [o.seconds for o in loop.outcomes]
    completed = sum(1 for o in loop.outcomes if o.status != "over_budget")
    attempted = len(loop.outcomes)
    return {
        "setup_s": (setup_s, "s"),
        "verdict_p50_s": (statistics.median(times), "s"),
        "verdict_p90_s": (percentile(times, 90), "s"),
        "cases_per_s": (completed / sum(times), "1/s"),
        "conclusive_share": (sum(o.conclusive for o in loop.outcomes) / attempted, "ratio"),
        "failed_share": (sum(o.failed for o in loop.outcomes) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# failed_share is printed but left out of the result line: it is 0 on three of
# the four workloads, and every result-line metric must be nonzero.  The result
# line carries the same facts as `failed` and `attempted`.
RESULT_METRICS = ("setup_s", "verdict_p50_s", "verdict_p90_s", "cases_per_s",
                  "conclusive_share", "peak_rss_mb")


# --- tracing ----------------------------------------------------------------------------

def _corners(p) -> int:
    return sum(len(r) for r in p.relators)


TRACE_TARGETS = [
    ("ddr.cli", "derive_consequences", "cli.derive_consequences", None),
    ("ddr.certificates", "Report.to_json", "certificates.to_json", None),
    ("ddr.core", "parse_presentation", "core.parse_presentation", None),
    ("ddr.whitehead", "build_whitehead", "whitehead.build_whitehead", None),
    ("ddr.whitehead", "min_weight_reduced_cycle", "whitehead.min_weight_reduced_cycle", None),
    ("ddr.whitehead", "is_forest", "whitehead.is_forest", None),
    ("ddr.whitehead", "shortest_reduced_cycle_in_range",
     "whitehead.shortest_reduced_cycle_in_range", None),
    ("ddr.smallcancel", "piece_table", "smallcancel.piece_table",
     lambda a, k, r: {"corners": _corners(a[0])}),
    ("ddr.smallcancel", "certify_s44", "smallcancel.certify_s44", None),
    ("ddr.weights", "search_weights", "weights.search_weights",
     lambda a, k, r: {"feasible": r is not None}),
    ("ddr.weights", "solve_feasibility", "weights.solve_feasibility",
     lambda a, k, r: {"rows": len(a[1])}),
    ("ddr.weights", "verify_weight_test", "weights.verify_weight_test",
     lambda a, k, r: {"corners": _corners(a[0])}),
    ("ddr.cayley", "decide_finite", "cayley.decide_finite", None),
    ("ddr.cayley", "coset_enumeration", "cayley.coset_enumeration",
     lambda a, k, r: {"order": None if r is None else r.element_count}),
    ("ddr.cayley", "build_cayley_complex", "cayley.build_cayley_complex",
     lambda a, k, r: {"cells": len(r.cells)}),
    ("ddr.cayley", "directed_collapse", "cayley.directed_collapse",
     lambda a, k, r: {"steps": len(r.steps),
                      "order": len(a[0]) // max(1, len(a[1].relators))}),
    ("ddr.lot", "sub_lots", "lot.sub_lots", lambda a, k, r: {"edges": len(a[0].edges)}),
    ("ddr.lot", "certify_lot", "lot.certify_lot", None),
    ("ddr.lot", "reorient_positive_tree", "lot.reorient_positive_tree", None),
]

# span name -> the per-layer metric its self time belongs to
SELF_METRIC = {
    "cli.derive_consequences": "cli.consequences_s",
    "certificates.to_json": "certificates.to_json_s",
    "core.parse_presentation": "core.parse_s",
    "whitehead.build_whitehead": "whitehead.build_s",
    "whitehead.min_weight_reduced_cycle": "whitehead.cycle_s",
    "whitehead.is_forest": "whitehead.forest_s",
    "whitehead.shortest_reduced_cycle_in_range": "whitehead.tq_s",
    "smallcancel.piece_table": "smallcancel.piece_table_s",
    "smallcancel.certify_s44": "smallcancel.s44_self_s",
    "weights.search_weights": "weights.search_self_s",
    "weights.solve_feasibility": "weights.lp_solve_s",
    "weights.verify_weight_test": "weights.verify_self_s",
    "cayley.decide_finite": "cayley.decide_self_s",
    "cayley.coset_enumeration": "cayley.enum_s",
    "cayley.build_cayley_complex": "cayley.build_s",
    "cayley.directed_collapse": "cayley.collapse_s",
    "lot.sub_lots": "lot.sub_lots_s",
    "lot.certify_lot": "lot.certify_self_s",
    "lot.reorient_positive_tree": "lot.reorient_s",
}
IN_CONSEQUENCES = "weights.search_in_consequences_s"


class Spans:
    """Read-only views over a tracer's spans.  Durations are rescaled by
    their case's speed normalization, like the end-to-end times."""

    def __init__(self, tracer):
        self.spans = tracer.spans
        self.by_name: dict[str, list[int]] = defaultdict(list)
        self.scale: list[float] = []
        for i, s in enumerate(self.spans):
            self.by_name[s.name].append(i)
            self.scale.append(s.attrs.get("scale", 1.0) if s.parent < 0
                              else self.scale[s.parent])

    def duration(self, i: int) -> float:
        return self.spans[i].duration * self.scale[i]

    def self_time(self, i: int) -> float:
        return self.spans[i].self_time * self.scale[i]

    def ancestors(self, i: int):
        parent = self.spans[i].parent
        while parent >= 0:
            yield parent
            parent = self.spans[parent].parent

    def total(self, name: str, where=lambda i: True) -> float:
        return sum(self.duration(i) for i in self.by_name[name] if where(i))

    def count(self, name: str, where=lambda i: True) -> int:
        return sum(1 for i in self.by_name[name] if where(i))

    def attr(self, name: str, key: str) -> list:
        return [self.spans[i].attrs[key] for i in self.by_name[name]
                if self.spans[i].attrs.get(key) is not None]

    def search_in_consequences(self, i: int) -> Optional[int]:
        """The outermost search_weights span at or above span i whose caller
        chain includes derive_consequences or certify_lot, if any."""
        chain = [i, *self.ancestors(i)]
        names = [self.spans[j].name for j in chain]
        for k, name in enumerate(names):
            if name == "weights.search_weights" and any(
                    n in ("cli.derive_consequences", "lot.certify_lot") for n in names[k:]):
                return chain[k]
        return None


def layer_metrics(tracer, cases: int) -> tuple[dict, dict[str, float]]:
    """Per-layer metrics (times in seconds per traced case) and each layer's
    self time, with searches under consequences grouped on their own."""
    v = Spans(tracer)
    per = lambda x: x / cases if cases else 0.0
    ratio = lambda a, b: a / b if b else 0.0
    med = lambda xs: statistics.median(xs) if xs else 0
    searches = v.by_name["weights.search_weights"]
    lp = v.by_name["weights.solve_feasibility"]
    lp_time = v.total("weights.solve_feasibility")
    cuts = []
    for s in searches:
        rows = [v.spans[i].attrs["rows"] for i in lp
                if v.spans[i].parent == s and "rows" in v.spans[i].attrs]
        if rows:
            cuts.append(max(rows) - min(rows))
    enum_orders = [v.spans[i].attrs.get("order", "x") for i in v.by_name["cayley.coset_enumeration"]]
    m = {
        "cli.consequences_s": (per(v.total("cli.derive_consequences")), "s"),
        "certificates.to_json_s": (per(v.total("certificates.to_json")), "s"),
        "core.parse_s": (per(v.total("core.parse_presentation")), "s"),
        "whitehead.build_calls": (per(v.count("whitehead.build_whitehead")), "count"),
        "whitehead.build_s": (per(v.total("whitehead.build_whitehead")), "s"),
        "whitehead.cycle_calls": (per(v.count("whitehead.min_weight_reduced_cycle")), "count"),
        "whitehead.cycle_s": (per(v.total("whitehead.min_weight_reduced_cycle")), "s"),
        "whitehead.forest_s": (per(v.total("whitehead.is_forest")), "s"),
        "whitehead.tq_s": (per(v.total("whitehead.shortest_reduced_cycle_in_range")), "s"),
        "smallcancel.piece_table_calls": (per(v.count("smallcancel.piece_table")), "count"),
        "smallcancel.piece_table_s": (per(v.total("smallcancel.piece_table")), "s"),
        "smallcancel.s44_self_s": (per(sum(v.self_time(i)
                                           for i in v.by_name["smallcancel.certify_s44"])), "s"),
        "smallcancel.cross_check_failures": (v.count(
            "smallcancel.certify_s44",
            lambda i: v.spans[i].attrs.get("error") == "WEIGHT_CROSS_CHECK_FAILED"), "count"),
        "weights.search_calls": (per(len(searches)), "count"),
        "weights.search_s": (per(v.total("weights.search_weights")), "s"),
        "weights.lp_rounds": (ratio(len(lp), len(searches)), "count"),
        "weights.lp_solve_s": (per(lp_time), "s"),
        "weights.lp_ms_per_round": (ratio(1000 * lp_time, len(lp)), "ms"),
        "weights.cuts": (ratio(sum(cuts), len(cuts)), "count"),
        "weights.separation_s": (per(v.total(
            "whitehead.min_weight_reduced_cycle",
            lambda i: v.spans[v.spans[i].parent].name == "weights.search_weights")), "s"),
        "weights.feasible_ratio": (ratio(sum(v.attr("weights.search_weights", "feasible")),
                                         len(searches)), "ratio"),
        "weights.verify_s": (per(v.total("weights.verify_weight_test")), "s"),
        IN_CONSEQUENCES: (per(v.total(
            "weights.search_weights", lambda i: v.search_in_consequences(i) == i)), "s"),
        "cayley.enum_s": (per(v.total("cayley.coset_enumeration")), "s"),
        "cayley.enum_overflow_ratio": (ratio(enum_orders.count(None), len(enum_orders)),
                                       "ratio"),
        "cayley.group_order": (med(v.attr("cayley.coset_enumeration", "order")), "count"),
        "cayley.build_s": (per(v.total("cayley.build_cayley_complex")), "s"),
        "cayley.cells": (med(v.attr("cayley.build_cayley_complex", "cells")), "count"),
        "cayley.collapse_s": (per(v.total("cayley.directed_collapse")), "s"),
        "cayley.collapse_steps": (med(v.attr("cayley.directed_collapse", "steps")), "count"),
        "lot.sub_lots_calls": (per(v.count("lot.sub_lots")), "count"),
        "lot.sub_lots_s": (per(v.total("lot.sub_lots")), "s"),
        "lot.certify_self_s": (per(sum(v.self_time(i)
                                       for i in v.by_name["lot.certify_lot"])), "s"),
        "lot.reorient_s": (per(v.total("lot.reorient_positive_tree")), "s"),
    }
    self_times: dict[str, float] = defaultdict(float)
    for i, s in enumerate(v.spans):
        if s.name == "case":
            continue
        name = IN_CONSEQUENCES if v.search_in_consequences(i) is not None else SELF_METRIC[s.name]
        self_times[name] += per(v.self_time(i))
    return m, dict(self_times)


def scaling_series(tracer) -> dict[str, dict]:
    """Per-size medians: sub_lots by edges, collapse by |G|, piece table and
    verify by corners, LP milliseconds by round number within a search."""
    v = Spans(tracer)
    series: dict[str, dict] = {}

    def by(name: str, key: str, label: str):
        groups: dict[int, list[float]] = defaultdict(list)
        for i in v.by_name[name]:
            if key in v.spans[i].attrs:
                groups[v.spans[i].attrs[key]].append(1000 * v.duration(i))
        if groups:
            series[label] = {k: (statistics.median(ts), len(ts)) for k, ts in sorted(groups.items())}

    by("lot.sub_lots", "edges", "lot.sub_lots ms by edges")
    by("cayley.directed_collapse", "order", "cayley.collapse ms by |G|")
    by("smallcancel.piece_table", "corners", "smallcancel.piece_table ms by corners")
    by("weights.verify_weight_test", "corners", "weights.verify ms by corners")
    rounds: dict[int, list[float]] = defaultdict(list)
    seen: dict[int, int] = defaultdict(int)
    for i in v.by_name["weights.solve_feasibility"]:
        parent = v.spans[i].parent
        seen[parent] += 1
        rounds[seen[parent]].append(1000 * v.duration(i))
    if rounds:
        series["weights.lp ms by round"] = {k: (statistics.median(ts), len(ts))
                                            for k, ts in sorted(rounds.items())}
    return series


# --- main -----------------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            try:
                seconds, cli, sets = setup(workload, args.seed, work)
            except ImportError as exc:
                print(f"error: cannot import ddr from {SRC}: {exc}", file=sys.stderr)
                return 2
            setups.append(seconds)
        setup_s = statistics.median(setups)
        if args.trace:
            metrics, loop = traced_run(cli, workload, sets, args)
        else:
            loop = timed_loop(cli, workload, sets, args.seconds)
            # read before the gate runs: the figure covers import, set-up and
            # the timed cases, not the re-checks
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            gate_loop(loop, sets)
            metrics = end_to_end(loop, setup_s, peak_rss_mb)
            _print_end_to_end(workload, args, loop, metrics)
            metrics = {k: metrics[k] for k in RESULT_METRICS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in loop.gate_failures:
        print(f"GATE FAILURE: {failure}")
    result = {
        "correct": not loop.gate_failures,
        "attempted": len(loop.outcomes),
        "failed": sum(o.failed for o in loop.outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _print_end_to_end(workload, args, loop: Loop, metrics) -> None:
    over = sum(o.status == "over_budget" for o in loop.outcomes)
    walls = [o.wall for o in loop.outcomes]
    ref_ms = 1000 * statistics.median(r for o in loop.outcomes for r in o.refs)
    print(f"workload {workload.name} seed {args.seed}: {len(loop.outcomes)} cases in "
          f"{loop.passes} passes, {sum(o.seconds for o in loop.outcomes):.1f} s timed; "
          f"closed loop, 1 client; "
          f"budget {workload.budget_s} s per case, {over} over budget")
    print(f"times below are normalized to a {1000 * REF_NOMINAL_S:g} ms reference "
          f"(median measured {ref_ms:.3f} ms); raw wall p50 {statistics.median(walls):.6g} s, "
          f"p90 {percentile(walls, 90):.6g} s, sum {sum(walls):.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:18} {value:12.6g} {unit}")
    for o in loop.outcomes:
        if o.failed:
            print(f"failed: {o.base} {o.status} {o.error}".rstrip())


def traced_run(cli, workload, sets, args):
    """Untraced half, then traced half over the same cases; the per-layer
    metrics come from the traced half."""
    half = args.seconds / 2
    plain = timed_loop(cli, workload, sets, half, skip_once=True, min_samples=0)
    tracer = Tracer()
    tracer.active = False
    tracer.install(TRACE_TARGETS)
    try:
        traced = timed_loop(cli, workload, sets, half, tracer=tracer, min_samples=0)
    finally:
        tracer.remove()
    cases = len(traced.outcomes)
    metrics, self_times = layer_metrics(tracer, cases)
    # overhead over the cases both halves ran, matched by (set, index)
    plain_t = dict(zip(plain.keys, (o.seconds for o in plain.outcomes)))
    pairs = [(plain_t[k], o.seconds) for k, o in zip(traced.keys, traced.outcomes)
             if k in plain_t and o.status == "ok"]
    overhead = sum(t for _, t in pairs) / sum(p for p, _ in pairs) if pairs else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.cases_per_s"] = (
        sum(o.status != "over_budget" for o in traced.outcomes)
        / sum(o.seconds for o in traced.outcomes), "1/s")
    WORK.mkdir(exist_ok=True)
    spans_file = WORK / f"spans-{workload.name}-{args.seed}.jsonl"
    tracer.write_jsonl(spans_file)

    print(f"workload {workload.name} seed {args.seed}: traced {cases} cases, "
          f"untraced {len(plain.outcomes)}; spans in {spans_file.relative_to(ROOT)}")
    print(f"tracing overhead: traced/untraced time over {len(pairs)} matched cases "
          f"= {overhead:.3f}")
    ranked = sorted(self_times.items(), key=lambda kv: -kv[1])
    case_s = sum(o.seconds for o in traced.outcomes) / cases if cases else 0.0
    for name, seconds in ranked[:8]:
        print(f"self time {name:36} {seconds:10.6f} s/case  "
              f"{100 * seconds / case_s if case_s else 0:5.1f}%")
    top = ranked[0][0] if ranked else None
    verdict = "confirmed" if top in workload.dominant else "NOT confirmed"
    print(f"predicted dominant layer {' or '.join(workload.dominant)}: {verdict} "
          f"(largest: {top})")
    for label, points in scaling_series(tracer).items():
        print(f"scaling {label}: " + ", ".join(f"{k}: {ms:.3f} (n={n})"
                                                for k, (ms, n) in points.items()))
    # Listed here only where the metric's layer recorded spans; the result
    # line carries every per-layer metric on every workload.
    ran = {s.name.split(".")[0] for s in tracer.spans} | {"trace"}
    for name, (value, unit) in metrics.items():
        if name.split(".")[0] in ran:
            print(f"{name:36} {value:12.6g} {unit}")
    merged = Loop(plain.outcomes + traced.outcomes, plain.keys + traced.keys,
                  passes=plain.passes + traced.passes)
    gate_loop(merged, sets)
    return metrics, merged


if __name__ == "__main__":
    sys.exit(main())
