"""The directed weight test: verification and LP search.

All arithmetic is exact (fractions end to end, solver included): the test's
inequalities are sharp, and a floating-point weight sitting on a constraint
boundary could not be certified.

Constraint layout for the search: variables are corner-edge weights with
static constraints

  * w >= 0 everywhere,
  * w >= 1 on edges joining two vertices derived from the directed-away
    subset, w >= 1/2 on edges touching exactly one,
  * per relator, the corner sum is at most length - 2.

The reduced-cycle condition (every reduced cycle weighs >= 2) has one
inequality per cycle, exponentially many, so it is enforced lazily: solve,
ask the minimum-reduced-cycle search for a violated cycle, add that cycle's
inequality, repeat.  Only dart-simple cycles are ever produced, there are
finitely many, and a repeat cut is an internal error, so the loop terminates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import Presentation, check_preconditions
from .whitehead import WhiteheadGraph, build_whitehead, min_weight_reduced_cycle


class WeightError(ValueError):
    def __init__(self, message: str, *, code: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class WeightAssignment:
    """Exact rational weight per corner edge; the domain must cover every
    edge of the target graph and all weights are nonnegative."""

    weights: Mapping[int, Fraction]

    @staticmethod
    def unit(graph: WhiteheadGraph) -> "WeightAssignment":
        return WeightAssignment({e.id: Fraction(1) for e in graph.edges})

    def check_against(self, graph: WhiteheadGraph) -> None:
        missing = [e.id for e in graph.edges if e.id not in self.weights]
        if missing:
            raise WeightError(f"weights missing for edges {missing}", code="BAD_DOMAIN")
        for eid, w in self.weights.items():
            if Fraction(w) < 0:
                raise WeightError(f"negative weight on edge {eid}", code="NEGATIVE_WEIGHT")

    def serialize(self) -> str:
        lines = []
        for eid in sorted(self.weights):
            w = Fraction(self.weights[eid])
            lines.append(f"w {eid} {w.numerator}/{w.denominator}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "WeightAssignment":
        weights: dict[int, Fraction] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] != "w":
                raise WeightError(f"line {lineno}: expected 'w <edge> <p>/<q>'", code="SYNTAX")
            try:
                eid = int(parts[1])
                weights[eid] = Fraction(parts[2])
            except (ValueError, ZeroDivisionError) as exc:
                raise WeightError(f"line {lineno}: {exc}", code="SYNTAX") from exc
        return WeightAssignment(weights)


@dataclass(frozen=True)
class ConditionReport:
    condition: int
    passed: bool
    description: str
    witness: object = None


@dataclass(frozen=True)
class WeightCertificate:
    subset: frozenset[str]
    assignment: WeightAssignment
    reports: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_json_dict(self) -> dict:
        return {
            "subset": sorted(self.subset),
            "weights": {str(k): f"{Fraction(v).numerator}/{Fraction(v).denominator}"
                        for k, v in sorted(self.assignment.weights.items())},
            "conditions": [
                {"condition": r.condition, "passed": r.passed,
                 "description": r.description,
                 "witness": _json_witness(r.witness)}
                for r in self.reports
            ],
            "passed": self.passed,
        }


def _json_witness(w):
    if w is None or isinstance(w, (int, str)):
        return w
    if isinstance(w, Fraction):
        return f"{w.numerator}/{w.denominator}"
    if isinstance(w, (tuple, list)):
        return [_json_witness(x) for x in w]
    return str(w)


def verify_weight_test(p: Presentation, subset, assignment: WeightAssignment,
                       graph: WhiteheadGraph | None = None) -> WeightCertificate:
    """Check the four weight-test conditions exactly; every condition is
    evaluated even after an earlier one fails, so the certificate carries a
    complete picture."""
    s = check_preconditions(p, subset, WeightError)
    if graph is None:
        graph = build_whitehead(p)
    assignment.check_against(graph)
    w = {e.id: Fraction(assignment.weights[e.id]) for e in graph.edges}

    c1_bad = None
    c2_bad = None
    for e in graph.edges:
        in_s = (e.a.gen in s) + (e.b.gen in s)
        if in_s == 2 and w[e.id] < 1 and c1_bad is None:
            c1_bad = e.id
        if in_s == 1 and w[e.id] < Fraction(1, 2) and c2_bad is None:
            c2_bad = e.id
    report1 = ConditionReport(1, c1_bad is None,
                              "edges between subset-derived vertices weigh >= 1", c1_bad)
    report2 = ConditionReport(2, c2_bad is None,
                              "edges touching exactly one subset-derived vertex weigh >= 1/2",
                              c2_bad)

    cycle = min_weight_reduced_cycle(graph, w)
    c3_ok = cycle.weight is None or cycle.weight >= 2
    report3 = ConditionReport(3, c3_ok, "every reduced cycle weighs >= 2",
                              None if c3_ok else (cycle.weight, cycle.cycle))

    c4_bad = None
    for r_idx, rel in enumerate(p.relators):
        total = sum(w[e.id] for e in graph.edges if e.relator_index == r_idx)
        if total > len(rel) - 2:
            c4_bad = (r_idx, total)
            break
    report4 = ConditionReport(4, c4_bad is None,
                              "per relator, corner weights sum to at most length - 2", c4_bad)

    return WeightCertificate(s, assignment, (report1, report2, report3, report4))


def search_weights(p: Presentation, subset, *,
                   max_rounds: int = 10000) -> Optional[WeightCertificate]:
    """Cutting-plane search for a satisfying assignment.

    Returns the verified certificate of the assignment found, or None when
    the linear program is infeasible.  None does not refute anything: the
    weight test is sufficient, not necessary.
    """
    s = check_preconditions(p, subset, WeightError)
    graph = build_whitehead(p)
    n = len(graph.edges)
    constraints: list[tuple[dict[int, Fraction], str, Fraction]] = []
    for e in graph.edges:
        in_s = (e.a.gen in s) + (e.b.gen in s)
        if in_s == 2:
            constraints.append(({e.id: Fraction(1)}, ">=", Fraction(1)))
        elif in_s == 1:
            constraints.append(({e.id: Fraction(1)}, ">=", Fraction(1, 2)))
    for r_idx, rel in enumerate(p.relators):
        coeffs: dict[int, Fraction] = {}
        for e in graph.edges:
            if e.relator_index == r_idx:
                coeffs[e.id] = coeffs.get(e.id, Fraction(0)) + 1
        constraints.append((coeffs, "<=", Fraction(len(rel) - 2)))

    seen_cuts: set[tuple[tuple[int, int], ...]] = set()
    for _ in range(max_rounds):
        point = solve_feasibility(n, constraints)
        if point is None:
            return None
        weights = {e.id: point[e.id] for e in graph.edges}
        cycle = min_weight_reduced_cycle(graph, weights)
        if cycle.weight is None or cycle.weight >= 2:
            cert = verify_weight_test(p, s, WeightAssignment(weights), graph)
            if not cert.passed:
                raise AssertionError("search produced an assignment the verifier rejects")
            return cert
        usage = Counter(d // 2 for d in cycle.cycle)
        key = tuple(sorted(usage.items()))
        if key in seen_cuts:
            raise AssertionError(f"separation produced a repeated cut {key}")
        seen_cuts.add(key)
        constraints.append(({eid: Fraction(mult) for eid, mult in usage.items()},
                            ">=", Fraction(2)))
    raise RuntimeError("cutting-plane loop exceeded max_rounds")


# A small exact simplex, phase one only: we need any feasible point.
def solve_feasibility(num_vars: int,
                      constraints: list[tuple[dict[int, Fraction], str, Fraction]],
                      ) -> Optional[list[Fraction]]:
    """Feasibility of {x >= 0, constraints} via a phase-1 simplex with
    Bland's rule (exact Fractions, guaranteed termination).  Returns one
    feasible point or None."""
    rows = []
    for coeffs, sense, rhs in constraints:
        if sense not in ("<=", ">="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        coeffs = {v: Fraction(c) for v, c in coeffs.items()}
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = {v: -c for v, c in coeffs.items()}
            rhs = -rhs
            sense = "<=" if sense == ">=" else ">="
        rows.append((coeffs, sense, rhs))

    ncols = num_vars
    slack_col = []
    art_col: list[Optional[int]] = []
    for _, sense, _ in rows:
        slack_col.append(ncols)
        ncols += 1
    for _, sense, _ in rows:
        art_col.append(ncols if sense == ">=" else None)
        if sense == ">=":
            ncols += 1

    table: list[list[Fraction]] = []
    rhs_col: list[Fraction] = []
    basis: list[int] = []
    for i, (coeffs, sense, rhs) in enumerate(rows):
        row = [Fraction(0)] * ncols
        for v, c in coeffs.items():
            row[v] += c
        row[slack_col[i]] = Fraction(1) if sense == "<=" else Fraction(-1)
        if art_col[i] is not None:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        table.append(row)
        rhs_col.append(rhs)

    # reduced costs for minimize(sum of artificials)
    z = [Fraction(0)] * ncols
    zval = Fraction(0)
    artificials = {c for c in art_col if c is not None}
    for c in artificials:
        z[c] = Fraction(1)
    for i, b in enumerate(basis):
        if b in artificials:
            for j in range(ncols):
                z[j] -= table[i][j]
            zval -= rhs_col[i]

    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(len(table)):
            a = table[i][enter]
            if a > 0:
                ratio = rhs_col[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded; constraints malformed")
        piv = table[leave][enter]
        table[leave] = [x / piv for x in table[leave]]
        rhs_col[leave] /= piv
        for i in range(len(table)):
            if i != leave and table[i][enter] != 0:
                f = table[i][enter]
                table[i] = [x - f * y for x, y in zip(table[i], table[leave])]
                rhs_col[i] -= f * rhs_col[leave]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y for x, y in zip(z, table[leave])]
            zval -= f * rhs_col[leave]
        basis[leave] = enter

    if -zval > 0:
        return None
    point = [Fraction(0)] * num_vars
    for i, b in enumerate(basis):
        if b < num_vars:
            point[b] = rhs_col[i]
    return point
