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
inequality per cycle, exponentially many, so it is enforced lazily: each
round asks the reduced-cycle sweep for every cycle below 2 at the current
point, one per start dart, and adds their inequalities as cuts, lightest
first, skipping a cycle that the cuts added before it in the round already
lift to 2 (a repeat of one of them included).  Only dart-simple cycles are
ever produced, there are finitely many, and a repeat cut is an internal
error, so the loop terminates.

One exact tableau (`Tableau`) serves the whole search.  It works in the
shifted variables y = w - lower bound, so its all-slack start basis is
feasible, and each cut costs a few pivots from the last basis instead of a
solve from nothing.  When the program turns out infeasible, the tableau's
Farkas multipliers are checked exactly against the original rows before the
search reports it.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import BudgetSpent, DdrError, Presentation, check_preconditions, _significant_lines
from .whitehead import WhiteheadGraph, min_weight_reduced_cycle, reduced_cycles_below


# a linear row: coefficients by variable, "<=" or ">=", right-hand side
Constraint = tuple[Mapping[int, Fraction], str, Fraction]
# search_weights gives up with BudgetSpent after this many rounds of cuts
MAX_SEARCH_ROUNDS = 10000
# a weight in a file is <p>/<q> or an integer: Fraction() alone also takes
# exponent notation, and its time to parse "1e999999999" has no useful bound
_WEIGHT_RE = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


@dataclass(frozen=True)
class WeightAssignment:
    """Exact rational weight per corner edge; the domain must be exactly the
    edges of the target graph and all weights are nonnegative."""

    weights: Mapping[int, Fraction]

    def check_against(self, graph: WhiteheadGraph) -> None:
        missing = [e.id for e in graph.edges if e.id not in self.weights]
        if missing:
            raise DdrError(f"weights missing for edges {missing}", code="BAD_DOMAIN")
        extra = sorted(set(self.weights) - {e.id for e in graph.edges})
        if extra:
            raise DdrError(f"weights given for edges the graph lacks: {extra}",
                           code="BAD_DOMAIN")
        for eid, w in self.weights.items():
            if Fraction(w) < 0:
                raise DdrError(f"negative weight on edge {eid}", code="NEGATIVE_WEIGHT")

    def serialize(self) -> str:
        lines = []
        for eid in sorted(self.weights):
            w = Fraction(self.weights[eid])
            lines.append(f"w {eid} {w.numerator}/{w.denominator}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "WeightAssignment":
        """Read `w <edge> <weight>` lines; a fault names its line and column."""
        weights: dict[int, Fraction] = {}
        for lineno, tokens in _significant_lines(text):
            parts = [token for token, _, _ in tokens]
            where = {"code": "SYNTAX", "line": lineno, "column": tokens[0][2]}
            if len(parts) != 3 or parts[0] != "w" or not _WEIGHT_RE.match(parts[2]):
                raise DdrError("expected 'w <edge> <p>/<q>'", **where)
            try:
                eid = int(parts[1])
                weight = Fraction(parts[2])
            except (ValueError, ZeroDivisionError) as exc:
                raise DdrError(str(exc), **where) from exc
            if eid in weights:
                raise DdrError(f"edge {eid} already has a weight", **where)
            weights[eid] = weight
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


def verify_weight_test(p: Presentation, subset, assignment: WeightAssignment) -> WeightCertificate:
    """Check the four weight-test conditions exactly; every condition is
    evaluated even after an earlier one fails, so the certificate carries a
    complete picture."""
    s = check_preconditions(p, subset)
    graph = p.whitehead
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

    # the exact minimum is needed only for the witness of a failure
    c3_ok = next(reduced_cycles_below(graph, w, 2), None) is None
    witness = None
    if not c3_ok:
        cycle = min_weight_reduced_cycle(graph, w)
        witness = (cycle.weight, cycle.cycle)
    report3 = ConditionReport(3, c3_ok, "every reduced cycle weighs >= 2", witness)

    c4_bad = None
    for r_idx, rel in enumerate(p.relators):
        total = sum(w[eid] for eid in graph.relator_edges[r_idx])
        if total > len(rel) - 2:
            c4_bad = (r_idx, total)
            break
    report4 = ConditionReport(4, c4_bad is None,
                              "per relator, corner weights sum to at most length - 2", c4_bad)

    return WeightCertificate(s, assignment, (report1, report2, report3, report4))


def search_weights(p: Presentation, subset) -> Optional[WeightCertificate]:
    """Cutting-plane search for a satisfying assignment.

    Returns the verified certificate of the assignment found, or None when
    the linear program is infeasible.  None does not refute anything: the
    weight test is sufficient, not necessary.  Raises BudgetSpent
    after `MAX_SEARCH_ROUNDS` rounds.
    """
    s = check_preconditions(p, subset)
    graph = p.whitehead
    # per edge its lower bound 0, 1/2 or 1; the tableau solves for y = w - lower
    lower = {e.id: Fraction((e.a.gen in s) + (e.b.gen in s), 2) for e in graph.edges}
    tableau = Tableau(len(graph.edges))
    constraints: list[Constraint] = []  # the rows added so far, in w

    def add(coeffs: dict[int, Fraction], sense: str, rhs: Fraction) -> bool:
        constraints.append((coeffs, sense, rhs))
        return tableau.add_row(coeffs, sense,
                               rhs - sum(c * lower[v] for v, c in coeffs.items()))

    def current() -> dict[int, Fraction]:
        point = tableau.point()
        return {e.id: lower[e.id] + point[e.id] for e in graph.edges}

    feasible = all(add({eid: Fraction(1) for eid in graph.relator_edges[r_idx]},
                       "<=", Fraction(len(rel) - 2))
                   for r_idx, rel in enumerate(p.relators))
    seen_cuts: set[tuple[tuple[int, int], ...]] = set()
    for _ in range(MAX_SEARCH_ROUNDS):
        if not feasible:
            _check_infeasibility_proof(lower, constraints, tableau)
            return None
        weights = current()
        cycles = sorted(reduced_cycles_below(graph, weights, 2), key=lambda c: c.weight)
        if not cycles:
            cert = verify_weight_test(p, s, WeightAssignment(weights))
            if not cert.passed:
                raise AssertionError("search produced an assignment the verifier rejects")
            return cert
        # Lightest first.  A cycle that the round's earlier cuts already lift
        # to weight 2 (a repeat of one of them, say) is left for a later round.
        for cycle in cycles:
            usage = Counter(d // 2 for d in cycle.cycle)
            if sum(m * weights[eid] for eid, m in usage.items()) >= 2:
                continue
            key = tuple(sorted(usage.items()))
            if key in seen_cuts:
                raise AssertionError(f"separation produced a repeated cut {key}")
            seen_cuts.add(key)
            feasible = add({eid: Fraction(m) for eid, m in usage.items()}, ">=", Fraction(2))
            if not feasible:
                break
            weights = current()
    raise BudgetSpent(f"weight search spent its budget of {MAX_SEARCH_ROUNDS} "
                      "cutting-plane rounds; the test is sufficient, not necessary, "
                      "so this refutes nothing")


def _check_infeasibility_proof(lower: Mapping[int, Fraction], constraints: list[Constraint],
                               tableau: "Tableau") -> None:
    """Raise AssertionError unless the tableau's Farkas multipliers prove the
    original rows in w, lower bounds included, have no nonnegative solution."""
    row_mults, bound_mults = tableau.farkas()
    bounds = [({v: Fraction(1)}, ">=", lower[v]) for v in range(len(bound_mults))]
    if not farkas_refutes(constraints + bounds, row_mults + bound_mults):
        raise AssertionError("search found the program infeasible without a valid "
                             "Farkas certificate")


def farkas_refutes(constraints: list[Constraint], multipliers: list[Fraction]) -> bool:
    """Whether the multipliers prove {x >= 0, constraints} infeasible.

    Each row is first written as a >= row (a <= row is negated); a
    nonnegative combination of them whose every coefficient is <= 0 but
    whose right-hand side is > 0 has no nonnegative solution.
    """
    if len(multipliers) != len(constraints) or any(m < 0 for m in multipliers):
        return False
    combined: dict[int, Fraction] = {}
    total = Fraction(0)
    for (coeffs, sense, rhs), m in zip(constraints, multipliers):
        sign = -1 if sense == "<=" else 1
        for v, c in coeffs.items():
            combined[v] = combined.get(v, Fraction(0)) + sign * m * c
        total += sign * m * rhs
    return all(c <= 0 for c in combined.values()) and total > 0


# Column that labels a row's artificial variable while it is basic; it is the
# first column in Bland's order, so it leaves the basis as soon as it reaches 0.
_ARTIFICIAL = -1


class Tableau:
    """An exact simplex tableau over {x >= 0} that takes its rows one at a
    time and keeps a feasible basis between them.

    Each row is stored as >= with a surplus column: a.x - s = b.  Tableau row
    i reads x[basis[i]] + sum(rows[i][j] * x[j]) = rhs[i] over the nonbasic
    columns j, which sit at 0, so the current point is x[basis[i]] = rhs[i].
    Columns 0..num_vars-1 are the variables, later columns the surpluses in
    the order their rows came.

    A new row that the current point satisfies enters with its surplus
    basic, without a pivot.  A violated row enters with one artificial
    variable, and a phase 1 with Bland's rule drives that artificial to 0
    from the current basis.  Every pivot keeps all rows feasible, and Bland's
    rule (smallest column first, on entering and on ties in leaving)
    guarantees termination.  If the artificial cannot reach 0, the system is
    infeasible, and the artificial row carries a Farkas proof (`farkas`);
    the tableau takes no further rows then.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.rows: list[dict[int, Fraction]] = []
        self.rhs: list[Fraction] = []
        self.basis: list[int] = []
        self.where: dict[int, int] = {}  # basic column -> its row
        self.surplus: list[int] = []  # per added row, its surplus column
        self.feasible = True

    def add_row(self, coeffs: Mapping[int, Fraction], sense: str, rhs: Fraction) -> bool:
        """Add the row `coeffs . x (sense) rhs` and restore a feasible basis;
        return whether the rows so far have a common nonnegative solution."""
        if sense not in ("<=", ">="):
            raise ValueError(f"unknown constraint sense {sense!r}")
        if not self.feasible:
            raise ValueError("the tableau is already infeasible")
        sign = -1 if sense == "<=" else 1
        # a.x written over the nonbasic columns: value + sum(d[j] * x[j])
        value = Fraction(0)
        d: dict[int, Fraction] = {}
        for v, c in coeffs.items():
            c = sign * Fraction(c)
            i = self.where.get(v)
            if i is None:
                d[v] = d.get(v, Fraction(0)) + c
                continue
            value += c * self.rhs[i]
            for j, t in self.rows[i].items():
                d[j] = d.get(j, Fraction(0)) - c * t
        b = sign * Fraction(rhs)
        s = self.num_vars + len(self.surplus)
        self.surplus.append(s)
        d = {j: c for j, c in d.items() if c != 0}
        if value >= b:
            self._append({j: -c for j, c in d.items()}, value - b, s)
            return True
        # a.x - s + art = b, so art + d.x - s = b - value > 0
        d[s] = Fraction(-1)
        r = len(self.rows)
        self._append(d, b - value, _ARTIFICIAL)
        while True:
            # minimizing art = rhs[r] - sum(rows[r][j] * x[j]): any column with a
            # positive entry in its row may enter, the smallest first (Bland)
            enter = min((j for j, c in self.rows[r].items() if c > 0), default=None)
            if enter is None:
                self.feasible = False
                return False
            leave = min((i for i, row in enumerate(self.rows) if row.get(enter, 0) > 0),
                        key=lambda i: (self.rhs[i] / self.rows[i][enter], self.basis[i]))
            self._pivot(leave, enter)
            if leave == r:
                for row in self.rows:
                    row.pop(_ARTIFICIAL, None)
                return True

    def _append(self, row: dict[int, Fraction], rhs: Fraction, basic: int) -> None:
        self.where[basic] = len(self.rows)
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic)

    def _pivot(self, leave: int, enter: int) -> None:
        row = self.rows[leave]
        piv = row.pop(enter)
        old = self.basis[leave]
        row = {j: c / piv for j, c in row.items()}
        row[old] = 1 / piv
        rhs = self.rhs[leave] / piv
        self.rows[leave], self.rhs[leave] = row, rhs
        for i, other in enumerate(self.rows):
            f = other.pop(enter, None)
            if f is None:
                continue
            for j, c in row.items():
                x = other.get(j, 0) - f * c
                if x:
                    other[j] = x
                else:
                    other.pop(j, None)
            self.rhs[i] -= f * rhs
        del self.where[old]
        self.where[enter] = leave
        self.basis[leave] = enter

    def point(self) -> list[Fraction]:
        """The current basic feasible point, one value per variable."""
        return [self.rhs[self.where[j]] if j in self.where else Fraction(0)
                for j in range(self.num_vars)]

    def farkas(self) -> tuple[list[Fraction], list[Fraction]]:
        """For an infeasible tableau, the phase-1 reduced costs of the last
        (artificial) row: one multiplier per added row, on its >= form, and
        one per variable, on its bound x >= 0."""
        art_row = self.rows[-1]
        return ([-art_row.get(s, Fraction(0)) for s in self.surplus],
                [-art_row.get(j, Fraction(0)) for j in range(self.num_vars)])


def solve_feasibility(num_vars: int, constraints: list[Constraint],
                      ) -> Optional[list[Fraction]]:
    """Feasibility of {x >= 0, constraints}, the rows added one at a time to
    one `Tableau`.  Returns one feasible point or None."""
    tableau = Tableau(num_vars)
    if all(tableau.add_row(*row) for row in constraints):
        return tableau.point()
    return None
