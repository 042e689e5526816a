"""Piece computation and the small-cancellation certificate, the one place
that decides C(4), C(6) and T(4).

Pieces are longest common prefixes between distinct symmetrized occurrences.
Distinctness is by provenance (source relator, inverted flag, rotation), not
by word value: duplicate relators and rotations of a proper power count as
distinct occurrences, so a proper power is its own piece.

T(q) is operationalized on the star graph (the corner multigraph): no
reduced cycle of length L with 3 <= L < q.  Length-2 cycles through parallel
corners are deliberately excluded; they are priced separately by the weight
construction, which cross-checks the whole certificate against the exact
weight-test verifier, so a wrong operationalization fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .certificates import CERTIFIED_DR_AWAY_FROM, UNKNOWN, Certificate
from .core import DdrError, Presentation, Word, check_preconditions, inverse_word, rotate_word
from .weights import WeightAssignment, verify_weight_test
# build_whitehead is unused here; bench/test_harness.py checks its tracer rebinds it
from .whitehead import build_whitehead, shortest_reduced_cycle_in_range

T_Q_CONVENTION = ("T(q) checked on the star graph as: no reduced cycle of length L "
                  "with 3 <= L < q; length-2 cycles through parallel corners are "
                  "handled by the weight construction instead.")


@dataclass(frozen=True)
class SymmetrizedRelator:
    source_index: int
    rotation: int
    inverted: bool
    word: Word

    @property
    def provenance(self) -> tuple[int, bool, int]:
        return (self.source_index, self.inverted, self.rotation)


def symmetrized_closure(p: Presentation) -> tuple[SymmetrizedRelator, ...]:
    """All rotations of all relators and their inverses, with provenance;
    2|r| entries per relator."""
    check_preconditions(p)
    out = []
    for idx, rel in enumerate(p.relators):
        for inverted in (False, True):
            base = inverse_word(rel) if inverted else rel
            for rot in range(len(rel)):
                out.append(SymmetrizedRelator(idx, rot, inverted, rotate_word(base, rot)))
    return tuple(out)


def _common_prefix_length(u: Word, v: Word) -> int:
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return n


@dataclass(frozen=True)
class PieceTable:
    """max_piece[provenance] = longest common prefix of that occurrence with
    any occurrence of different provenance, over the symmetrized closure it
    was built from."""

    lengths: dict[tuple[int, bool, int], int]
    word_lengths: dict[int, int]  # relator index -> |r|
    closure: tuple[SymmetrizedRelator, ...]

    def max_piece_length(self, element: SymmetrizedRelator, start: int) -> int:
        n = self.word_lengths[element.source_index]
        prov = (element.source_index, element.inverted, (element.rotation + start) % n)
        return self.lengths[prov]


def piece_table(p: Presentation) -> PieceTable:
    closure = symmetrized_closure(p)
    lengths = {e.provenance: 0 for e in closure}
    # in sorted order an occurrence's longest common prefix with any other
    # is attained at a neighbour
    ordered = sorted(closure, key=lambda e: [(l.gen, l.sign) for l in e.word])
    for e, f in zip(ordered, ordered[1:]):
        lcp = _common_prefix_length(e.word, f.word)
        lengths[e.provenance] = max(lengths[e.provenance], lcp)
        lengths[f.provenance] = max(lengths[f.provenance], lcp)
    return PieceTable(lengths, {i: len(r) for i, r in enumerate(p.relators)}, closure)


def min_piece_decomposition(element: SymmetrizedRelator,
                            table: PieceTable) -> tuple[Optional[int], tuple[int, ...]]:
    """Minimum number of pieces whose product is the element's word, plus the
    cut positions; (None, ()) when the word is not a product of pieces at
    all.  Dynamic program over start positions; greedy is not assumed
    optimal."""
    n = len(element.word)
    INF = n + 1
    dp = [INF] * (n + 1)
    back = [-1] * (n + 1)
    dp[0] = 0
    for j in range(n):
        if dp[j] >= INF:
            continue
        max_len = min(table.max_piece_length(element, j), n - j)
        for length in range(1, max_len + 1):
            if dp[j] + 1 < dp[j + length]:
                dp[j + length] = dp[j] + 1
                back[j + length] = j
    if dp[n] >= INF:
        return None, ()
    cuts = []
    pos = n
    while pos > 0:
        cuts.append(back[pos])
        pos = back[pos]
    return dp[n], tuple(reversed(cuts))


def _piece_counts(table: PieceTable):
    """The least piece count of each closure element, in closure order, that
    is a product of pieces."""
    for element in table.closure:
        count, _ = min_piece_decomposition(element, table)
        if count is not None:
            yield count


def _has_consecutive_subset_letters(p: Presentation, s: frozenset[str]) -> bool:
    # some cyclically adjacent letter pair has both generators in s
    return any(rel[pos - 1].gen in s and rel[pos].gen in s
               for rel in p.relators for pos in range(len(rel)))


def certify_s44(p: Presentation, subset) -> Certificate:
    """Small-cancellation certificate for DR directed away from a subset.

    Succeeds when [C(4) and T(4)] or [C(6) and T(3)] holds and no two
    cyclically consecutive relator letters come from the subset.  On success
    the explicit weights (1 on edges lying in a length-2 cycle, otherwise
    1/2 or 2/3 depending on the case) are built and re-verified with the
    exact weight-test checker; the verified weight certificate is embedded.
    An UNKNOWN names the failed hypothesis only.  C(6) implies C(4), so
    T(4) is checked only when C(4) holds.
    """
    s = check_preconditions(p, subset)

    def certificate(verdict: str, **evidence) -> Certificate:
        return Certificate(p.digest, tuple(sorted(s)), verdict, "s44", evidence=evidence,
                           notes=(T_Q_CONVENTION,))

    # one pass decides C(4) and C(6): fewer than 4 pieces is also fewer than 6
    c4_holds = c6_holds = True
    for count in _piece_counts(piece_table(p)):
        c6_holds = c6_holds and count >= 6
        if count < 4:
            c4_holds = False
            break
    if c4_holds and shortest_reduced_cycle_in_range(p.whitehead, 3, 4) is None:
        case = "c4t4"
    elif c6_holds:
        case = "c6t3"  # T(3) is vacuous: no length L has 3 <= L < 3
    else:
        return certificate(
            UNKNOWN, failed_hypothesis="small cancellation: neither C(4),T(4) nor C(6),T(3)")
    if _has_consecutive_subset_letters(p, s):
        return certificate(
            UNKNOWN, failed_hypothesis="consecutive letters from the subset in a relator")

    graph = p.whitehead
    by_endpoints: dict[frozenset, list[int]] = {}
    for e in graph.edges:
        by_endpoints.setdefault(frozenset((e.a, e.b)), []).append(e.id)
    light = Fraction(1, 2) if case == "c4t4" else Fraction(2, 3)
    weights = {}
    for e in graph.edges:
        parallel = len(by_endpoints[frozenset((e.a, e.b))]) > 1
        weights[e.id] = Fraction(1) if parallel else light
    cert = verify_weight_test(p, s, WeightAssignment(weights))
    if not cert.passed:
        raise DdrError(
            "constructed weights failed the exact weight-test verifier; "
            "the T(q) operationalization and this input disagree",
            code="WEIGHT_CROSS_CHECK_FAILED")
    return certificate(CERTIFIED_DR_AWAY_FROM, case=case, weights=cert.to_json_dict())
