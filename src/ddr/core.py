"""Words, presentations, and the line-oriented text format shared by the toolkit.

A word is a tuple of letters; a letter pairs a generator name with a sign
(+1 or -1).  Relators are stored exactly as written: reduction, rotation and
inversion are explicit operations, never side effects, because downstream
tests index relators by position and care about the literal word.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

FREE = "free"
CYCLIC = "cyclic"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(\^(-?\d+))?\Z")

# Total relator letters a presentation may expand to; the largest input the
# tests and benchmark workloads use has 500.
MAX_RELATOR_LETTERS = 20_000


class DdrError(ValueError):
    """A fault ddr reports: malformed input, inconsistent data, an unusable
    option, or a subset or presentation a test cannot take.  `code` names
    the fault; a fault found in a text file also names its line and column."""

    def __init__(self, message: str, *, code: str = "INVALID",
                 line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + location)
        self.code = code
        self.line = line
        self.column = column


class BudgetSpent(Exception):
    """A test spent a budget without an answer, which refutes nothing; the
    pipeline records it as an unknown attempt with the message as reason."""


@dataclass(frozen=True, slots=True)
class Letter:
    """A single signed generator occurrence."""

    gen: str
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DdrError(f"letter sign must be +1 or -1, got {self.sign}", code="BAD_SIGN")

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def __str__(self) -> str:
        return self.gen if self.sign > 0 else f"{self.gen}^-1"


# A word is an immutable sequence of letters; it may be empty.
Word = tuple[Letter, ...]


def inverse_word(w: Word) -> Word:
    return tuple(l.inverse() for l in reversed(w))


def rotate_word(w: Word, k: int) -> Word:
    """Cyclic rotation: rotate_word(w, k) starts at position k of w."""
    if not w:
        return w
    k %= len(w)
    return w[k:] + w[:k]


def normalize_word(w: Word, mode: str = FREE) -> Word:
    """Freely reduce w; with mode=CYCLIC also cancel across the wrap-around.

    The result is the unique (cyclically) reduced form reachable by
    cancelling adjacent inverse pairs.
    """
    if mode not in (FREE, CYCLIC):
        raise DdrError(f"unknown normalization mode {mode!r}", code="BAD_MODE")
    stack: list[Letter] = []
    for letter in w:
        if stack and stack[-1] == letter.inverse():
            stack.pop()
        else:
            stack.append(letter)
    if mode == CYCLIC:
        lo, hi = 0, len(stack)
        while hi - lo >= 2 and stack[lo] == stack[hi - 1].inverse():
            lo += 1
            hi -= 1
        stack = stack[lo:hi]
    return tuple(stack)


def is_cyclically_reduced(w: Word) -> bool:
    return normalize_word(w, CYCLIC) == w


def word_support(w: Word) -> frozenset[str]:
    return frozenset(l.gen for l in w)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: ordered generators and an ordered relator list.

    Relators form a list, not a set: duplicates are legitimate and every
    downstream object refers to relators by their position.  The digest,
    Whitehead graph and unreduced relators every test reads are each built
    once, on first use, and kept with the presentation.
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        for name in self.generators:
            if not _NAME_RE.match(name):
                raise DdrError(f"invalid generator name {name!r}", code="BAD_NAME")
            if name in seen:
                raise DdrError(f"duplicate generator {name!r}", code="DUPLICATE_GENERATOR")
            seen.add(name)
        for idx, rel in enumerate(self.relators):
            for letter in rel:
                if letter.gen not in seen:
                    raise DdrError(
                        f"relator {idx} uses undeclared generator {letter.gen!r}",
                        code="UNDECLARED_GENERATOR")

    @property
    def generator_set(self) -> frozenset[str]:
        return frozenset(self.generators)

    @cached_property
    def digest(self) -> str:
        return hashlib.sha256(serialize_presentation(self).encode("utf-8")).hexdigest()

    @cached_property
    def whitehead(self) -> _whitehead.WhiteheadGraph:
        return _whitehead.build_whitehead(self)

    @cached_property
    def unreduced_relators(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.relators) if not is_cyclically_reduced(r))


@dataclass(frozen=True)
class WordStats:
    exponent_sum: Mapping[str, int]
    total_exponent_sum: int
    proper_power_period: Optional[int]
    support: frozenset[str]
    occurrence_count: Mapping[str, int]


def word_stats(w: Word) -> WordStats:
    """Exponent sums, occurrence counts, support and proper-power period.

    The period is the smallest d < |w| with w equal to its rotation by d
    (equivalently w = u^(|w|/d) for the length-d prefix u); it is None when
    w is not a proper power.  Only meaningful for cyclically reduced words.
    """
    exponent: dict[str, int] = {}
    occurrence: dict[str, int] = {}
    for letter in w:
        exponent[letter.gen] = exponent.get(letter.gen, 0) + letter.sign
        occurrence[letter.gen] = occurrence.get(letter.gen, 0) + 1
    period = None
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and rotate_word(w, d) == w:
            period = d
            break
    return WordStats(
        exponent_sum=exponent,
        total_exponent_sum=sum(l.sign for l in w),
        proper_power_period=period,
        support=word_support(w),
        occurrence_count=occurrence,
    )


def subpresentation(p: Presentation, subset: Iterable[str]) -> Presentation:
    """The sub-presentation carried by a generator subset.

    Keeps exactly the relators whose support lies inside the subset, in
    their original order; generator order is inherited from p.
    """
    s = frozenset(subset)
    unknown = s - p.generator_set
    if unknown:
        raise DdrError(f"subset contains undeclared generators {sorted(unknown)}",
                       code="UNDECLARED_GENERATOR")
    gens = tuple(g for g in p.generators if g in s)
    rels = tuple(r for r in p.relators if word_support(r) <= s)
    return Presentation(gens, rels)


def check_preconditions(p: Presentation, subset=None, *,
                        cyclically_reduced: bool = True) -> frozenset[str]:
    """Validate a directed-away subset and the relators; return the subset.

    The subset must consist of declared generators (UNDECLARED_GENERATOR)
    and be proper (S_NOT_PROPER); `subset=None` skips both checks.  With
    `cyclically_reduced`, every relator must be cyclically reduced
    (NOT_CYCLICALLY_REDUCED).
    """
    s = frozenset(subset or ())
    if subset is not None:
        unknown = s - p.generator_set
        if unknown:
            raise DdrError(f"subset contains undeclared generators {sorted(unknown)}",
                           code="UNDECLARED_GENERATOR")
        if s == p.generator_set:
            raise DdrError("the directed-away subset must be proper", code="S_NOT_PROPER")
    if cyclically_reduced and p.unreduced_relators:
        raise DdrError(f"relators {list(p.unreduced_relators)} are not cyclically reduced",
                       code="NOT_CYCLICALLY_REDUCED")
    return s


def free_edge_generators(p: Presentation) -> frozenset[str]:
    """Generators that occur exactly once in total across all relators."""
    counts: dict[str, int] = {g: 0 for g in p.generators}
    for rel in p.relators:
        for letter in rel:
            counts[letter.gen] += 1
    return frozenset(g for g, c in counts.items() if c == 1)


class UnionFind:
    """Disjoint classes of hashable items, every item alone until joined.

    An item absent from the parent table is a root, so nothing is stored
    per item up front; `find` halves paths (Tarjan 1975)."""

    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while x in parent:
            up = parent[x]
            if up not in parent:
                return up
            parent[x] = x = parent[up]  # point x at its grandparent, then step there
        return x

    def union(self, a, b) -> bool:
        """Join the classes of a and b; False when they were one already."""
        parent = self.parent
        a = self.find(a) if a in parent else a
        b = self.find(b) if b in parent else b
        if a == b:
            return False
        parent[a] = b
        return True


def _token_powers(tokens: Sequence[tuple[str, int, int]]) -> list[tuple[Letter, int, int]]:
    # tokens: (text, line, column) -> (letter, repeat count, column);
    # exponent shorthand g^k stands for |k| copies of g or g^-1
    out = []
    for text, line, col in tokens:
        m = _TOKEN_RE.match(text)
        if not m:
            raise DdrError(f"cannot parse token {text!r}", code="SYNTAX", line=line, column=col)
        name, _, exp = m.groups()
        try:
            k = 1 if exp is None else int(exp)
        except ValueError:  # past the interpreter's limit on digits converted
            raise DdrError(f"exponent of {name!r} has {len(exp.lstrip('-'))} digits",
                           code="SYNTAX", line=line, column=col) from None
        if k == 0:
            raise DdrError(f"zero exponent in token {text!r}", code="SYNTAX",
                           line=line, column=col)
        out.append((Letter(name, 1 if k > 0 else -1), abs(k), col))
    return out


def _expand(powers: Iterable[tuple[Letter, int, int]]) -> Word:
    return tuple(letter for letter, count, _ in powers for _ in range(count))


def _significant_lines(text: str):
    """Numbered lines with tokens outside `#` comments, each token as (text, line, column)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens, column = [], 0
        for word in line.split():
            column = line.find(word, column)  # only whitespace lies before it
            tokens.append((word, lineno, column + 1))
            column += len(word)
        if tokens:
            yield lineno, tokens


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation text format.

    Grammar: `#` starts a comment; exactly one `gens:` line listing the
    generators; one or more `rel:` lines, each a nonempty relator given as
    whitespace-separated tokens `g`, `g^-1` or `g^k` (k a nonzero integer,
    expanded letter by letter).  The relators may hold at most
    MAX_RELATOR_LETTERS letters in all; the exponents are summed before any
    token is expanded.
    """
    generators: tuple[str, ...] | None = None
    relators: list[Word] = []
    letter_count = 0
    for lineno, tokens in _significant_lines(text):
        head, line_, col = tokens[0]
        if head == "gens:":
            if generators is not None:
                raise DdrError("second gens: line", code="SYNTAX", line=lineno, column=col)
            names = []
            for name, _, ncol in tokens[1:]:
                if not _NAME_RE.match(name):
                    raise DdrError(f"invalid generator name {name!r}", code="BAD_NAME",
                                   line=lineno, column=ncol)
                names.append(name)
            generators = tuple(names)
        elif head == "rel:":
            if generators is None:
                raise DdrError("rel: line before gens: line", code="SYNTAX",
                               line=lineno, column=col)
            if len(tokens) == 1:
                raise DdrError("empty relator", code="EMPTY_RELATOR", line=lineno, column=col)
            powers = _token_powers(tokens[1:])
            for letter, count, tcol in powers:
                if letter.gen not in generators:
                    raise DdrError(f"undeclared generator {letter.gen!r}",
                                   code="UNDECLARED_GENERATOR", line=lineno, column=tcol)
                letter_count += count
                if letter_count > MAX_RELATOR_LETTERS:
                    raise DdrError(
                        f"relators exceed {MAX_RELATOR_LETTERS} letters in all",
                        code="TOO_MANY_LETTERS", line=lineno, column=tcol)
            relators.append(_expand(powers))
        else:
            raise DdrError(f"unrecognized directive {head!r}", code="SYNTAX",
                           line=lineno, column=col)
    if generators is None:
        raise DdrError("missing gens: line", code="SYNTAX")
    return Presentation(generators, tuple(relators))


def serialize_presentation(p: Presentation) -> str:
    """Serialize to the same grammar, one relator per line, letter by letter."""
    lines = ["gens: " + " ".join(p.generators)]
    for rel in p.relators:
        lines.append("rel: " + " ".join(str(l) for l in rel))
    return "\n".join(lines) + "\n"


# last, since `whitehead` imports this module; bound once, so that the
# property reads the same module as the rest of ddr
from . import whitehead as _whitehead  # noqa: E402
