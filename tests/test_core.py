import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddr import core
from ddr.core import (CYCLIC, FREE, DdrError, Letter, Presentation,
                      free_edge_generators, inverse_word, is_cyclically_reduced,
                      normalize_word, parse_presentation, parse_word,
                      serialize_presentation, subpresentation, word_stats)
from ddr.cayley import decide_finite
from ddr.smallcancel import certify_s44
from ddr.weights import WeightAssignment, search_weights, verify_weight_test

W = parse_word


class TestParse:
    def test_fx4_direct(self, fx4):
        assert fx4.generators == ("a", "b")
        assert fx4.relators == (W("a b a^-1 b^-1"),)

    def test_fx1(self, fx1):
        assert fx1.generators == ("a", "b", "c")
        assert fx1.relators[0] == W("a b a^-1 b^-1 b^-1")
        assert fx1.relators[2] == W("c a b")

    def test_exponent_expansion(self):
        p = parse_presentation("gens: a\nrel: a^3")
        assert p.relators == (W("a a a"),)

    def test_comments_and_blanks(self):
        p = parse_presentation("# header\n\ngens: a b # trailing\nrel: a b\n")
        assert p.generators == ("a", "b")

    def test_syntax_error_position(self):
        with pytest.raises(DdrError) as exc:
            parse_presentation("gens: a\nrel: a $b")
        assert exc.value.code == "SYNTAX"
        assert exc.value.line == 2
        assert exc.value.column == 8

    def test_undeclared_generator(self):
        with pytest.raises(DdrError) as exc:
            parse_presentation("gens: a\nrel: a b")
        assert exc.value.code == "UNDECLARED_GENERATOR"

    def test_undeclared_generator_column_after_exponent(self):
        with pytest.raises(DdrError) as exc:
            parse_presentation("gens: a\nrel: a^3 b^2 a")
        assert (exc.value.code, exc.value.line, exc.value.column) == ("UNDECLARED_GENERATOR", 2, 10)
        assert "undeclared generator 'b'" in str(exc.value)

    def test_letter_cap_counts_exponents_across_relators(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_RELATOR_LETTERS", 4)
        assert len(parse_presentation("gens: a b\nrel: a^2 b\nrel: a").relators[0]) == 3
        with pytest.raises(DdrError) as exc:
            parse_presentation("gens: a b\nrel: a^2 b\nrel: a b^-1")
        assert (exc.value.code, exc.value.line, exc.value.column) == ("TOO_MANY_LETTERS", 3, 8)
        assert "exceed 4 letters" in str(exc.value)

    def test_empty_relator_rejected(self):
        with pytest.raises(DdrError) as exc:
            parse_presentation("gens: a\nrel:")
        assert exc.value.code == "EMPTY_RELATOR"

    def test_zero_exponent_rejected(self):
        with pytest.raises(DdrError) as exc:
            parse_presentation("gens: a\nrel: a^0")
        assert exc.value.code == "SYNTAX"

    def test_missing_gens(self):
        with pytest.raises(DdrError) as exc:
            parse_presentation("rel: a")
        assert exc.value.code == "SYNTAX"

    def test_duplicate_generator(self):
        with pytest.raises(DdrError) as exc:
            parse_presentation("gens: a a\nrel: a")
        assert exc.value.code == "DUPLICATE_GENERATOR"

    @given(st.text(alphabet=st.sampled_from("ab#^-1 \t\n\r\x0b\x0c\x1c\x85\xa0\u3000"),
                   max_size=40))
    def test_line_reader_matches_a_whitespace_regex(self, text):
        # every text format's tokens are the maximal non-whitespace runs
        # before a `#`, with 1-based columns
        expected = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            tokens = [(m.group(), lineno, m.start() + 1) for m in re.finditer(r"\S+", line)]
            if tokens:
                expected.append((lineno, tokens))
        assert list(core._significant_lines(text)) == expected

    def test_serialize_no_compression(self, fx1):
        text = serialize_presentation(fx1)
        assert "rel: a b a^-1 b^-1 b^-1" in text
        assert "^2" not in text and "^-2" not in text


class TestNormalize:
    def test_free_reduction(self):
        assert normalize_word(W("a a^-1 b"), FREE) == W("b")

    def test_cyclic_reduction(self):
        assert normalize_word(W("b a b^-1"), CYCLIC) == W("a")

    def test_cyclic_fixed_point(self):
        w = W("a b a^-1 b^-1")
        assert normalize_word(w, CYCLIC) == w

    def test_free_does_not_wrap(self):
        w = W("a b a^-1")
        assert normalize_word(w, FREE) == w
        assert normalize_word(w, CYCLIC) == W("b")

    def test_reduce_everything(self):
        assert normalize_word(W("a a^-1"), FREE) == ()


class TestWordStats:
    def test_commutator(self):
        s = word_stats(W("a b a^-1 b^-1"))
        assert s.total_exponent_sum == 0
        assert s.proper_power_period is None
        assert s.exponent_sum == {"a": 0, "b": 0}

    def test_proper_power(self):
        assert word_stats(W("a b a b")).proper_power_period == 2
        assert word_stats(W("a a a")).proper_power_period == 1

    def test_fx1_third(self, fx1):
        s = word_stats(fx1.relators[2])
        assert s.total_exponent_sum == 3
        assert s.support == {"a", "b", "c"}
        assert s.occurrence_count == {"c": 1, "a": 1, "b": 1}


class TestSubpresentation:
    def test_fx1_ab(self, fx1):
        sub = subpresentation(fx1, {"a", "b"})
        assert sub.generators == ("a", "b")
        assert sub.relators == fx1.relators[:2]

    def test_empty_subset(self, fx1):
        sub = subpresentation(fx1, set())
        assert sub.generators == () and sub.relators == ()

    def test_fx3_x_only(self, fx3):
        sub = subpresentation(fx3, {"x1", "x2"})
        assert sub.generators == ("x1", "x2")
        assert sub.relators == ()

    def test_undeclared(self, fx1):
        with pytest.raises(DdrError) as exc:
            subpresentation(fx1, {"z"})
        assert exc.value.code == "UNDECLARED_GENERATOR"


class TestFreeEdges:
    def test_fx1(self, fx1):
        assert free_edge_generators(fx1) == {"c"}

    def test_fx4(self, fx4):
        assert free_edge_generators(fx4) == frozenset()

    def test_single_occurrence(self):
        p = parse_presentation("gens: a b\nrel: a")
        assert free_edge_generators(p) == {"a"}


# entry point -> call
ENTRY_POINTS = {
    "verify_weight_test": lambda p, s: verify_weight_test(p, s, WeightAssignment({})),
    "search_weights": search_weights,
    "certify_s44": certify_s44,
    "decide_finite": lambda p, s: decide_finite(p, s, 100),
}
# code -> (presentation, subset) that has exactly that fault
FAULTS = {
    "UNDECLARED_GENERATOR": ("gens: a b\nrel: a b a^-1 b^-1", {"a", "z"}),
    "S_NOT_PROPER": ("gens: a b\nrel: a b a^-1 b^-1", {"a", "b"}),
    "NOT_CYCLICALLY_REDUCED": ("gens: a b\nrel: b a b^-1", {"a"}),
}


# coset enumeration needs no reduced relators, so decide_finite accepts them
@pytest.mark.parametrize("entry, code", [
    (entry, code) for entry in ENTRY_POINTS for code in FAULTS
    if (entry, code) != ("decide_finite", "NOT_CYCLICALLY_REDUCED")])
def test_precondition_codes(entry, code):
    text, subset = FAULTS[code]
    with pytest.raises(DdrError) as exc:
        ENTRY_POINTS[entry](parse_presentation(text), subset)
    assert exc.value.code == code


letter_st = st.builds(Letter, st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1]))
word_st = st.lists(letter_st, max_size=12).map(tuple)


@given(word_st, st.sampled_from([FREE, CYCLIC]))
def test_normalize_idempotent(w, mode):
    once = normalize_word(w, mode)
    assert normalize_word(once, mode) == once


@given(word_st)
def test_cyclic_normal_form_is_cyclically_reduced(w):
    assert is_cyclically_reduced(normalize_word(w, CYCLIC))


@given(word_st)
def test_support_and_occurrences(w):
    s = word_stats(w)
    assert len(s.support) <= len(w)
    assert sum(s.occurrence_count.values()) == len(w)


def test_presentation_keeps_its_analysis():
    text = "gens: a b\nrel: a b a^-1 b^-1\nrel: a a^-1 b\n"
    p = parse_presentation(text)
    assert p.whitehead is p.whitehead and p.digest is p.digest
    assert p.unreduced_relators == (1,)
    # each value belongs to its own object: an equal presentation builds its own
    q = parse_presentation(text)
    assert q == p and q.digest == p.digest and q.whitehead is not p.whitehead


@given(st.lists(word_st.filter(lambda w: w), min_size=0, max_size=4))
def test_parse_serialize_round_trip(relators):
    p = Presentation(("a", "b", "c"), tuple(relators))
    assert parse_presentation(serialize_presentation(p)) == p
    assert p.digest == parse_presentation(serialize_presentation(p)).digest


@given(st.data())
def test_subpresentation_full_subset_is_identity(data):
    relators = data.draw(st.lists(word_st.filter(lambda w: w), max_size=4))
    p = Presentation(("a", "b", "c"), tuple(relators))
    assert subpresentation(p, p.generators) == p


@given(word_st)
def test_inverse_word_involution(w):
    assert inverse_word(inverse_word(w)) == w
