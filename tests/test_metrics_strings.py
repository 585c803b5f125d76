"""Tests for the string metrics (Levenshtein, prefix)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_metric_axioms

from repro.metrics import (
    LevenshteinDistance,
    PrefixDistance,
    levenshtein,
    longest_common_prefix,
    prefix_distance,
)
from repro.metrics.strings import _levenshtein_myers, _levenshtein_python

short_text = st.text(alphabet="abcd", max_size=12)
long_text = st.text(alphabet="acgt", min_size=30, max_size=80)


def _levenshtein_reference(a: str, b: str) -> int:
    """Straightforward full-matrix DP used as the oracle."""
    rows = len(a) + 1
    cols = len(b) + 1
    table = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        table[i][0] = i
    for j in range(cols):
        table[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + cost,
            )
    return table[-1][-1]


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("", "abc", 3),
            ("abc", "", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("gumbo", "gambol", 2),
            ("saturday", "sunday", 3),
            ("same", "same", 0),
        ],
    )
    def test_known_values(self, a, b, expected):
        assert levenshtein(a, b) == expected

    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, a, b):
        assert levenshtein(a, b) == _levenshtein_reference(a, b)

    @given(long_text, long_text)
    @settings(max_examples=30, deadline=None)
    def test_myers_path_matches_python_path(self, a, b):
        # 30-80 symbols: one-word and multi-word big-int patterns alike.
        assert _levenshtein_myers(a, b) == _levenshtein_python(a, b)

    @given(short_text, short_text)
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text)
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, a, b):
        d = levenshtein(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    @settings(max_examples=75, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    def test_metric_axioms_on_sample(self, small_words):
        violation = check_metric_axioms(LevenshteinDistance(), small_words)
        assert violation is None, str(violation)

    @given(short_text, short_text, st.integers(min_value=0, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_max_distance_short_circuit(self, a, b, bound):
        """Bounded calls agree with the exact distance on the <= bound
        question, return the exact value whenever it is within the bound,
        and never overestimate."""
        exact = levenshtein(a, b)
        reported = levenshtein(a, b, max_distance=bound)
        assert reported <= exact
        assert (reported <= bound) == (exact <= bound)
        if exact <= bound:
            assert reported == exact

    def test_max_distance_returns_length_gap(self):
        assert levenshtein("ab", "abcdefg", max_distance=2) == 5

    @given(long_text, long_text)
    @settings(max_examples=20, deadline=None)
    def test_long_strings_match_reference(self, a, b):
        """Exercise the numpy dispatch (plus affix stripping) end to end."""
        assert levenshtein(a, b) == _levenshtein_reference(a, b)


class TestPrefixDistance:
    def test_paper_figure5_style_values(self):
        # Distances along the prefix tree: siblings are 2 apart via parent.
        assert prefix_distance("ab", "ab") == 0
        assert prefix_distance("ab", "abc") == 1
        assert prefix_distance("abc", "abd") == 2
        assert prefix_distance("a", "b") == 2
        assert prefix_distance("", "abc") == 3

    @given(short_text, short_text)
    @settings(max_examples=100, deadline=None)
    def test_formula(self, a, b):
        lcp = longest_common_prefix(a, b)
        assert prefix_distance(a, b) == len(a) + len(b) - 2 * lcp

    @given(short_text, short_text, short_text)
    @settings(max_examples=75, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert prefix_distance(a, c) <= prefix_distance(a, b) + prefix_distance(b, c)

    @given(short_text, short_text)
    @settings(max_examples=50, deadline=None)
    def test_four_point_condition(self, a, b):
        """Tree metrics satisfy the four-point condition; spot-check pairs
        against two fixed anchor strings."""
        x, y, z, t = a, b, a + "x", b + "y"
        d = prefix_distance
        sums = sorted(
            [d(x, y) + d(z, t), d(x, z) + d(y, t), d(x, t) + d(y, z)]
        )
        # The two largest sums are equal for a tree metric.
        assert sums[1] == sums[2]

    def test_metric_axioms_on_sample(self, small_words):
        violation = check_metric_axioms(PrefixDistance(), small_words)
        assert violation is None, str(violation)

    def test_lcp(self):
        assert longest_common_prefix("abcde", "abcxy") == 3
        assert longest_common_prefix("", "abc") == 0
        assert longest_common_prefix("same", "same") == 4


class TestHamming:
    @given(st.text(alphabet="01", min_size=5, max_size=5),
           st.text(alphabet="01", min_size=5, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_hamming_bounds_levenshtein(self, a, b):
        """Edit distance never exceeds Hamming distance (substitutions
        alone are one way to edit)."""
        assert levenshtein(a, b) <= sum(x != y for x, y in zip(a, b))
