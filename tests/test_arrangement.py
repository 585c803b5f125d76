"""Tests for the exact rational line-arrangement engine."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrangement import (
    Line,
    arrangement_census,
    count_arrangement_cells,
    count_euclidean_cells_arrangement,
    euclidean_bisector_lines,
    intersection,
    perpendicular_bisector,
)
from repro.core.counting import cake_number, euclidean_permutation_count
from repro.core.voronoi import count_euclidean_cells_exact

rational = st.fractions(
    min_value=-10, max_value=10, max_denominator=50
)


class TestLine:
    def test_canonical_form_merges_coincident(self):
        a = Line.make(Fraction(1), Fraction(2), Fraction(3))
        b = Line.make(Fraction(2), Fraction(4), Fraction(6))
        c = Line.make(Fraction(-1), Fraction(-2), Fraction(-3))
        assert a == b == c

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Line.make(Fraction(0), Fraction(0), Fraction(1))

    def test_side(self):
        line = Line.make(Fraction(1), Fraction(0), Fraction(0))  # x = 0
        assert line.side((Fraction(-1), Fraction(0))) == -1
        assert line.side((Fraction(1), Fraction(5))) == 1
        assert line.side((Fraction(0), Fraction(7))) == 0


class TestIntersection:
    def test_crossing(self):
        h = Line.make(Fraction(0), Fraction(1), Fraction(2))  # y = 2
        v = Line.make(Fraction(1), Fraction(0), Fraction(3))  # x = 3
        assert intersection(h, v) == (Fraction(3), Fraction(2))

    def test_parallel_is_none(self):
        a = Line.make(Fraction(1), Fraction(1), Fraction(0))
        b = Line.make(Fraction(1), Fraction(1), Fraction(5))
        assert intersection(a, b) is None

    def test_intersection_exactness(self):
        a = Line.make(Fraction(3), Fraction(-1), Fraction(0))  # y = 3x
        b = Line.make(Fraction(1), Fraction(1), Fraction(1))  # x + y = 1
        point = intersection(a, b)
        assert point == (Fraction(1, 4), Fraction(3, 4))


class TestBisector:
    def test_midpoint_on_bisector(self):
        p = (Fraction(0), Fraction(0))
        q = (Fraction(2), Fraction(4))
        bisector = perpendicular_bisector(p, q)
        midpoint = (Fraction(1), Fraction(2))
        assert bisector.side(midpoint) == 0

    def test_sides_separate_sites(self):
        p = (Fraction(0), Fraction(0))
        q = (Fraction(2), Fraction(0))
        bisector = perpendicular_bisector(p, q)
        assert bisector.side(p) != bisector.side(q)

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            perpendicular_bisector((Fraction(1), Fraction(1)),
                                   (Fraction(1), Fraction(1)))

    @given(rational, rational, rational, rational)
    @settings(max_examples=100, deadline=None)
    def test_bisector_property(self, px, py, qx, qy):
        if (px, py) == (qx, qy):
            return
        bisector = perpendicular_bisector((px, py), (qx, qy))
        midpoint = ((px + qx) / 2, (py + qy) / 2)
        assert bisector.side(midpoint) == 0


class TestCensus:
    def test_single_line(self):
        census = arrangement_census([Line.make(1, 0, 0)])
        assert census.cells == 2
        assert census.vertices == 0

    def test_parallel_lines(self):
        lines = [Line.make(1, 0, c) for c in range(4)]
        assert count_arrangement_cells(lines) == 5

    def test_coincident_lines_merged(self):
        lines = [Line.make(1, 0, 0), Line.make(2, 0, 0)]
        assert count_arrangement_cells(lines) == 2

    def test_concurrent_lines(self):
        # Three lines through the origin cut the plane into 6 sectors.
        lines = [Line.make(1, 0, 0), Line.make(0, 1, 0), Line.make(1, 1, 0)]
        census = arrangement_census(lines)
        assert census.cells == 6
        assert census.max_concurrency == 3
        assert not census.general_position

    def test_general_position_matches_cake_number(self):
        """Random rational lines are in general position almost surely;
        the census must equal S_2(m)."""
        rng = np.random.default_rng(4)
        for m in (2, 4, 7):
            lines = []
            while len(lines) < m:
                a, b, c = (Fraction(x).limit_denominator(997)
                           for x in rng.random(3))
                if a == 0 and b == 0:
                    continue
                lines.append(Line.make(a, b, c))
            census = arrangement_census(lines)
            if census.general_position:
                assert census.cells == cake_number(2, m)

    def test_empty_arrangement(self):
        assert count_arrangement_cells([]) == 1


class TestEuclideanBisectorCensus:
    def test_matches_lp_census_on_random_sites(self):
        for seed in range(12):
            sites = np.random.default_rng(seed).random((4, 2))
            combinatorial = count_euclidean_cells_arrangement(sites)
            lp = count_euclidean_cells_exact(sites)
            assert combinatorial == lp, seed

    def test_figure3_count(self):
        sites = np.random.default_rng(32).random((4, 2))
        assert count_euclidean_cells_arrangement(sites) == 18

    def test_circumcenter_concurrency_accounted(self):
        """For any site triple the three bisectors meet at the
        circumcenter — the structural fact (A|B ∩ B|C ⊆ A|C) that keeps
        the count at 18 instead of the cake bound 22."""
        sites = np.random.default_rng(7).random((3, 2))
        lines = euclidean_bisector_lines(sites)
        census = arrangement_census(lines)
        assert census.vertices == 1
        assert census.max_concurrency == 3
        assert census.cells == 6  # N_{2,2}(3)

    def test_k5_matches_table1(self):
        for seed in (1, 2, 3):
            sites = np.random.default_rng(seed).random((5, 2))
            count = count_euclidean_cells_arrangement(sites)
            assert count <= euclidean_permutation_count(2, 5) == 46
            # Generic draws achieve the maximum.
            assert count == 46

    def test_degenerate_square(self):
        """Cocircular sites with coincident bisectors: exactly 8 cells."""
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        assert count_euclidean_cells_arrangement(square) == 8

    def test_collinear_sites(self):
        """Collinear sites have parallel bisectors: C(k,2)+1 strips."""
        collinear = [[0, 0], [1, 0], [3, 0]]
        assert count_euclidean_cells_arrangement(collinear) == 4

    def test_duplicate_sites_rejected(self):
        with pytest.raises(ValueError):
            count_euclidean_cells_arrangement([[0, 0], [0, 0], [1, 1]])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            count_euclidean_cells_arrangement([[0, 0, 0], [1, 1, 1]])

    def test_exact_for_adversarial_floats(self):
        """Nearly-degenerate float sites: the census is exact for the
        given binary values, no tolerance tuning."""
        sites = [[0.1, 0.1], [0.1 + 1e-14, 0.9], [0.9, 0.5], [0.5, 0.50001]]
        count = count_euclidean_cells_arrangement(sites)
        assert 1 <= count <= 18
