"""Exact 2-D line arrangements in rational arithmetic.

A third, fully combinatorial census engine for the plane (alongside the
grid and LP engines of :mod:`repro.core.voronoi`).  For an arrangement of
distinct lines the number of faces is

    F  =  1 + L + sum_over_vertices (m_p - 1)

where ``L`` is the number of distinct lines and ``m_p`` the number of
lines through vertex ``p`` (Euler's relation specialized to line
arrangements; in general position it reduces to Price's
``S_2(L) = 1 + L + C(L, 2)``).

For Euclidean bisector systems this count *equals* the number of
realizable distance permutations: cells of the arrangement are exactly the
sign-vector classes of the bisectors, and two distinct cells differ in at
least one bisector side, hence in their permutation.  The paper's
"missing pieces" relative to the cake bound come precisely from the
forced concurrences ``A|B ∩ B|C ⊆ A|C`` at circumcenters, which this
module counts exactly — e.g. four generic sites give
``1 + 6 + (4·2 + 3·1) = 18``, reproducing Figure 3 combinatorially.

All computation is in :class:`fractions.Fraction`; there is no floating
point anywhere, so coincident lines and multi-line concurrences are
detected exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Line",
    "perpendicular_bisector",
    "intersection",
    "count_arrangement_cells",
    "arrangement_census",
    "euclidean_bisector_lines",
    "count_euclidean_cells_arrangement",
]

Rational = Fraction
Point = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Line:
    """The line ``a x + b y = c`` in canonical form.

    Canonicalization divides by the gcd of the (integerized) coefficients
    and fixes the sign of the leading nonzero coefficient, so coincident
    lines compare equal and hash together.
    """

    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def make(a: Fraction, b: Fraction, c: Fraction) -> "Line":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a and b both zero")
        # Scale to integers, then reduce.
        denominator = a.denominator * b.denominator * c.denominator
        ia = int(a * denominator)
        ib = int(b * denominator)
        ic = int(c * denominator)
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        if g:
            ia, ib, ic = ia // g, ib // g, ic // g
        lead = ia if ia != 0 else ib
        if lead < 0:
            ia, ib, ic = -ia, -ib, -ic
        return Line(Fraction(ia), Fraction(ib), Fraction(ic))

    def side(self, point: Point) -> int:
        """Return -1, 0, +1 for the point's side of the line."""
        value = self.a * point[0] + self.b * point[1] - self.c
        if value < 0:
            return -1
        if value > 0:
            return 1
        return 0


def perpendicular_bisector(p: Point, q: Point) -> Line:
    """Return the Euclidean bisector ``p|q`` (Definition 1) of two points.

    Points equidistant from ``p`` and ``q`` satisfy
    ``2 (q - p) . z = |q|^2 - |p|^2``.
    """
    px, py = Fraction(p[0]), Fraction(p[1])
    qx, qy = Fraction(q[0]), Fraction(q[1])
    if (px, py) == (qx, qy):
        raise ValueError("bisector of identical points is the whole plane")
    a = 2 * (qx - px)
    b = 2 * (qy - py)
    c = qx * qx + qy * qy - px * px - py * py
    return Line.make(a, b, c)


def intersection(first: Line, second: Line) -> Optional[Point]:
    """Return the intersection point, or None for parallel/coincident lines."""
    determinant = first.a * second.b - second.a * first.b
    if determinant == 0:
        return None
    x = (first.c * second.b - second.c * first.b) / determinant
    y = (first.a * second.c - second.a * first.c) / determinant
    return (x, y)


@dataclass(frozen=True)
class ArrangementCensus:
    """Exact combinatorics of a line arrangement."""

    lines: int  # distinct lines
    vertices: int  # distinct intersection points
    cells: int  # faces of the subdivision, unbounded included
    max_concurrency: int  # largest number of lines through one vertex

    @property
    def general_position(self) -> bool:
        """True when no two lines are parallel and no three concurrent."""
        expected = self.lines * (self.lines - 1) // 2
        return self.vertices == expected and self.max_concurrency <= 2


def arrangement_census(lines: Iterable[Line]) -> ArrangementCensus:
    """Compute the exact cell count of a line arrangement.

    Coincident input lines are merged; every intersection is computed in
    rational arithmetic, so concurrences are exact, never a tolerance
    call.
    """
    distinct: List[Line] = sorted(
        set(lines), key=lambda ln: (ln.a, ln.b, ln.c)
    )
    n = len(distinct)
    through: Dict[Point, int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            point = intersection(distinct[i], distinct[j])
            if point is not None:
                through.setdefault(point, 0)
    # Count, per vertex, how many of the lines pass through it (pairwise
    # intersections undercount at concurrences).
    for point in through:
        through[point] = sum(1 for ln in distinct if ln.side(point) == 0)
    cells = 1 + n + sum(m - 1 for m in through.values())
    return ArrangementCensus(
        lines=n,
        vertices=len(through),
        cells=cells,
        max_concurrency=max(through.values(), default=0),
    )


def count_arrangement_cells(lines: Iterable[Line]) -> int:
    """Return just the face count of :func:`arrangement_census`."""
    return arrangement_census(lines).cells


def _to_rational_points(sites: Sequence[Sequence]) -> List[Point]:
    points = []
    for site in sites:
        if len(site) != 2:
            raise ValueError("arrangement census is 2-dimensional")
        points.append((Fraction(site[0]), Fraction(site[1])))
    if len(set(points)) != len(points):
        raise ValueError("sites must be distinct")
    return points


def euclidean_bisector_lines(sites: Sequence[Sequence]) -> List[Line]:
    """Return the ``C(k,2)`` bisector lines of rational plane sites.

    Float inputs are accepted: ``Fraction`` converts them exactly (every
    float is a dyadic rational), so the census is exact for the given
    binary representations.
    """
    points = _to_rational_points(sites)
    lines = []
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            lines.append(perpendicular_bisector(points[i], points[j]))
    return lines


def count_euclidean_cells_arrangement(sites: Sequence[Sequence]) -> int:
    """Exact count of distance-permutation cells for plane sites (L2).

    Cells of the bisector arrangement are exactly the realizable distance
    permutations (each cell has a constant bisector sign vector, distinct
    cells differ in at least one sign, and ties occur only on the lines
    themselves, which have measure zero).
    """
    return count_arrangement_cells(euclidean_bisector_lines(sites))
