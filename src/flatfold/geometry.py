"""Exact 2-D predicates over rational or integer coordinates.

Coordinates given to the library, and those stored in a pattern, are exact
rationals (``fractions.Fraction``). The predicates here work on any exact
number type; pattern build runs them on integer-scaled copies of the
coordinates (see ``cp.build_crease_pattern``), which gives the same signs
as the rationals at a fraction of the cost. The face trace's primitive
integer directions are also what ``cp.cone_at`` turns into sector angles
(``sector_45``). Orientation tests, intersection tests and angular sorts
are therefore exact. No floating point is used outside of SVG rendering.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

Point = tuple[Fraction, Fraction]
Vec = tuple[Fraction, Fraction]


def sub(a: Point, b: Point) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def cross(a: Vec, b: Vec) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Vec, b: Vec) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle abc (+1 ccw, -1 cw, 0 collinear)."""
    v = cross(sub(b, a), sub(c, a))
    return (v > 0) - (v < 0)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """True if p lies on the closed segment ab (collinear + within bbox)."""
    return orient(a, b, p) == 0 and _in_box(p, a, b)


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True if segments ab and cd intersect anywhere except at shared endpoints.

    Shared endpoints are fine (creases meeting at a vertex); any other
    contact, including touching in the interior or overlapping collinearly,
    is a conflict.

    Two segments that share an endpoint s, leaving it towards p and q,
    meet elsewhere only when they leave s along the same ray: p - s and
    q - s are parallel (zero cross product) and point the same way
    (positive dot product). That covers identical and reversed segments.
    """
    if a == c or a == d:
        s, p = a, b
    elif b == c or b == d:
        s, p = b, a
    else:
        d1 = orient(c, d, a)
        d2 = orient(c, d, b)
        d3 = orient(a, b, c)
        d4 = orient(a, b, d)
        if d1 * d2 < 0 and d3 * d4 < 0:
            return True
        # an endpoint touching the other segment, or a collinear overlap
        return ((d1 == 0 and _in_box(a, c, d)) or (d2 == 0 and _in_box(b, c, d))
                or (d3 == 0 and _in_box(c, a, b)) or (d4 == 0 and _in_box(d, a, b)))
    q = d if c == s else c
    ux, uy = p[0] - s[0], p[1] - s[1]
    wx, wy = q[0] - s[0], q[1] - s[1]
    return ux * wy == uy * wx and ux * wx + uy * wy > 0


def _in_box(p: Point, a: Point, b: Point) -> bool:
    """p lies in the closed bounding box of ab."""
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def primitive(v: Vec) -> tuple[int, int]:
    """Reduce a rational direction vector to a canonical primitive integer pair."""
    x, y = v
    if not (isinstance(x, int) and isinstance(y, int)):
        x, y = Fraction(x), Fraction(y)
        den = lcm(x.denominator, y.denominator)
        x = x.numerator * (den // x.denominator)
        y = y.numerator * (den // y.denominator)
    if x == 0 and y == 0:
        raise ValueError("zero direction")
    g = gcd(x, y)
    return (x // g, y // g)


def _quadrant(d: tuple[int, int]) -> int:
    x, y = d
    if y == 0:
        return 0 if x > 0 else 4
    if x == 0:
        return 2 if y > 0 else 6
    if x > 0:
        return 1 if y > 0 else 7
    return 3 if y > 0 else 5


def angle_cmp(d1: tuple[int, int], d2: tuple[int, int]) -> int:
    """Compare two directions by angle in [0, 2*pi), counterclockwise from +x."""
    q1, q2 = _quadrant(d1), _quadrant(d2)
    if q1 != q2:
        return -1 if q1 < q2 else 1
    c = d1[0] * d2[1] - d1[1] * d2[0]
    # same quadrant: d1 comes first iff the turn d1 -> d2 is counterclockwise
    return -1 if c > 0 else (1 if c < 0 else 0)


ANGLE_KEY = cmp_to_key(angle_cmp)


_OCTANTS = {
    (1, 0): 0, (1, 1): 1, (0, 1): 2, (-1, 1): 3,
    (-1, 0): 4, (-1, -1): 5, (0, -1): 6, (1, -1): 7,
}


def octant(d: tuple[int, int]) -> int | None:
    """Octant index (multiples of 45 degrees) of a primitive direction, or None."""
    x, y = d
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if x != 0 and y != 0 and abs(x) != abs(y):
        return None
    return _OCTANTS.get((sx, sy))


# the sector of k octant steps, k = 1..8, shared by every cone that has it
_SECTORS = tuple(Fraction(45 * k) for k in range(9))


def sector_45(d1: tuple[int, int], d2: tuple[int, int]) -> Fraction | None:
    """Exact ccw angle from d1 to d2 in degrees when both are 45-degree multiples.

    By Niven's theorem this is the only case where rational coordinates give
    a rational degree measure, so it is the only case computed from
    coordinates; everything else must be declared.
    """
    o1, o2 = octant(d1), octant(d2)
    if o1 is None or o2 is None:
        return None
    # a full turn (step 0) never occurs for distinct creases; defensive
    return _SECTORS[(o2 - o1) % 8 or 8]


def polygon_signed_area2(points: list[Point]) -> Fraction | int:
    """Twice the signed area of a polygon (ccw positive); int input gives an int."""
    s = 0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s
