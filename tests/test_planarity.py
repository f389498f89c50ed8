"""The crease planarity check in build_crease_pattern.

The build sweeps bounding boxes to pick candidate pairs for the exact
segment test. An all-pairs reference loop here pins that the sweep loses no
conflict and raises the same first CrossingCreases message, and the
segment test's shortcut for pairs that share an endpoint is checked against
the general test it replaced (``helpers.reference_segments_conflict``).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatfold import build_crease_pattern, cp as cp_module
from flatfold.errors import CrossingCreases, ValidationError
from flatfold.generators import miura
from flatfold.geometry import orient, segments_conflict

from .helpers import reference_segments_conflict

F = Fraction
SIDE = 4
SQUARE = [(0, 0), (SIDE, 0), (SIDE, SIDE), (0, SIDE)]


def all_pairs_first_crossing(pts, creases, region):
    """First CrossingCreases message of the plain all-pairs check, or None."""
    region = [(F(x), F(y)) for x, y in region]
    n = len(region)

    def strictly_inside(p):
        return all(orient(region[i], region[(i + 1) % n], p) > 0 for i in range(n))

    items = sorted(creases.items())
    for i, (c1, (a1, b1)) in enumerate(items):
        p1, q1 = pts[a1], pts[b1]
        if not strictly_inside(((p1[0] + q1[0]) / 2, (p1[1] + q1[1]) / 2)):
            return f"crease {c1} runs along the region boundary"
        for c2, (a2, b2) in items[i + 1:]:
            if segments_conflict(p1, q1, pts[a2], pts[b2]):
                return f"creases {c1} and {c2} intersect"
    return None


def build_from_segments(segments):
    """Build a pattern on SQUARE from point pairs; returns (points, creases,
    the CrossingCreases message or None)."""
    ids: dict = {}
    vertices, bpoints, creases = {}, {}, {}
    for k, seg in enumerate(segments):
        ends = []
        for x, y in seg:
            p = (F(x), F(y))
            if p not in ids:
                on_edge = p[0] in (0, SIDE) or p[1] in (0, SIDE)
                ids[p] = f"{'b' if on_edge else 'v'}{len(ids)}"
                (bpoints if on_edge else vertices)[ids[p]] = p
            ends.append(ids[p])
        creases[f"c{k}"] = tuple(ends)
    try:
        build_crease_pattern(vertices, creases, SQUARE, boundary_points=bpoints)
    except CrossingCreases as exc:
        message = str(exc)
    except ValidationError:
        message = None  # a later check (vertex degree) failed: planar
    else:
        message = None
    return {**vertices, **bpoints}, creases, message


EDGE_CASES = {
    "shared endpoint": ([((1, 1), (2, 2)), ((2, 2), (3, 1))], None),
    "crossing": ([((1, 1), (3, 3)), ((1, 3), (3, 1))], "creases c0 and c1 intersect"),
    "collinear overlap": ([((1, 1), (3, 3)), ((2, 2), (F(7, 2), F(7, 2)))],
                          "creases c0 and c1 intersect"),
    "collinear, touching at an end": ([((1, 1), (2, 2)), ((2, 2), (3, 3))], None),
    "T-touch": ([((1, 2), (3, 2)), ((2, 2), (2, 3))], "creases c0 and c1 intersect"),
    "identical": ([((1, 1), (3, 2)), ((1, 1), (3, 2))], "creases c0 and c1 intersect"),
    "reversed": ([((1, 1), (3, 2)), ((3, 2), (1, 1))], "creases c0 and c1 intersect"),
    "boxes meet at a corner only": ([((1, 2), (2, 1)), ((2, 2), (3, 3))], None),
    "boxes share an edge only": ([((1, 1), (2, 2)), ((2, 1), (3, 2))], None),
    "boxes overlap, segments apart": ([((1, 1), (3, 3)), ((2, 1), (3, 2))], None),
    "along the boundary": ([((0, 1), (0, 3))], "crease c0 runs along the region boundary"),
    # a crease from an interior vertex has no midpoint test; a later chord does
    "chord along an edge after a crease to the boundary": (
        [((1, 1), (2, 0)), ((0, 1), (0, 3))], "crease c1 runs along the region boundary"),
    "crease to a boundary point on a later chord": (
        [((1, 1), (0, 2)), ((0, 1), (0, 3))], "creases c0 and c1 intersect"),
    # the sweep meets c1 x c3 first, but ids sort c0 < c1 < c10 < c2
    "id order decides": (
        [((3, 1), (3, 3)), ((1, 1), (1, 3)),
         ((F(5, 2), 2), (F(7, 2), 2)), ((F(1, 2), 2), (F(3, 2), 2))]
        + [((F(k, 2), F(7, 2)), (F(k, 2), F(15, 4))) for k in range(1, 7)]
        + [((F(5, 2), F(3, 2)), (F(7, 2), F(3, 2)))],
        "creases c0 and c10 intersect"),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_all_pairs(name):
    segments, expected = EDGE_CASES[name]
    pts, creases, message = build_from_segments(segments)
    assert message == expected
    assert message == all_pairs_first_crossing(pts, creases, SQUARE)


half_grid = st.integers(0, 2 * SIDE).map(lambda k: F(k, 2))
point = st.tuples(half_grid, half_grid)
segment = st.tuples(point, point).filter(lambda s: s[0] != s[1])


@settings(max_examples=300, deadline=None)
@given(st.lists(segment, min_size=1, max_size=12))
@example([((1, 1), (3, 3)), ((3, 3), (1, 1))])
@example([((0, 2), (4, 2)), ((2, 0), (2, 4))])
def test_sweep_matches_all_pairs(segments):
    pts, creases, message = build_from_segments(segments)
    assert message == all_pairs_first_crossing(pts, creases, SQUARE)


def counted_conflicts(monkeypatch):
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return segments_conflict(*args)

    monkeypatch.setattr(cp_module, "segments_conflict", counting)
    return calls


def test_miura_10x10_exact_tests_scale_linearly(monkeypatch):
    calls = counted_conflicts(monkeypatch)
    cp = miura(10, 10)
    assert len(cp.creases) == 180
    # the all-pairs loop made 180 * 179 / 2 = 16,110 exact tests
    assert calls[0] < 4 * len(cp.creases)


def test_miura_8x8_with_a_crossing_crease_is_rejected(monkeypatch):
    calls = counted_conflicts(monkeypatch)
    base = miura(8, 8)
    bpoints = {**base.boundary_points, "bx0": (0, F(7, 2)), "bx1": (8, F(7, 2))}
    creases = {**base.creases, "x0": ("bx0", "bx1")}
    with pytest.raises(CrossingCreases) as exc:
        build_crease_pattern(base.vertices, creases, base.region,
                             declared_angles=base.declared_angles,
                             boundary_points=bpoints)
    assert calls[0] < 4 * len(creases)
    pts = {**base.vertices, **bpoints}
    assert str(exc.value) == all_pairs_first_crossing(pts, creases, base.region)


def _from(p, q, k, m):
    """The point p + (k/m)(q - p)."""
    t = F(k, m)
    return (p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t)


small = st.integers(-3, 3)
ipoint = st.tuples(small, small)
fpoint = st.tuples(half_grid, half_grid)


@st.composite
def segment_pairs(draw):
    """Two segments, on integers or Fractions: unrelated, sharing an
    endpoint, or sharing one and collinear along the same ray or opposite
    rays (also identical, reversed and degenerate)."""
    pt = draw(st.sampled_from([ipoint, fpoint]))
    a, b, c, d = (draw(pt) for _ in range(4))
    kind = draw(st.sampled_from(["any", "shared", "same ray", "opposite rays"]))
    if kind != "any":
        k = draw(st.integers(1, 6))
        if kind == "same ray":
            d = _from(a, b, k, 3)      # on ray a -> b: inside, at b or beyond
        elif kind == "opposite rays":
            d = _from(a, b, -k, 3)     # on the ray from a away from b
        c = a
        # any endpoint may be the shared one, either segment first
        if draw(st.booleans()):
            c, d = d, c
        if draw(st.booleans()):
            a, b = b, a
        if draw(st.booleans()):
            a, b, c, d = c, d, a, b
    return a, b, c, d


@settings(max_examples=600, deadline=None)
@given(segment_pairs())
@example(((0, 0), (2, 2), (0, 0), (1, 1)))    # shared, same ray, overlapping
@example(((0, 0), (2, 2), (2, 2), (0, 0)))    # reversed
@example(((0, 0), (2, 2), (0, 0), (-1, -1)))  # shared, opposite rays
@example(((0, 0), (0, 0), (0, 0), (1, 1)))    # degenerate at the shared point
@example(((0, 0), (2, 0), (1, 0), (3, 0)))    # collinear overlap, nothing shared
def test_segments_conflict_matches_reference(seg):
    assert segments_conflict(*seg) == reference_segments_conflict(*seg)
