from fractions import Fraction

import pytest

from flatfold import build_crease_pattern, cone_at
from flatfold.errors import (
    CrossingCreases,
    DanglingCrease,
    NotInteriorVertex,
    OddDegreeInteriorVertex,
    ValidationError,
)

F = Fraction
SQUARE = [(0, 0), (4, 0), (4, 4), (0, 4)]


def cross_pattern():
    return build_crease_pattern(
        vertices={"v0": (2, 2)},
        creases={"c0": ("v0", "b0"), "c1": ("v0", "b1"),
                 "c2": ("v0", "b2"), "c3": ("v0", "b3")},
        region=SQUARE,
        boundary_points={"b0": (4, 2), "b1": (2, 4), "b2": (0, 2), "b3": (2, 0)},
    )


def test_cross_pattern_faces():
    cp = cross_pattern()
    assert len(cp.interior_faces()) == 4
    assert cp.interior_vertex_ids() == ["v0"]
    # Euler: V - E + F = 2 counting the outer face
    v = len(cp.vertices) + len(cp.boundary_points) + 4  # region corners
    e = len(cp.creases) + 8  # boundary split into 8 segments
    f = len(cp.faces)
    assert v - e + f == 2


def test_empty_pattern_single_face():
    cp = build_crease_pattern({}, {}, SQUARE)
    assert len(cp.interior_faces()) == 1
    assert cp.interior_vertex_ids() == []


def test_cone_at_cross():
    cp = cross_pattern()
    c = cone_at(cp, "v0")
    assert c.angles == (F(90),) * 4
    assert c.cone_total == 360
    assert c.crease_ids[0] == "c0"


def test_cone_at_declared_angles():
    cp = build_crease_pattern(
        vertices={"v0": (2, 2)},
        creases={"c0": ("v0", "b0"), "c1": ("v0", "b1"),
                 "c2": ("v0", "b2"), "c3": ("v0", "b3")},
        region=SQUARE,
        boundary_points={"b0": (4, 2), "b1": (3, 4), "b2": (0, 2), "b3": (1, 0)},
        declared_angles={"v0": (60, 60, 120, 120)},
    )
    c = cone_at(cp, "v0")
    assert c.angles == (F(60), F(60), F(120), F(120))


def test_cone_at_degree2():
    cp = build_crease_pattern(
        vertices={"v0": (2, 2)},
        creases={"c0": ("v0", "b0"), "c1": ("v0", "b1")},
        region=SQUARE,
        boundary_points={"b0": (0, 2), "b1": (4, 2)},
    )
    c = cone_at(cp, "v0")
    assert c.angles == (F(180), F(180))


def test_cone_at_requires_interior():
    cp = cross_pattern()
    with pytest.raises(NotInteriorVertex):
        cone_at(cp, "b0")


def test_cone_at_is_computed_once_per_pattern():
    cp = cross_pattern()
    assert cone_at(cp, "v0") is cone_at(cp, "v0")
    # the memo is no part of the pattern's value or its repr
    fresh = cross_pattern()
    assert fresh == cp and repr(fresh) == repr(cp)
    assert cone_at(fresh, "v0") == cone_at(cp, "v0")
    assert cone_at(fresh, "v0") is not cone_at(cp, "v0")


def test_cone_at_rotation_consistency():
    cp = cross_pattern()
    c = cone_at(cp, "v0")
    n = c.degree
    for k in range(n):
        r = c.rotated(k)
        assert r.angles == tuple(c.angles[(k + i) % n] for i in range(n))


def test_rejects_crossing_creases():
    with pytest.raises(CrossingCreases):
        build_crease_pattern(
            vertices={},
            creases={"c0": ("b0", "b1"), "c1": ("b2", "b3")},
            region=SQUARE,
            boundary_points={"b0": (0, 1), "b1": (4, 3),
                             "b2": (0, 3), "b3": (4, 1)},
        )


def test_rejects_odd_degree():
    with pytest.raises(OddDegreeInteriorVertex):
        build_crease_pattern(
            vertices={"v0": (2, 2)},
            creases={"c0": ("v0", "b0"), "c1": ("v0", "b1"), "c2": ("v0", "b2")},
            region=SQUARE,
            boundary_points={"b0": (4, 2), "b1": (2, 4), "b2": (0, 2)},
        )


def test_rejects_dangling_crease():
    with pytest.raises(DanglingCrease):
        build_crease_pattern(
            vertices={"v0": (2, 2)},
            creases={"c0": ("v0", "nope")},
            region=SQUARE,
        )


def test_rejects_undeclared_irrational_angles():
    cp = build_crease_pattern(
        vertices={"v0": (2, 2)},
        creases={"c0": ("v0", "b0"), "c1": ("v0", "b1"),
                 "c2": ("v0", "b2"), "c3": ("v0", "b3")},
        region=SQUARE,
        boundary_points={"b0": (4, 2), "b1": (3, 4), "b2": (0, 2), "b3": (1, 0)},
    )
    with pytest.raises(ValidationError):
        cone_at(cp, "v0")


def test_declared_angles_must_close():
    with pytest.raises(ValidationError):
        build_crease_pattern(
            vertices={"v0": (2, 2)},
            creases={"c0": ("v0", "b0"), "c1": ("v0", "b1"),
                     "c2": ("v0", "b2"), "c3": ("v0", "b3")},
            region=SQUARE,
            boundary_points={"b0": (4, 2), "b1": (2, 4), "b2": (0, 2), "b3": (2, 0)},
            declared_angles={"v0": (90, 90, 90, 80)},
        )


def test_crease_sides_and_corners_cover_creases():
    cp = cross_pattern()
    assert set(cp.crease_sides) == set(cp.creases)
    for (v, left, right), f in cp.corner_faces.items():
        assert v in cp.vertices or f == "outer" or True
    c = cone_at(cp, "v0")
    for i in range(c.degree):
        left, right = c.sector(i)
        assert ("v0", left, right) in cp.corner_faces


@pytest.mark.parametrize("region", [
    [(0, 0), (4, 0)],                   # two corners
    [(0, 0), (2, 0), (4, 0)],           # collinear: zero area
    [(0, 0), (4, 0), (4, 4), (4, 0)],   # doubles back: zero area
    [(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)],  # a repeated corner
])
def test_rejects_degenerate_region(region):
    with pytest.raises(ValidationError, match="region polygon is degenerate"):
        build_crease_pattern(vertices={}, creases={}, region=region)
