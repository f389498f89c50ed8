import re
from fractions import Fraction

import pytest

from flatfold import build_crease_pattern, cone_at
from flatfold import cp as cp_module
from flatfold.cp import ConeVertex
from flatfold.errors import (
    CrossingCreases,
    DanglingCrease,
    NotInteriorVertex,
    OddDegreeInteriorVertex,
    ValidationError,
)
from flatfold.generators import crane, miura, triangle_twist

from .helpers import reference_trace_faces, small_pattern
from .test_tiling import x_and_chords

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


@pytest.mark.parametrize("creases", [
    {"c0": ("a", "b"), "c1": ("a", "d")},
    {"c0": ("a", "b")},     # a with degree 1 as an interior vertex
])
def test_rejects_an_id_naming_a_vertex_and_a_boundary_point(creases):
    # the trace would place a at the boundary point, while the build and
    # cone_at take it as the interior vertex; refused before any crease
    # check, so a lone c0 is not reported as an odd degree
    with pytest.raises(ValidationError,
                       match="^id a names both an interior vertex and a boundary point$"):
        build_crease_pattern({"a": (1, 1)}, creases, [(0, 0), (2, 0), (2, 2), (0, 2)],
                             boundary_points={"a": (0, 1), "b": (2, 1), "d": (1, 0)})


@pytest.mark.parametrize("creases, message", [
    ({"s0": ("v", "a"), "c1": ("v", "b")}, "crease id s0 is taken by boundary segment 0"),
    ({"c1": ("v", "a"), "s3": ("v", "b")}, "crease id s3 is taken by boundary segment 3"),
])
def test_rejects_a_crease_id_the_trace_gives_a_boundary_segment(creases, message):
    # the trace names the boundary segments s0, s1, ... among the creases:
    # a crease so named would lose its place to the segment
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build_crease_pattern({"v": (2, 2)}, creases, SQUARE,
                             boundary_points={"a": (2, 0), "b": (2, 4)})


@pytest.mark.parametrize("vertices, boundary_points, message", [
    ({"r1": (2, 2)}, {"a": (2, 0), "b": (2, 4)}, "id r1 is taken by region corner 1"),
    ({"v": (2, 2)}, {"a": (2, 0), "r2": (2, 4)}, "id r2 is taken by region corner 2"),
])
def test_rejects_a_node_id_the_trace_gives_a_region_corner(vertices, boundary_points, message):
    # the trace names each region corner that is not a boundary point r<i>
    # among the nodes: a node so named would lose its place to the corner
    (v,) = vertices
    (a, b) = boundary_points
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build_crease_pattern(vertices, {"c0": (v, a), "c1": (v, b)}, SQUARE,
                             boundary_points=boundary_points)


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


@pytest.mark.parametrize("angles, ids, message", [
    ((90, 270), ("c0",), "angle/crease count mismatch"),
    ((0, 360), ("c0", "c1"), "sector angles must be positive"),
    ((), (), "a cone needs at least one sector"),
])
def test_cone_vertex_refuses_bad_sectors(angles, ids, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        ConeVertex(tuple(F(a) for a in angles), ids)


@pytest.mark.parametrize("p", [(0, 2), (5, 2)])
def test_rejects_interior_vertex_on_or_outside_the_boundary(p):
    with pytest.raises(ValidationError,
                       match="^interior vertex v0 is not strictly inside the region$"):
        build_crease_pattern(vertices={"v0": p}, creases={}, region=SQUARE)


def test_rejects_isolated_interior_vertex():
    with pytest.raises(ValidationError, match="^isolated interior vertex v0$"):
        build_crease_pattern(vertices={"v0": (2, 2)}, creases={}, region=SQUARE)


@pytest.mark.parametrize("cross", [False, True])
def test_rejects_a_crease_island(cross):
    # a triangle of creases off the paper boundary, alone or beside a
    # cross: the island adds a second outer walk to the trace (a connected
    # plane graph has E - V + 2 faces, and each island adds one more)
    vertices = {"a": (1, 1), "b": (2, 1), "c": (1, 2)}
    creases = {"c0": ("a", "b"), "c1": ("b", "c"), "c2": ("c", "a")}
    bpoints = {}
    if cross:
        vertices["v0"] = (3, 3)
        bpoints = {"b0": (4, 3), "b1": (3, 4), "b2": (0, 3), "b3": (3, 0)}
        creases.update({f"x{i}": ("v0", f"b{i}") for i in range(4)})
    with pytest.raises(ValidationError, match="^face traversal failed to find a unique outer face$"):
        build_crease_pattern(vertices=vertices, creases=creases, region=SQUARE,
                             boundary_points=bpoints)


@pytest.mark.parametrize("declared, message", [
    ({"v9": (90, 90, 90, 90)}, "declared angles for unknown vertex v9"),
    ({"v0": (90, 90, 180)}, "vertex v0: 3 angles for degree 4"),
    ({"v0": (0, 180, 90, 90)}, "vertex v0: non-positive declared angle"),
])
def test_rejects_bad_declared_angles(declared, message):
    cp = cross_pattern()
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build_crease_pattern(cp.vertices, cp.creases, SQUARE, declared_angles=declared,
                             boundary_points=cp.boundary_points)


@pytest.mark.parametrize("reverse", [False, True])
def test_a_bad_shared_declared_list_is_reported_at_its_first_vertex(reverse):
    # a list is checked once for all its vertices, and the error names the
    # first vertex holding it in the order given
    cp = miura(3, 3)
    lists = list(cp.declared_angles.values())
    shared = next(a for a in lists if lists.count(a) > 1)
    bad = (shared[0] + 1,) + shared[1:]
    declared = {v: bad if a == shared else a for v, a in cp.declared_angles.items()}
    if reverse:
        declared = dict(reversed(declared.items()))
    first = next(v for v, a in declared.items() if a == bad)
    with pytest.raises(ValidationError,
                       match=f"^vertex {first}: declared angles sum to {sum(bad)}, not 360$"):
        build_crease_pattern(cp.vertices, cp.creases, cp.region, declared_angles=declared,
                             boundary_points=cp.boundary_points)


@pytest.mark.parametrize("bad", [90.0, True, "90"])
def test_cone_vertex_refuses_a_non_rational_angle(bad):
    # a float would run Kawasaki's test inexactly; a bool or a str is no angle
    with pytest.raises(ValidationError,
                       match=f"^sector angle {re.escape(repr(bad))} is not a rational number$"):
        ConeVertex((F(90), F(90), bad, F(90)), ("c0", "c1", "c2", "c3"))


def test_cone_vertex_scales_its_angles_by_the_lcm_of_their_denominators():
    c = ConeVertex((F(45, 2), F(135, 4), 90, F(60)), ("c0", "c1", "c2", "c3"))
    assert c.scaled == (90, 135, 360, 240)
    assert c.rotated(1).scaled == (135, 360, 240, 90)
    assert c.reflected().scaled == (240, 360, 135, 90)


def test_cone_angles_are_fractions():
    # computed from coordinates and declared (here as ints) alike
    computed = cross_pattern()
    declared = build_crease_pattern(
        computed.vertices, computed.creases, SQUARE,
        declared_angles={"v0": (60, 120, 60, 120)},
        boundary_points=computed.boundary_points)
    for cp in (computed, declared):
        angles = cone_at(cp, "v0").angles
        assert all(type(a) is Fraction for a in angles)
    assert angles == (60, 120, 60, 120)
    assert all(type(a) is Fraction for a in declared.declared_angles["v0"])


@pytest.mark.parametrize("make", [lambda: miura(3, 3), lambda: triangle_twist(2), crane],
                         ids=["miura-3x3", "twists-2", "crane"])
def test_each_vertex_scales_its_angles_once(monkeypatch, make):
    # the build checks each distinct declared list on its scaled angles once
    # and keeps them for every cone holding it; a cone computed from
    # coordinates scales its own
    calls = []
    scale = cp_module._scale_angles

    def counting(angles):
        calls.append(angles)
        return scale(angles)

    monkeypatch.setattr(cp_module, "_scale_angles", counting)
    cp = make()
    cones = [cone_at(cp, v) for v in cp.interior_vertex_ids()]
    computed = len(cp.vertices) - len(cp.declared_angles)
    assert len(calls) == len(set(cp.declared_angles.values())) + computed
    for v, cone in zip(cp.interior_vertex_ids(), cones):
        assert cone.scaled == scale(cone.angles)[1]
        if v in cp.declared_angles:
            assert cone.angles == cp.declared_angles[v]
            assert cone.scaled is cp.declared_scaled[v]


# the benchmark decks' patterns: ingest (Miura, a seeded modified-Miura mask
# and the snake at 6x6, 8x8 and 10x10), count (4x5, 5x4 and snake 5x5), the
# crane and the joined twists, and seeded masks of other sizes
_TRACED = {f"{kind}-{m}x{n}": (kind, m, n, 1)
           for kind in ("miura", "modified-miura", "snake")
           for m, n in ((6, 6), (8, 8), (10, 10), (4, 5), (5, 4))}
_TRACED["snake-5x5"] = ("snake", 5, 5, 1)
_TRACED.update({f"mask-{2 + s % 6}x{2 + s // 6}-seed{s}": ("modified-miura", 2 + s % 6, 2 + s // 6, s)
                for s in range(30)})
# no interior vertex, and ring nodes that hold two chords each
_TRACED.update({f"snake-1x{n}": ("snake", 1, n, 1) for n in range(2, 6)})
# X's and vertical chords (tests/test_tiling.py): ring nodes that hold
# several creases, and a chord that splits the paper
_CHORDS = {"x1-chord3": ((1,), (3,), 4), "x1-x5": ((1, 5), (), 6),
           "x1-x5-chord3": ((1, 5), (3,), 6)}


def _traced_pattern(name):
    if name == "crane":
        return crane()
    if name in _CHORDS:
        return x_and_chords(*_CHORDS[name])
    if name.startswith("twists-"):
        return triangle_twist(int(name[-1]))
    kind, m, n, seed = _TRACED[name]
    if kind == "miura":
        return miura(m, n)
    return small_pattern(kind, m, n, seed)


@pytest.mark.parametrize("name", ["crane", "twists-1", "twists-2", "twists-3", *_TRACED,
                                  *_CHORDS])
def test_face_trace_matches_the_reference(monkeypatch, name):
    # the trace numbers half-edges by edge, so a half-edge's twin is h ^ 1,
    # and follows one successor table (``_before``); the reference finds
    # each next half-edge by its edge's place in the node's crease list and
    # builds every rotation of each face. Every field, and every dict's
    # order but corner_faces' (a lookup table), must come out the same
    cp = _traced_pattern(name)
    calls = []
    trace = cp_module._trace_faces
    monkeypatch.setattr(cp_module, "_trace_faces", lambda *a: calls.append(a) or trace(*a))
    built = build_crease_pattern(cp.vertices, cp.creases, cp.region,
                                 declared_angles=cp.declared_angles,
                                 boundary_points=cp.boundary_points)
    faces, sides, corners, ccw, dirs, tour = reference_trace_faces(*calls[0])
    assert built.faces == faces
    assert list(built.crease_sides.items()) == list(sides.items())
    assert built.corner_faces == corners
    assert list(built.ccw_creases.items()) == list(ccw.items())
    assert list(built.ccw_dirs.items()) == list(dirs.items())
    assert built.boundary_tour == tour


def test_least_rotation_of_a_face_that_visits_its_least_node_twice():
    # a triangle hung off a by two creases to the edge: the face around it
    # passes a twice. It is traced from a toward p1, but named by its
    # rotation from a toward c, which puts it between f0 and f2
    cp = build_crease_pattern(
        vertices={"a": (2, 1), "b": (3, 3), "c": (1, 3)},
        creases={"k0": ("a", "b"), "k1": ("b", "c"), "k2": ("a", "p0"),
                 "k3": ("a", "p1"), "k4": ("c", "a")},
        region=SQUARE,
        boundary_points={"p0": (1, 0), "p1": (3, 0)},
    )
    assert {f.id: f.nodes for f in cp.faces} == {
        "f0": ("a", "b", "c"),
        "f1": ("a", "p1", "r1", "r2", "r3", "r0", "p0", "a", "c", "b"),
        "f2": ("a", "p0", "p1"),
        "outer": ("p0", "r0", "r3", "r2", "r1", "p1"),
    }
    for f in cp.faces:
        rotations = [f.nodes[j:] + f.nodes[:j] for j in range(len(f.nodes))]
        assert cp_module._least_rotation(f.nodes) == min(rotations)


def test_face_trace_looks_up_each_half_edge_successor_once(monkeypatch):
    # each face's next half-edge comes from the successor table, read once
    # per half-edge at the step that leaves it: 2E reads for E edges
    lookups = [0]

    class CountingTable(list):
        def __getitem__(self, i):
            lookups[0] += 1
            return super().__getitem__(i)

    before = cp_module._before
    monkeypatch.setattr(cp_module, "_before",
                        lambda order, leaving, n: CountingTable(before(order, leaving, n)))
    cp = miura(20, 20)
    ring = next(f for f in cp.faces if f.is_outer).nodes
    n_edges = len(cp.creases) + len(ring)
    assert (len(cp.creases), len(ring)) == (760, 80)
    assert lookups[0] == 2 * n_edges
