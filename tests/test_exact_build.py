"""build_crease_pattern against a pure-Fraction reference.

The build runs every geometric predicate on integer-scaled copies of the
coordinates. The reference below replays the same checks, in the same
order and with the same messages, directly on Fractions: an all-pairs
planarity loop and a face trace that sorts directions by exact angle
comparison, which also gives each interior vertex's crease order, and a
boundary tour sorted by region edge, offset and exact cotangent.
Patterns whose coordinates mix pairwise-coprime denominators (3, 7, 1009)
would expose any sign, equality or order the scaling changed as a
different verdict, message, face or crease order.
"""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatfold import build_crease_pattern
from flatfold.cp import Face, cone_at
from flatfold.errors import (
    CrossingCreases,
    DanglingCrease,
    FlatfoldError,
    OddDegreeInteriorVertex,
    ValidationError,
)
from flatfold.generators import miura, snake, triangle_twist
from flatfold.geometry import angle_cmp, on_segment, orient, segments_conflict

F = Fraction


def _area2(poly):
    return sum((poly[i][0] * poly[(i + 1) % len(poly)][1]
                - poly[(i + 1) % len(poly)][0] * poly[i][1]
                for i in range(len(poly))), F(0))


def reference_build(vertices, creases, region, declared_angles, boundary_points):
    """(faces, crease_sides, corner_faces, ccw_creases, boundary_tour), or
    raises the error the build should raise first."""
    vertices = {k: (F(x), F(y)) for k, (x, y) in vertices.items()}
    bpoints = {k: (F(x), F(y)) for k, (x, y) in boundary_points.items()}
    angles = {k: tuple(F(a) for a in v) for k, v in declared_angles.items()}
    region = [(F(x), F(y)) for x, y in region]
    if _area2(region) < 0:
        region.reverse()
    for cid, (a, b) in creases.items():
        for end in (a, b):
            if end not in vertices and end not in bpoints:
                raise DanglingCrease(f"crease {cid} endpoint {end} undeclared")
        if a == b:
            raise ValidationError(f"crease {cid} is degenerate")
    pts = {**vertices, **bpoints}
    if len(set(pts.values())) != len(pts):
        raise ValidationError("coincident vertices/boundary points")
    if _area2(region) == 0:
        raise ValidationError("region polygon is degenerate: it needs at least "
                              "three corners and a nonzero area")
    n = len(region)
    sides = [(region[i], region[(i + 1) % n]) for i in range(n)]
    if any(orient(region[i - 1], region[i], region[(i + 1) % n]) < 0 for i in range(n)):
        raise ValidationError("region polygon must be convex")
    for bid, p in bpoints.items():
        if not any(on_segment(p, a, b) for a, b in sides):
            raise ValidationError(f"boundary point {bid} not on the region boundary")

    def inside(p):
        return all(orient(a, b, p) > 0 for a, b in sides)

    for vid, p in vertices.items():
        if not inside(p):
            raise ValidationError(f"interior vertex {vid} is not strictly inside the region")
    items = sorted(creases.items())
    for i, (c1, (a1, b1)) in enumerate(items):
        p, q = pts[a1], pts[b1]
        if not inside(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)):
            raise CrossingCreases(f"crease {c1} runs along the region boundary")
        for c2, (a2, b2) in items[i + 1:]:
            if segments_conflict(p, q, pts[a2], pts[b2]):
                raise CrossingCreases(f"creases {c1} and {c2} intersect")
    degree = {v: sum(v in ends for ends in creases.values()) for v in vertices}
    for v, d in degree.items():
        if d == 0:
            raise ValidationError(f"isolated interior vertex {v}")
        if d % 2:
            raise OddDegreeInteriorVertex(f"vertex {v} has degree {d}")
    for v, angs in angles.items():
        if v not in vertices:
            raise ValidationError(f"declared angles for unknown vertex {v}")
        if len(angs) != degree[v]:
            raise ValidationError(f"vertex {v}: {len(angs)} angles for degree {degree[v]}")
        if any(a <= 0 for a in angs):
            raise ValidationError(f"vertex {v}: non-positive declared angle")
        if sum(angs) != 360:
            raise ValidationError(f"vertex {v}: declared angles sum to {sum(angs)}, not 360")
    return (*_reference_faces(vertices, bpoints, creases, region),
            _reference_tour(vertices, bpoints, creases, region))


def _reference_tour(vertices, bpoints, creases, region):
    """The creases ending on the boundary, one entry per boundary end,
    ordered by (region edge the end starts or lies on, offset along that
    edge, rising cotangent of the crease against the edge direction)."""
    pts = {**vertices, **bpoints}
    n = len(region)
    events = []
    for c, (a, b) in creases.items():
        for end, other in ((a, b), (b, a)):
            if end not in bpoints:
                continue
            p = bpoints[end]
            i = next(i for i in range(n) if p != region[(i + 1) % n]
                     and on_segment(p, region[i], region[(i + 1) % n]))
            start, stop = region[i], region[(i + 1) % n]
            d = (stop[0] - start[0], stop[1] - start[1])
            u = (pts[other][0] - p[0], pts[other][1] - p[1])
            offset = (p[0] - start[0]) * d[0] + (p[1] - start[1]) * d[1]
            cot = (d[0] * u[0] + d[1] * u[1]) / (d[0] * u[1] - d[1] * u[0])
            events.append(((i, offset, cot), c))
    return tuple(c for _, c in sorted(events))


def _reference_faces(vertices, bpoints, creases, region):
    """Next-edge-counterclockwise face trace on Fractions, with the build's
    node, boundary-segment and face ids, and each interior vertex's creases
    in that trace's angular order, rotated so the lowest id leads."""
    n = len(region)
    pts = {**vertices, **bpoints}
    corner = {}
    for i, p in enumerate(region):
        at = [bid for bid, q in bpoints.items() if q == p]
        if at:
            corner[i] = at[0]
            continue
        if p in vertices.values():
            raise ValidationError("interior vertex coincides with a region corner")
        corner[i] = f"r{i}"
        pts[f"r{i}"] = p
    edges = dict(creases)
    seg = 0
    for i in range(n):
        a, b = region[i], region[(i + 1) % n]
        on_edge = sorted((abs(p[0] - a[0]) + abs(p[1] - a[1]), bid)
                         for bid, p in bpoints.items()
                         if on_segment(p, a, b) and p not in (a, b))
        chain = [corner[i]] + [bid for _, bid in on_edge] + [corner[(i + 1) % n]]
        for u, v in zip(chain, chain[1:]):
            edges[f"s{seg}"] = (u, v)
            seg += 1
    around = {node: [] for node in pts}
    for eid, (a, b) in edges.items():
        for u, v in ((a, b), (b, a)):
            around[u].append(((pts[v][0] - pts[u][0], pts[v][1] - pts[u][1]), eid, v))
    for node, lst in around.items():
        # insertion sort by exact angle comparison; equal angles overlap
        ordered = []
        for item in lst:
            k = len(ordered)
            while k and angle_cmp(ordered[k - 1][0], item[0]) > 0:
                k -= 1
            if k and angle_cmp(ordered[k - 1][0], item[0]) == 0:
                raise ValidationError(f"overlapping creases at {node}")
            ordered.insert(k, item)
        around[node] = [(eid, v) for _, eid, v in ordered]

    def step(he):
        u, eid, v = he
        lst = around[v]
        k = lst.index((eid, u))
        e2, w = lst[k - 1]
        return (v, e2, w)

    seen, walks = set(), []
    for he in sorted({(a, e, b) for e, (a, b) in edges.items()}
                     | {(b, e, a) for e, (a, b) in edges.items()}):
        walk = []
        while he not in seen:
            seen.add(he)
            walk.append(he)
            he = step(he)
        if walk:
            walks.append(walk)
    outer = [w for w in walks if _area2([pts[u] for u, _, _ in w]) < 0]
    if len(outer) != 1:
        raise ValidationError("face traversal failed to find a unique outer face")

    def canon(walk):
        nodes = [u for u, _, _ in walk]
        return min(tuple(nodes[i:] + nodes[:i]) for i in range(len(nodes)))

    inner = sorted((w for w in walks if w is not outer[0]), key=canon)
    face_of, faces = {}, []
    for fid, walk, is_outer in ([(f"f{i}", w, False) for i, w in enumerate(inner)]
                                + [("outer", outer[0], True)]):
        faces.append(Face(fid, tuple(u for u, _, _ in walk),
                          tuple(e for _, e, _ in walk), is_outer))
        face_of.update((he, fid) for he in walk)
    sides = {c: (face_of[(a, c, b)], face_of[(b, c, a)]) for c, (a, b) in creases.items()}
    corners = {}
    for face in faces:
        walk = [(face.nodes[i], face.edge_refs[i]) for i in range(len(face.nodes))]
        for i, (_, e1) in enumerate(walk):
            v, e2 = walk[(i + 1) % len(walk)]
            if v in vertices:
                corners[(v, e2, e1)] = face.id
    ccw = {}
    for v in vertices:
        ids = [eid for eid, _ in around[v]]
        k = ids.index(min(ids))
        ccw[v] = tuple(ids[k:] + ids[:k])
    return tuple(faces), sides, corners, ccw


# -- patterns with pairwise-coprime denominators ------------------------------

BASES = {"miura 2x2": miura(2, 2), "miura 3x3": miura(3, 3),
         "snake 2x3": snake(2, 3), "twist": triangle_twist(1)}
coef = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 3, 7, 1009]))
unit = st.sampled_from([3, 7, 1009]).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda k: F(k, q)))


@st.composite
def patterns(draw):
    """An affine image of a valid pattern, then maybe one edit that may
    break it: a new crease, a moved vertex, a new vertex or boundary
    point, a dropped crease or a dented region."""
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    a, b, c, d = (draw(coef) for _ in range(4))
    assume(a * d != b * c)
    shift = (draw(coef), draw(coef))

    def image(p):
        return (a * p[0] + b * p[1] + shift[0], c * p[0] + d * p[1] + shift[1])

    vertices = {k: image(p) for k, p in base.vertices.items()}
    bpoints = {k: image(p) for k, p in base.boundary_points.items()}
    region = [image(p) for p in base.region]
    creases = dict(base.creases)
    angles = dict(base.declared_angles)
    nodes = sorted({**vertices, **bpoints})

    def between(p, q):
        t = draw(unit)
        return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))

    pts = {**vertices, **bpoints}
    edit = draw(st.sampled_from(["none", "crease", "move", "vertex", "bpoint",
                                 "drop", "dent"]))
    if edit == "crease":
        creases["x0"] = (draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)))
    elif edit == "move" and vertices:
        v = draw(st.sampled_from(sorted(vertices)))
        vertices[v] = between(pts[draw(st.sampled_from(nodes))],
                              pts[draw(st.sampled_from(nodes))])
    elif edit == "vertex":
        vertices["vx"] = between(pts[draw(st.sampled_from(nodes))],
                                 pts[draw(st.sampled_from(nodes))])
        for k in range(draw(st.integers(1, 4))):
            creases[f"x{k}"] = ("vx", draw(st.sampled_from(nodes)))
    elif edit == "bpoint":
        i = draw(st.integers(0, len(region) - 1))
        p = between(region[i], region[(i + 1) % len(region)])
        if draw(st.booleans()):
            p = (p[0] + draw(coef) / 1009, p[1])
        bpoints["bx"] = p
        creases["x0"] = ("bx", draw(st.sampled_from(nodes)))
    elif edit == "drop":
        del creases[draw(st.sampled_from(sorted(creases)))]
    elif edit == "dent":
        i = draw(st.integers(0, len(region) - 1))
        region[i] = between(region[i], region[(i + 2) % len(region)])
    return vertices, creases, region, angles, bpoints


def _outcome(thunk):
    try:
        return ("ok", thunk())
    except FlatfoldError as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=200, deadline=None)
@given(patterns())
def test_build_matches_fraction_reference(args):
    vertices, creases, region, angles, bpoints = args
    expected = _outcome(lambda: reference_build(*args))
    got = _outcome(lambda: build_crease_pattern(
        vertices, creases, region, declared_angles=angles, boundary_points=bpoints))
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok", got
    cp = got[1]
    assert (cp.faces, cp.crease_sides, cp.corner_faces, cp.ccw_creases,
            cp.boundary_tour) == expected[1]
    for v, ids in expected[1][3].items():
        try:
            cone = cone_at(cp, v)
        except ValidationError:  # angles neither declared nor 45-degree multiples
            continue
        assert cone.crease_ids == ids
    stored = (list(cp.vertices.values()) + list(cp.boundary_points.values())
              + list(cp.region))
    assert all(type(x) is Fraction for p in stored for x in p)
    assert all(type(x) is Fraction for angs in cp.declared_angles.values() for x in angs)


def test_reference_agrees_on_the_bases():
    for cp in BASES.values():
        expected = reference_build(
            cp.vertices, cp.creases, cp.region, cp.declared_angles, cp.boundary_points)
        assert expected == (cp.faces, cp.crease_sides, cp.corner_faces, cp.ccw_creases,
                            cp.boundary_tour)
