"""Crease patterns as exact planar embedded graphs.

A pattern lives on a bounded polygonal region. Creases join interior
vertices and/or boundary points; faces are derived by the standard
next-edge-counterclockwise traversal. Coordinates are exact rationals.

The creases around a vertex are always read in one order: counterclockwise
by exact direction, rotated so the lowest crease id leads. ``_ccw_ids``
states that rule; the face trace applies it and records each interior
vertex's order in ``CreasePattern.ccw_creases`` and the creases' primitive
integer directions in ``CreasePattern.ccw_dirs``, which ``cone_at`` reads.
``cone_at`` computes a vertex's cone once per pattern and keeps it on the
pattern.

The build places each boundary point once (its region edge and offset);
the trace orders the boundary by place and records the boundary tour,
``CreasePattern.boundary_tour``, which tiling reads.

Sector angles around a vertex come from one of two sources:

* declared per-vertex angle lists (exact rationals in degrees, listed
  counterclockwise starting at the sector that follows the lowest-id
  crease), for patterns whose true angles are irrational in degrees, or
* the coordinates themselves, but only when every consecutive direction
  pair differs by a multiple of 45 degrees -- the one family where
  rational coordinates determine rational degree measures exactly. The
  angles come from the face trace's integer directions, so no rational
  arithmetic is repeated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm

from .errors import (
    CrossingCreases,
    DanglingCrease,
    NotInteriorVertex,
    OddDegreeInteriorVertex,
    ValidationError,
)
from .geometry import (
    ANGLE_KEY,
    Point,
    dot,
    on_segment,
    orient,
    polygon_signed_area2,
    primitive,
    sector_45,
    segments_conflict,
    sub,
)

Angle = Fraction  # sector angle in exact degrees
MVAssignment = dict[str, int]  # crease id -> +1 mountain / -1 valley
# the one translation between MV values and color steps (s(head) - s(tail))
# mod 3 across a crossing edge: 1 for mountain, 2 for valley; step 0 reads 0
STEP_OF_MV = {1: 1, -1: 2}
MV_OF_STEP = (0, 1, -1)


@dataclass(frozen=True)
class ConeVertex:
    """Cyclic sector angles and crease ids around one vertex.

    angles[i] sits between crease_ids[i] and crease_ids[(i+1) % n].
    The cone total may differ from 360 after crimps.
    """

    angles: tuple[Angle, ...]
    crease_ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.angles) != len(self.crease_ids):
            raise ValidationError("angle/crease count mismatch")
        if any(a <= 0 for a in self.angles):
            raise ValidationError("sector angles must be positive")

    @property
    def degree(self) -> int:
        return len(self.crease_ids)

    @property
    def cone_total(self) -> Fraction:
        return sum(self.angles, Fraction(0))

    def rotated(self, k: int) -> "ConeVertex":
        n = self.degree
        k %= n
        return ConeVertex(self.angles[k:] + self.angles[:k],
                          self.crease_ids[k:] + self.crease_ids[:k])

    def reflected(self) -> "ConeVertex":
        """Mirror image: the cyclic sequence read in the opposite direction."""
        n = self.degree
        ids = (self.crease_ids[0],) + tuple(reversed(self.crease_ids[1:]))
        angs = tuple(reversed(self.angles))
        return ConeVertex(angs, ids)

    def sector(self, i: int) -> tuple[str, str]:
        """(left, right) crease-id pair bounding sector i."""
        return (self.crease_ids[i], self.crease_ids[(i + 1) % self.degree])


@dataclass(frozen=True)
class Face:
    id: str
    nodes: tuple[str, ...]       # node ids along the walk (ccw for interior faces)
    edge_refs: tuple[str, ...]   # crease / boundary segment ids, edge_refs[i] joins nodes[i], nodes[i+1]
    is_outer: bool


@dataclass(frozen=True)
class CreasePattern:
    """Validated planar crease pattern with derived faces."""

    vertices: dict[str, Point]             # interior vertices
    boundary_points: dict[str, Point]      # crease endpoints on the region boundary
    creases: dict[str, tuple[str, str]]    # crease id -> (endpoint id, endpoint id)
    region: tuple[Point, ...]              # ccw polygon
    declared_angles: dict[str, tuple[Angle, ...]]
    faces: tuple[Face, ...] = field(default=())
    crease_sides: dict[str, tuple[str, str]] = field(default_factory=dict)
    # (vertex, left crease, right crease) -> face id for ccw-consecutive pairs
    corner_faces: dict[tuple[str, str, str], str] = field(default_factory=dict)
    # interior vertex -> its crease ids, counterclockwise, lowest id first
    ccw_creases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # interior vertex -> the primitive integer direction of each of those creases
    ccw_dirs: dict[str, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    # creases ending on the boundary in ccw walk order (a chord appears twice)
    boundary_tour: tuple[str, ...] = ()
    # cone_at's memo: interior vertex -> its ConeVertex
    _cones: dict[str, ConeVertex] = field(default_factory=dict, init=False,
                                          repr=False, compare=False)

    def point_of(self, node_id: str) -> Point:
        if node_id in self.vertices:
            return self.vertices[node_id]
        if node_id in self.boundary_points:
            return self.boundary_points[node_id]
        raise KeyError(node_id)

    def interior_vertex_ids(self) -> list[str]:
        return sorted(self.vertices)

    def crease_other_end(self, c: str, v: str) -> str:
        a, b = self.creases[c]
        return b if a == v else a

    def interior_faces(self) -> list[Face]:
        return [f for f in self.faces if not f.is_outer]


def build_crease_pattern(vertices, creases, region, declared_angles=None,
                         boundary_points=None) -> CreasePattern:
    """Validate and assemble a crease pattern, computing faces, each
    interior vertex's crease order (``ccw_creases``) and crease directions
    (``ccw_dirs``) and the boundary tour (``boundary_tour``) from the face
    trace. Values that already are Fractions are kept as they are.

    vertices: {id: (x, y)} interior vertices, exact rationals.
    creases: {id: (end_id, end_id)} endpoints reference vertices or boundary points.
    region: sequence of polygon corners, any orientation.
    declared_angles: {vertex id: [angles ccw starting after the lowest-id crease]}.
    boundary_points: {id: (x, y)} points on the region boundary.

    Every geometric test runs on Python ints. Once the coordinates are
    Fractions, all of them (region corners, vertices and boundary points)
    are multiplied by one even integer, ``2 * lcm`` of their denominators.
    A uniform positive scale keeps every orientation sign, equality and
    order along a line, so convexity, containment, the sweep, the segment
    tests and the face trace give the answers they would give on the
    rationals; the factor 2 keeps every crease midpoint an integer. The
    returned pattern holds the original Fractions.

    A boundary point's place is the region edge (a, b) holding it with
    p != b, and its offset dot(p - a, b - a); 0 means it is corner a, no
    place means it is off the boundary. The boundary tour lists the creases
    ending on the boundary as a ccw walk just inside it meets them from
    corner 0: at each node, its ccw order from the outgoing boundary segment
    to the incoming one, reversed (falling angle from the walk's direction).

    The planarity check is a sort-and-sweep rather than an all-pairs loop.
    Each crease's exact closed bounding box is computed once, and the boxes
    are swept in order of their left edge. A box leaves the active list once
    its right edge lies left of the new box; an active box whose y-interval
    also overlaps the new one makes a candidate pair. Creases whose boxes are
    disjoint cannot touch, so only candidates reach the exact
    ``segments_conflict`` test, which decides a pair that shares an
    endpoint (most candidates) with one cross and one dot product. Creases
    are then checked in sorted id order, each crease's candidates in
    ascending order, so the first ``CrossingCreases`` raised is the one an
    all-pairs loop would raise.
    """
    vertices = {k: (_exact(x), _exact(y)) for k, (x, y) in vertices.items()}
    boundary_points = {k: (_exact(x), _exact(y))
                       for k, (x, y) in (boundary_points or {}).items()}
    declared_angles = {k: tuple(_exact(a) for a in v)
                       for k, v in (declared_angles or {}).items()}
    region = [(_exact(x), _exact(y)) for (x, y) in region]
    scale = 2 * lcm(*(c.denominator
                      for p in chain(region, vertices.values(), boundary_points.values())
                      for c in p))

    def lattice(p: Point) -> tuple[int, int]:
        return (p[0].numerator * (scale // p[0].denominator),
                p[1].numerator * (scale // p[1].denominator))

    # the predicates below see only these integer copies
    ivertices = {k: lattice(p) for k, p in vertices.items()}
    ibpoints = {k: lattice(p) for k, p in boundary_points.items()}
    iregion = [lattice(p) for p in region]
    area2 = polygon_signed_area2(iregion)
    if area2 < 0:
        region.reverse()
        iregion.reverse()
    region_t = tuple(region)

    for cid, (a, b) in creases.items():
        for end in (a, b):
            if end not in vertices and end not in boundary_points:
                raise DanglingCrease(f"crease {cid} endpoint {end} undeclared")
        if a == b:
            raise ValidationError(f"crease {cid} is degenerate")

    pts = {**ivertices, **ibpoints}
    if len(set(pts.values())) != len(pts):
        raise ValidationError("coincident vertices/boundary points")

    nreg = len(iregion)
    if area2 == 0 or len(set(iregion)) < nreg:  # zero area also for < 3 corners
        raise ValidationError("region polygon is degenerate: it needs at least "
                              "three corners and a nonzero area")
    # region must be convex: segments with endpoints inside then stay inside,
    # which keeps boundary-contact validation exact and simple
    for i in range(nreg):
        if orient(iregion[i - 1], iregion[i], iregion[(i + 1) % nreg]) < 0:
            raise ValidationError("region polygon must be convex")

    # each rim edge as (corner, edge vector); p is strictly inside when it
    # lies strictly left of every edge
    rim = [(a, sub(iregion[(i + 1) % nreg], a)) for i, a in enumerate(iregion)]

    def _strictly_inside(p) -> bool:
        return all(ex * (p[1] - ay) - ey * (p[0] - ax) > 0
                   for (ax, ay), (ex, ey) in rim)

    # each boundary point's place (see the docstring)
    places: dict[str, tuple[int, int]] = {}
    for bid, p in ibpoints.items():
        for i in range(nreg):
            a, b = iregion[i], iregion[(i + 1) % nreg]
            if p != b and on_segment(p, a, b):
                places[bid] = (i, dot(sub(p, a), sub(b, a)))
                break
        else:
            raise ValidationError(f"boundary point {bid} not on the region boundary")
    for vid, p in ivertices.items():
        if not _strictly_inside(p):
            raise ValidationError(f"interior vertex {vid} is not strictly inside the region")

    # planarity: creases may meet only at shared endpoints, and may touch the
    # region boundary only at boundary-point endpoints (see the docstring for
    # the sweep that picks the candidate pairs)
    items = sorted(creases.items())
    segs = [(pts[a], pts[b]) for _, (a, b) in items]
    boxes = [(min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1]))
             for p, q in segs]
    candidates: list[list[int]] = [[] for _ in items]
    active: list[int] = []
    for k in sorted(range(len(items)), key=lambda k: boxes[k][0]):
        xmin, _, ymin, ymax = boxes[k]
        active = [j for j in active if boxes[j][1] >= xmin]
        for j in active:
            if boxes[j][2] <= ymax and ymin <= boxes[j][3]:
                candidates[min(j, k)].append(max(j, k))
        active.append(k)
    # walking creases in id order keeps the first error the all-pairs one
    for i, (c1, _) in enumerate(items):
        p1, q1 = segs[i]
        mid = ((p1[0] + q1[0]) // 2, (p1[1] + q1[1]) // 2)  # exact: coordinates are even
        if not _strictly_inside(mid):
            raise CrossingCreases(f"crease {c1} runs along the region boundary")
        for j in sorted(candidates[i]):
            if segments_conflict(p1, q1, *segs[j]):
                raise CrossingCreases(f"creases {c1} and {items[j][0]} intersect")

    # interior vertices: even degree
    degree = {v: 0 for v in vertices}
    for cid, (a, b) in creases.items():
        for end in (a, b):
            if end in degree:
                degree[end] += 1
    for v, d in degree.items():
        if d == 0:
            raise ValidationError(f"isolated interior vertex {v}")
        if d % 2 != 0:
            raise OddDegreeInteriorVertex(f"vertex {v} has degree {d}")

    # declared angle sanity
    for v, angs in declared_angles.items():
        if v not in vertices:
            raise ValidationError(f"declared angles for unknown vertex {v}")
        if len(angs) != degree[v]:
            raise ValidationError(f"vertex {v}: {len(angs)} angles for degree {degree[v]}")
        if any(a <= 0 for a in angs):
            raise ValidationError(f"vertex {v}: non-positive declared angle")
        if sum(angs) != 360:
            raise ValidationError(f"vertex {v}: declared angles sum to {sum(angs)}, not 360")

    faces, crease_sides, corner_faces, ccw_creases, ccw_dirs, boundary_tour = \
        _trace_faces(ivertices, ibpoints, places, creases, iregion)

    return CreasePattern(
        vertices=vertices,
        boundary_points=boundary_points,
        creases=dict(sorted(creases.items())),
        region=region_t,
        declared_angles=declared_angles,
        faces=faces,
        crease_sides=crease_sides,
        corner_faces=corner_faces,
        ccw_creases=ccw_creases,
        ccw_dirs=ccw_dirs,
        boundary_tour=boundary_tour,
    )


def _exact(x) -> Fraction:
    """x as a Fraction, reusing x when it already is one."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _ccw_ids(dirs: dict[str, tuple[int, int]]) -> list[str]:
    """The crease-order rule: ids counterclockwise by their primitive
    direction, rotated so the lowest id leads."""
    ids = sorted(dirs, key=lambda i: ANGLE_KEY(dirs[i]))
    k = ids.index(min(ids))
    return ids[k:] + ids[:k]


def _trace_faces(vertices, boundary_points, places, creases, region):
    """Planar face traversal. Returns (faces, crease_sides, corner_faces,
    ccw_creases, ccw_dirs, boundary_tour).

    Coordinates are the integer copies made by build_crease_pattern, and
    places[b] is boundary point b's (region edge, offset) from there.

    crease_sides[c] = (left face, right face) relative to the stored (a, b)
    direction of crease c. corner_faces[(v, cL, cR)] = face occupying the
    sector that runs ccw from crease cL to crease cR at vertex v.
    ccw_creases[v] = the creases at interior vertex v in _ccw_ids order,
    and ccw_dirs[v] their primitive directions away from v (a uniform
    scale keeps primitive directions, so they are those of the rationals).
    boundary_tour is as build_crease_pattern states it.
    """
    pts: dict[str, tuple[int, int]] = {**vertices, **boundary_points}

    # the boundary ring: every boundary node in place order. A boundary
    # point at offset 0 doubles as its edge's first corner (creases may end
    # at paper corners); any other corner becomes a node r<i>.
    node_at = {place: bid for bid, place in places.items()}
    for i, p in enumerate(region):
        if (i, 0) not in node_at:
            node_at[(i, 0)] = f"r{i}"
            pts[f"r{i}"] = p
    ring = [node_at[place] for place in sorted(node_at)]
    segs = [f"s{k}" for k in range(len(ring))]  # segs[k] joins ring[k], ring[k + 1]
    edges: dict[str, tuple[str, str]] = dict(creases)
    for k, sid in enumerate(segs):
        edges[sid] = (ring[k], ring[(k + 1) % len(ring)])

    # incidence in the exact ccw order
    incident: dict[str, dict[str, tuple[int, int]]] = {n: {} for n in pts}
    for eid, (a, b) in edges.items():
        incident[a][eid] = primitive((pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]))
        incident[b][eid] = primitive((pts[a][0] - pts[b][0], pts[a][1] - pts[b][1]))
    order: dict[str, list[str]] = {}
    for n, dirs in incident.items():
        if len(set(dirs.values())) != len(dirs):
            raise ValidationError(f"overlapping creases at {n}")
        order[n] = _ccw_ids(dirs)

    # next half-edge: arriving at v from u, leave via the edge immediately
    # clockwise of the reversed direction (interior faces traced ccw).
    def next_half_edge(u: str, eid: str, v: str) -> tuple[str, str, str]:
        lst = order[v]
        e2 = lst[lst.index(eid) - 1]
        a, b = edges[e2]
        return (v, e2, b if a == v else a)

    half_edges = {h for e, (a, b) in edges.items() for h in ((a, e, b), (b, e, a))}
    walks = []
    seen = set()
    for he in sorted(half_edges):
        if he in seen:
            continue
        walk = []
        cur = he
        while cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = next_half_edge(*cur)
        walks.append(walk)

    # identify outer face by signed area of the walk polygon
    face_rows = [(w, polygon_signed_area2([pts[u] for u, _, _ in w])) for w in walks]
    outers = [w for w, a2 in face_rows if a2 < 0]
    if len(outers) != 1:
        raise ValidationError("face traversal failed to find a unique outer face")

    # deterministic face ids: sort interior walks by canonical node tuple
    def canon(walk):
        nodes = tuple(u for (u, _, _) in walk)
        rots = [nodes[i:] + nodes[:i] for i in range(len(nodes))]
        return min(rots)

    interior = sorted((w for w, a2 in face_rows if a2 >= 0), key=canon)
    named = [(f"f{i}", w) for i, w in enumerate(interior)] + [("outer", outers[0])]
    faces = []
    he_face: dict[tuple[str, str, str], str] = {}
    for fid, walk in named:
        faces.append(Face(
            id=fid,
            nodes=tuple(u for (u, _, _) in walk),
            edge_refs=tuple(e for (_, e, _) in walk),
            is_outer=fid == "outer",
        ))
        he_face.update((he, fid) for he in walk)

    crease_sides = {cid: (he_face[(a, cid, b)], he_face[(b, cid, a)])
                    for cid, (a, b) in creases.items()}

    # corners: consecutive half-edges (u -> v), (v -> w) of a face put the
    # sector running ccw from edge (v,w) to edge (v,u) inside that face.
    corner_faces = {}
    for f, walk in named:
        n = len(walk)
        for i in range(n):
            u, e1, v = walk[i]
            _, e2, w = walk[(i + 1) % n]
            if v in vertices:
                corner_faces[(v, e2, e1)] = f
    ccw_creases = {v: tuple(order[v]) for v in vertices}
    ccw_dirs = {v: tuple(incident[v][c] for c in order[v]) for v in vertices}
    # at a ring node the walk meets the creases by falling angle from its
    # direction: the node's order from the outgoing segment round to the
    # incoming one, reversed
    tour = []
    for k, n in enumerate(ring):
        lst = order[n]
        i = lst.index(segs[k])
        after = lst[i + 1:] + lst[:i]
        tour += reversed(after[:after.index(segs[k - 1])])
    return tuple(faces), crease_sides, corner_faces, ccw_creases, ccw_dirs, tuple(tour)


def cone_at(cp: CreasePattern, v: str) -> ConeVertex:
    """Cyclic angle/crease sequence at an interior vertex.

    The creases are the face trace's order, ``cp.ccw_creases[v]``:
    counterclockwise, the lowest crease id first. Angles come from the
    vertex's declared list when present, otherwise from the trace's integer
    crease directions, ``cp.ccw_dirs[v]`` (only exact for 45-degree
    multiples). The cone is computed once per pattern and kept on it, so
    every later call returns the same object.
    """
    cone = cp._cones.get(v)
    if cone is not None:
        return cone
    if v not in cp.vertices:
        raise NotInteriorVertex(v)
    ids = cp.ccw_creases[v]
    if v in cp.declared_angles:
        cone = ConeVertex(angles=cp.declared_angles[v], crease_ids=ids)
    else:
        dirs = cp.ccw_dirs[v]
        angles = []
        for d1, d2 in zip(dirs, dirs[1:] + dirs[:1]):
            a = sector_45(d1, d2)
            if a is None:
                raise ValidationError(
                    f"vertex {v}: sector angles are not 45-degree multiples; "
                    "declare them explicitly")
            angles.append(a)
        if sum(angles) != 360:
            raise ValidationError(f"vertex {v}: computed angles do not close up")
        cone = ConeVertex(angles=tuple(angles), crease_ids=ids)
    cp._cones[v] = cone
    return cone
