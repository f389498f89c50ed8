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

The face trace takes one gcd per edge (crease or boundary segment): an
edge's primitive direction at its far end is the negation of the one at
its first end. It numbers the half-edges by edge, 2k leaving edge k's
first end and 2k + 1 its second, so a half-edge's twin is h ^ 1. Each
node's ccw order fills one table, ``before[h]``, the half-edge leaving h's
node along the edge before h's; a face steps from h to ``before[h ^ 1]``,
so each face is traced once, one table lookup per half-edge. The build's
planarity sweep finds each crease's candidates by bisection on the boxes'
sorted left edges.

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

Every cone also keeps its angles scaled to integers (``ConeVertex.scaled``):
each angle times one positive integer, the lcm of their denominators for a
cone built from its angles; a rotation, reflection or crimp keeps its
cone's scale. A uniform positive scale keeps every sign, equality, order
and zero sum, so the single-vertex layer (Kawasaki's test, the minimal
runs and the crimp recursion) and the declared-angle checks give on these
ints the answers they would give on the Fractions. The Fractions stay the
public values.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from numbers import Rational

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
_EXACT_TYPES = frozenset((Fraction, int))


@dataclass(frozen=True)
class ConeVertex:
    """Cyclic sector angles and crease ids around one vertex.

    angles[i] sits between crease_ids[i] and crease_ids[(i+1) % n].
    The cone total may differ from 360 after crimps. Each angle is a
    rational number (a Fraction or an int); ``scaled`` holds the angles
    times one positive integer that makes them all ints (the module
    docstring states the rule).
    """

    angles: tuple[Angle, ...]
    crease_ids: tuple[str, ...]
    scaled: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.angles) != len(self.crease_ids):
            raise ValidationError("angle/crease count mismatch")
        if not self.angles:
            raise ValidationError("a cone needs at least one sector")
        object.__setattr__(self, "scaled", _scale_angles(self.angles)[1])
        if any(a <= 0 for a in self.scaled):
            raise ValidationError("sector angles must be positive")

    @classmethod
    def _of(cls, angles: tuple[Angle, ...], crease_ids: tuple[str, ...],
            scaled: tuple[int, ...]) -> "ConeVertex":
        """A cone whose scaled angles are already known, unchecked:
        ``scaled`` must be ``angles`` times one positive integer."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "angles", angles)
        object.__setattr__(cone, "crease_ids", crease_ids)
        object.__setattr__(cone, "scaled", scaled)
        return cone

    @property
    def degree(self) -> int:
        return len(self.crease_ids)

    @property
    def cone_total(self) -> Fraction:
        return sum(self.angles, Fraction(0))

    def rotated(self, k: int) -> "ConeVertex":
        k %= self.degree
        return ConeVertex._of(self.angles[k:] + self.angles[:k],
                              self.crease_ids[k:] + self.crease_ids[:k],
                              self.scaled[k:] + self.scaled[:k])

    def reflected(self) -> "ConeVertex":
        """Mirror image: the cyclic sequence read in the opposite direction."""
        ids = (self.crease_ids[0],) + tuple(reversed(self.crease_ids[1:]))
        return ConeVertex._of(self.angles[::-1], ids, self.scaled[::-1])

    def sector(self, i: int) -> tuple[str, str]:
        """(left, right) crease-id pair bounding sector i."""
        return (self.crease_ids[i], self.crease_ids[(i + 1) % self.degree])


def _scale_angles(angles) -> tuple[int, tuple[int, ...]]:
    """(d, the angles times d), d the lcm of the angles' denominators.

    Raises ValidationError naming the first angle that is not a rational
    number (a float, a bool or a str). Fractions and ints pass without the
    abstract ``Rational`` check."""
    if not _EXACT_TYPES.issuperset(map(type, angles)):
        for a in angles:
            if isinstance(a, bool) or not isinstance(a, Rational):
                raise ValidationError(f"sector angle {a!r} is not a rational number")
    dens = [a.denominator for a in angles]
    d = lcm(*dens)
    return d, tuple([a.numerator * (d // q) for a, q in zip(angles, dens)])


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
    # interior vertex -> its coordinates on the build's integer lattice
    # (one uniform positive scale, so they sort as the Fractions do)
    lattice: dict[str, tuple[int, int]] = field(default_factory=dict, repr=False,
                                                compare=False)
    # declared vertex -> its declared angles scaled as ``ConeVertex.scaled``
    declared_scaled: dict[str, tuple[int, ...]] = field(default_factory=dict, repr=False,
                                                        compare=False)
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

    An id names one node: no interior vertex may share a boundary point's
    id (refused before any crease is checked). The face trace names the
    boundary segments s0, s1, ... in ring order beside the creases, and
    refuses a crease id that holds one of those names; it names region
    corner i ``r<i>`` beside the nodes, unless a boundary point lies there,
    and refuses a node id that holds that name.

    Every geometric test runs on Python ints. Once the coordinates are
    Fractions, all of them (region corners, vertices and boundary points)
    are multiplied by one even integer, ``2 * lcm`` of their denominators.
    A uniform positive scale keeps every orientation sign, equality and
    order along a line, so convexity, containment, the sweep, the segment
    tests and the face trace give the answers they would give on the
    rationals; the factor 2 keeps every crease midpoint an integer. The
    returned pattern holds the original Fractions, and keeps the interior
    vertices' integer copies (``lattice``, which the oracle's sweep sorts)
    and each declared list's scaled angles (``declared_scaled``, which
    ``cone_at`` reads), so neither is computed again. A declared list is
    checked and scaled once per distinct list; every vertex holding it
    gets the one result, and a failing list is reported at the first
    vertex, in the order given, that holds it.

    A boundary point's place is the region edge (a, b) holding it with
    p != b, and its offset dot(p - a, b - a); 0 means it is corner a, no
    place means it is off the boundary. The boundary tour lists the creases
    ending on the boundary as a ccw walk just inside it meets them from
    corner 0: at each node, its ccw order from the outgoing boundary segment
    to the incoming one, reversed (falling angle from the walk's direction).

    The planarity check is a sort-and-sweep rather than an all-pairs loop.
    Each crease's exact closed bounding box is computed once, and the boxes
    are sorted by their left edge. The boxes whose x-interval overlaps a
    given one, later in that order, are a run of it: from the next box to
    the last whose left edge is not past the given box's right edge, found
    by bisection. A box of that run whose
    y-interval also overlaps makes a candidate pair. Creases whose boxes are
    disjoint cannot touch, so only candidates reach the exact
    ``segments_conflict`` test, which decides a pair that shares an
    endpoint (most candidates) with one cross and one dot product. Creases
    are then checked in sorted id order, each crease's candidates in
    ascending order, so the first ``CrossingCreases`` raised is the one an
    all-pairs loop would raise.

    A crease may touch the boundary only at its ends, and the all-pairs
    loop tests that by its midpoint. Only chords, creases with both ends
    at boundary points, need the test: every interior vertex is already
    checked strictly inside, and the region is convex, so the open segment
    from an interior vertex to any point of the region lies strictly
    inside it. A crease that is not a chord would pass, so skipping it
    keeps the first message.
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

    for k in vertices:
        if k in boundary_points:
            raise ValidationError(f"id {k} names both an interior vertex and a boundary point")
    degree = {v: 0 for v in vertices}
    for cid, (a, b) in creases.items():
        for end in (a, b):
            if end in degree:
                degree[end] += 1
            elif end not in boundary_points:
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
        x, y = p
        for (ax, ay), (ex, ey) in rim:
            if ex * (y - ay) - ey * (x - ax) <= 0:
                return False
        return True

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
    xlo = [min(p[0], q[0]) for p, q in segs]
    xhi = [max(p[0], q[0]) for p, q in segs]
    ylo = [min(p[1], q[1]) for p, q in segs]
    yhi = [max(p[1], q[1]) for p, q in segs]
    candidates: list[list[int]] = [[] for _ in items]
    by_left = sorted(range(len(items)), key=xlo.__getitem__)
    lefts = [xlo[k] for k in by_left]
    for at, j in enumerate(by_left):
        # the boxes after j by left edge whose left edge is not past j's
        # right edge, found by bisection: the later boxes j's x-interval meets
        top, bottom = yhi[j], ylo[j]
        for k in [k for k in by_left[at + 1:bisect_right(lefts, xhi[j], at + 1)]
                  if ylo[k] <= top and bottom <= yhi[k]]:
            if j < k:
                candidates[j].append(k)
            else:
                candidates[k].append(j)
    # walking creases in id order keeps the first error the all-pairs one
    for i, (c1, (a, b)) in enumerate(items):
        p1, q1 = segs[i]
        if a in ibpoints and b in ibpoints:     # a chord (see the docstring)
            mid = ((p1[0] + q1[0]) // 2, (p1[1] + q1[1]) // 2)  # exact: coordinates are even
            if not _strictly_inside(mid):
                raise CrossingCreases(f"crease {c1} runs along the region boundary")
        for j in sorted(candidates[i]):
            if segments_conflict(p1, q1, *segs[j]):
                raise CrossingCreases(f"creases {c1} and {items[j][0]} intersect")

    # interior vertices: even degree (counted with the endpoint checks)
    for v, d in degree.items():
        if d == 0:
            raise ValidationError(f"isolated interior vertex {v}")
        if d % 2 != 0:
            raise OddDegreeInteriorVertex(f"vertex {v} has degree {d}")

    # declared angle sanity, once per distinct list, on the angles scaled
    # once for the pattern's cones
    declared_scaled = {}
    checked: dict[tuple[Angle, ...], tuple[int, ...]] = {}
    for v, angs in declared_angles.items():
        if v not in vertices:
            raise ValidationError(f"declared angles for unknown vertex {v}")
        if len(angs) != degree[v]:
            raise ValidationError(f"vertex {v}: {len(angs)} angles for degree {degree[v]}")
        scaled = checked.get(angs)
        if scaled is None:
            d, scaled = _scale_angles(angs)
            if any(a <= 0 for a in scaled):
                raise ValidationError(f"vertex {v}: non-positive declared angle")
            if sum(scaled) != 360 * d:
                raise ValidationError(f"vertex {v}: declared angles sum to {sum(angs)}, not 360")
            checked[angs] = scaled
        declared_scaled[v] = scaled

    faces, crease_sides, corner_faces, ccw_creases, ccw_dirs, boundary_tour = \
        _trace_faces(ivertices, ibpoints, places, creases, iregion)

    return CreasePattern(
        vertices=vertices,
        boundary_points=boundary_points,
        creases=dict(items),
        region=region_t,
        declared_angles=declared_angles,
        faces=faces,
        crease_sides=crease_sides,
        corner_faces=corner_faces,
        ccw_creases=ccw_creases,
        ccw_dirs=ccw_dirs,
        boundary_tour=boundary_tour,
        lattice=ivertices,
        declared_scaled=declared_scaled,
    )


def _exact(x) -> Fraction:
    """x as a Fraction, reusing x when it already is one."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _angle_ranks(dirs) -> dict[tuple[int, int], int]:
    """Each distinct primitive direction's place counterclockwise from +x."""
    return {d: i for i, d in enumerate(sorted(set(dirs), key=ANGLE_KEY))}


def _ccw_ids(dirs: dict, rank) -> list[str]:
    """The crease-order rule: ids counterclockwise by their primitive
    direction, rotated so the lowest id leads. The directions are sorted
    by ``rank``, their places from ``_angle_ranks``; a pattern ranks all
    its directions once, so that each node's sort compares ints. ``dirs``
    maps each id to its direction, or to a key (the face trace's
    half-edge) that ``rank`` maps to the direction's place."""
    ids = [i for _, i in sorted(zip(map(rank.__getitem__, dirs.values()), dirs))]
    k = ids.index(min(ids))
    return ids[k:] + ids[:k]


def _least_rotation(nodes: tuple[str, ...]) -> tuple[str, ...]:
    """The least rotation of a face's node tuple, which starts at an
    occurrence of its least node (most faces have one)."""
    m = min(nodes)
    i = nodes.index(m)
    if nodes.count(m) == 1:
        return nodes[i:] + nodes[:i]
    return min(nodes[j:] + nodes[:j] for j, n in enumerate(nodes) if n == m)


def _before(order, leaving, n: int) -> list[int]:
    """The face trace's successor table over its n half-edges, from each
    node's edges in ccw order (``order``) and the half-edge that leaves
    the node along each (``leaving``): before[h] leaves h's node along the
    edge before h's. A face that arrives at a node along half-edge h
    leaves it along before[h ^ 1], since h ^ 1 is h's twin."""
    before = [0] * n
    for node, lst in order.items():
        out = leaving[node]
        g = out[lst[-1]]
        for h in map(out.__getitem__, lst):
            before[h], g = g, h
    return before


def _trace_faces(vertices, boundary_points, places, creases, region):
    """Planar face traversal. Returns (faces, crease_sides, corner_faces,
    ccw_creases, ccw_dirs, boundary_tour).

    Coordinates are the integer copies made by build_crease_pattern, and
    places[b] is boundary point b's (region edge, offset) from there.

    The half-edges are numbered by edge, the creases first and then the
    boundary segments: half-edge 2k leaves edge k's first end, and 2k + 1
    its second, so the twin of h is h ^ 1. Each edge's primitive direction
    is computed once (one gcd), at its first end, and negated at the
    other, and all directions are ranked once (``_angle_ranks``). Each
    node's ccw order of its edges (``_ccw_ids`` over its half-edges'
    ranks) fills the successor table (``_before``): a face steps from h to
    before[h ^ 1], so each face is traced once, one table lookup per
    half-edge. A face starts at its least half-edge by (node, edge) id,
    where a scan of all half-edges in sorted order would first meet it;
    the interior faces are named f0, f1, ... in order of their least
    node-tuple rotation, ties kept in that scan's order. Crease k's sides
    are the faces of half-edges 2k and 2k + 1.

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
            if f"r{i}" in pts:
                raise ValidationError(f"id r{i} is taken by region corner {i}")
            node_at[(i, 0)] = f"r{i}"
            pts[f"r{i}"] = p
    ring = [node_at[place] for place in sorted(node_at)]
    segs = [f"s{k}" for k in range(len(ring))]  # segs[k] joins ring[k], ring[k + 1]
    edges: dict[str, tuple[str, str]] = dict(creases)
    for k, sid in enumerate(segs):
        if sid in creases:
            raise ValidationError(f"crease id {sid} is taken by boundary segment {k}")
        edges[sid] = (ring[k], ring[(k + 1) % len(ring)])

    # half-edge h leaves node tails[h] along edge refs[h] in primitive
    # direction heading[h], whose place from _angle_ranks is hplace[h];
    # leaving[n] maps each edge at node n to the half-edge leaving n along it
    tails = list(chain.from_iterable(edges.values()))
    refs = list(chain.from_iterable(zip(edges, edges)))
    heading: list[tuple[int, int]] = []
    leaving: dict[str, dict[str, int]] = {n: {} for n in pts}
    for h, (eid, (a, b)) in zip(range(0, 2 * len(edges), 2), edges.items()):
        (xa, ya), (xb, yb) = pts[a], pts[b]
        dx, dy = primitive((xb - xa, yb - ya))
        heading += ((dx, dy), (-dx, -dy))
        leaving[a][eid], leaving[b][eid] = h, h + 1
    hplace = list(map(_angle_ranks(heading).__getitem__, heading))
    for n, out in leaving.items():
        if len(set(map(hplace.__getitem__, out.values()))) != len(out):
            raise ValidationError(f"overlapping creases at {n}")
    order = {n: _ccw_ids(out, hplace) for n, out in leaving.items()}  # node -> its edges, ccw
    before = _before(order, leaving, len(refs))

    face_of = [-1] * len(refs)
    walks: list[list[int]] = []
    for h in range(len(refs)):
        if face_of[h] < 0:
            f = len(walks)
            walk = []
            while face_of[h] < 0:
                face_of[h] = f
                walk.append(h)
                h = before[h ^ 1]
            walks.append(walk)
    # a connected plane graph has E - V + 2 faces; an island (a component
    # off the ring) adds a second outer walk. Otherwise the outer face is
    # the one clockwise along the ring: that of the half-edge leaving
    # ring[1] along s0, edge len(creases).
    if len(walks) != len(edges) - len(pts) + 2:
        raise ValidationError("face traversal failed to find a unique outer face")
    outer = face_of[2 * len(creases) + 1]

    # each face from its least half-edge; interior faces named by least
    # node rotation, ties in order of that half-edge
    keys = list(zip(tails, refs))
    for walk in walks:
        i = walk.index(min(walk, key=keys.__getitem__))
        walk[:] = walk[i:] + walk[:i]
    nodes = [tuple(map(tails.__getitem__, w)) for w in walks]
    interior = sorted((f for f in range(len(walks)) if f != outer),
                      key=lambda f: (_least_rotation(nodes[f]), keys[walks[f][0]]))
    names = [""] * len(walks)
    for k, f in enumerate(interior):
        names[f] = f"f{k}"
    names[outer] = "outer"
    faces = tuple(Face(id=names[f], nodes=nodes[f],
                       edge_refs=tuple(map(refs.__getitem__, walks[f])),
                       is_outer=f == outer)
                  for f in interior + [outer])

    # the face left of each half-edge; crease k's half-edges are 2k and 2k + 1
    face_name = list(map(names.__getitem__, face_of))
    crease_sides = dict(zip(creases, zip(face_name[::2], face_name[1::2])))
    # the sector running ccw from crease d to the next, e, at v lies in
    # the face of the half-edge leaving v along d
    corner_faces = {(v, d, e): face_name[leaving[v][d]]
                    for v in vertices for d, e in zip(order[v][-1:] + order[v], order[v])}
    ccw_creases = {v: tuple(order[v]) for v in vertices}
    ccw_dirs = {v: tuple(map(heading.__getitem__, map(leaving[v].__getitem__, order[v])))
                for v in vertices}
    # at a ring node the walk meets the creases by falling angle from its
    # direction: the node's order from the outgoing segment round to the
    # incoming one, reversed
    tour = []
    for k, n in enumerate(ring):
        lst = order[n]
        i = lst.index(segs[k])
        after = lst[i + 1:] + lst[:i]
        tour += reversed(after[:after.index(segs[k - 1])])
    return faces, crease_sides, corner_faces, ccw_creases, ccw_dirs, tuple(tour)


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
        # checked by build_crease_pattern: positive, one per crease
        cone = ConeVertex._of(cp.declared_angles[v], ids, cp.declared_scaled[v])
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
        cone = ConeVertex(angles=tuple(angles), crease_ids=ids)
        # whole degrees: the scale is 1, so the scaled angles are the angles
        if sum(cone.scaled) != 360:
            raise ValidationError(f"vertex {v}: computed angles do not close up")
    cp._cones[v] = cone
    return cone
