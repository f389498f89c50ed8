"""Parametric constructors for the crease-pattern families used by the
tests and the CLI: Miura-ori, modified Miura-ori, snake tessellations,
triangle twists (single, mirror-joined pairs and chains) and the crane,
plus split_waterbomb, which rewrites one waterbomb vertex of a pattern.

Geometry conventions: patterns whose true sector angles are irrational in
degrees carry per-vertex declared angle lists; coordinates are exact
rationals chosen to reproduce the correct combinatorial embedding.
``_Builder.declare`` writes such a list: it orders a vertex's creases by
``cp``'s crease-order rule and asks a family's sector rule for the angle
between each consecutive pair of crease directions.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cp import CreasePattern, _angle_ranks, _ccw_ids, build_crease_pattern, cone_at
from .errors import BadMaskLength, InvalidParameter, NotWaterbomb, ValidationError
from .geometry import dot, primitive

F = Fraction


@dataclass(frozen=True)
class PatternSpec:
    """Family name plus family-specific parameters, as used by the CLI.

    ``family`` is a key of FAMILIES: miura, modified-miura, snake,
    triangle-twist, joined-twists or crane.
    """

    family: str
    m: int = 1
    n: int = 1
    mask: tuple[bool, ...] = ()
    count: int = 1

    def build(self) -> "CreasePattern":
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}")
        return FAMILIES[self.family].build(self)


class Family(NamedTuple):
    """How a PatternSpec builds one family, and the integer parameters the
    CLI takes for it: the PatternSpec fields they fill, in order. A family
    with a default count may leave its count out."""

    build: Callable[[PatternSpec], CreasePattern]
    params: tuple[str, ...] = ()
    default_count: int | None = None


FAMILIES = {
    "miura": Family(lambda s: miura(s.m, s.n), ("m", "n")),
    "modified-miura": Family(lambda s: modified_miura(s.m, s.n, s.mask), ("m", "n")),
    "snake": Family(lambda s: snake(s.m, s.n), ("m", "n")),
    "triangle-twist": Family(lambda s: triangle_twist(s.count), ("count",), 1),
    "joined-twists": Family(lambda s: triangle_twist(s.count), ("count",), 2),
    "crane": Family(lambda s: crane()),
}


class _Builder:
    """Accumulates vertices, boundary points and creases, reusing ids by
    position. Each kind numbers its ids in order of registration."""

    def __init__(self):
        self.vertices = {}
        self.bpoints = {}
        self.creases = {}
        self.angles = {}
        self.at = {}   # node id -> ids of its creases
        self._by_pos = {}

    def vertex(self, x, y) -> str:
        return self._point(self.vertices, "v", x, y)

    def bpoint(self, x, y) -> str:
        return self._point(self.bpoints, "b", x, y)

    def _point(self, points: dict, prefix: str, x, y) -> str:
        """The id at (x, y); a new one, registered in points, if none yet."""
        key = (F(x), F(y))
        if key not in self._by_pos:
            self._by_pos[key] = pid = f"{prefix}{len(points)}"
            points[pid] = key
        return self._by_pos[key]

    def crease(self, a: str, b: str) -> str:
        cid = f"c{len(self.creases)}"
        self.creases[cid] = (a, b)
        self.at.setdefault(a, []).append(cid)
        self.at.setdefault(b, []).append(cid)
        return cid

    def declare(self, vid: str, sector) -> None:
        """Declare vid's sector angles in cone_at's order: sector(d1, d2)
        of each ccw-consecutive pair of crease directions (primitive)."""
        p = self.vertices[vid]
        dirs = {}
        for cid in self.at[vid]:
            a, b = self.creases[cid]
            other = b if a == vid else a
            q = self.vertices.get(other) or self.bpoints[other]
            dirs[cid] = primitive((q[0] - p[0], q[1] - p[1]))
        ids = _ccw_ids(dirs, _angle_ranks(dirs.values()))
        self.angles[vid] = tuple(sector(dirs[c1], dirs[c2])
                                 for c1, c2 in zip(ids, ids[1:] + ids[:1]))

    def build(self, region) -> CreasePattern:
        return build_crease_pattern(self.vertices, self.creases, region,
                                    declared_angles=self.angles,
                                    boundary_points=self.bpoints)


def _zigzag_sheet(b: _Builder, m: int, n: int, zx) -> list[tuple[Fraction, Fraction]]:
    """Crease an n x m sheet: vertical zig-zag polylines j = 1..n-1 through
    (zx(j, i), i) for i = 0..m, then the horizontal row lines i = 1..m-1,
    split at their zig vertices in increasing x (a vertex two polylines
    share is one vertex). Returns the sheet's region."""
    for j in range(1, n):
        for i in range(m):
            p = (zx(j, i), F(i))
            q = (zx(j, i + 1), F(i + 1))
            a = b.vertex(*p) if 0 < i else b.bpoint(*p)
            c = b.vertex(*q) if i + 1 < m else b.bpoint(*q)
            b.crease(a, c)
    for i in range(1, m):
        xs = sorted({zx(j, i) for j in range(1, n)})
        nodes = [b.bpoint(F(0), F(i))]
        nodes += [b.vertex(x, F(i)) for x in xs]
        nodes.append(b.bpoint(F(n), F(i)))
        for a, c in zip(nodes, nodes[1:]):
            b.crease(a, c)
    return [(F(0), F(0)), (F(n), F(0)), (F(n), F(m)), (F(0), F(m))]


def miura(m: int, n: int, acute=F(60)) -> CreasePattern:
    """m x n array of congruent parallelograms (bird's-foot vertices)."""
    return modified_miura(m, n, (False,) * max(n - 1, 0), acute=acute)


def modified_miura(m: int, n: int, mask, acute=F(60), shear=F(1, 4)) -> CreasePattern:
    """Miura with the selected zig-zag columns reflected left-to-right.

    Columns of parallelograms are separated by n-1 vertical zig-zag
    polylines; mask[j] reflects polyline j. Horizontal row lines are
    straight. Sector angles are declared (default 60/120; the shear only
    shapes the drawing).
    """
    if m < 1 or n < 1:
        raise InvalidParameter("m, n >= 1")
    mask = tuple(bool(x) for x in mask)
    if len(mask) != max(n - 1, 0):
        raise BadMaskLength(f"mask needs {n - 1} entries, got {len(mask)}")
    b = _Builder()
    s = F(shear)
    if not (0 < s < F(1, 2)):
        raise InvalidParameter("shear must be in (0, 1/2)")

    def zx(j: int, i: int) -> Fraction:
        sigma = -1 if mask[j - 1] else 1
        return j + s * sigma * (-1) ** i

    # with the shear below 1/2, zx rises strictly with j: no two columns meet
    region = _zigzag_sheet(b, m, n, zx)

    # declared angles at the interior vertices: acute where the true sector is
    def zigzag(d1, d2):
        return F(acute) if dot(d1, d2) > 0 else 180 - F(acute)

    for j in range(1, n):
        for i in range(1, m):
            b.declare(b.vertex(zx(j, i), F(i)), zigzag)
    return b.build(region)


def snake(m: int, n: int) -> CreasePattern:
    """Snake tessellation: 45-degree modified Miura with alternating
    reflections at shear 1/2, where heel-to-heel vertex pairs coincide and
    fuse into degree-6 waterbomb vertices.

    All directions are 45-degree multiples, so angles come straight from
    the coordinates.
    """
    if m < 1 or n < 1:
        raise InvalidParameter("m, n >= 1")
    b = _Builder()
    s = F(1, 2)

    def sigma(j: int) -> int:
        return -1 if j % 2 == 0 else 1

    def zx(j: int, i: int) -> Fraction:
        return j + s * sigma(j) * (-1) ** i

    return b.build(_zigzag_sheet(b, m, n, zx))


def crane() -> CreasePattern:
    """The flapping-bird pattern: all vertices degree 4 except the central
    degree-6 waterbomb vertex.

    Diamond-oriented square; creases: the vertical spine, four rays to the
    edge midpoints, petal folds meeting the spine at two points, kite lines
    crossing each other on the horizontal axis (the wing vertices), and the
    head/tail V creases. Every direction is a 45-degree multiple, so all
    sector angles come straight from the coordinates.
    """
    b = _Builder()
    N, E, S, W = (0, 4), (4, 0), (0, -4), (-4, 0)
    O = b.vertex(0, 0)
    PN, PS = b.vertex(0, 2), b.vertex(0, -2)
    H, T = b.vertex(0, 3), b.vertex(0, -3)
    WE, WW = b.vertex(2, 0), b.vertex(-2, 0)
    Qs = {}
    for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        Qs[(sx, sy)] = b.vertex(sx, sy)
    # spine
    b.crease(O, PN)
    b.crease(PN, H)
    b.crease(H, b.bpoint(*N))
    b.crease(O, PS)
    b.crease(PS, T)
    b.crease(T, b.bpoint(*S))
    # rays to the edge midpoints
    for (sx, sy), q in Qs.items():
        b.crease(O, q)
        b.crease(q, b.bpoint(2 * sx, 2 * sy))
    # petal folds
    b.crease(Qs[(1, 1)], PN)
    b.crease(Qs[(-1, 1)], PN)
    b.crease(Qs[(1, -1)], PS)
    b.crease(Qs[(-1, -1)], PS)
    # kite lines through the wing crossings
    b.crease(Qs[(1, 1)], WE)
    b.crease(Qs[(1, -1)], WE)
    b.crease(WE, b.bpoint(3, 1))
    b.crease(WE, b.bpoint(3, -1))
    b.crease(Qs[(-1, 1)], WW)
    b.crease(Qs[(-1, -1)], WW)
    b.crease(WW, b.bpoint(-3, 1))
    b.crease(WW, b.bpoint(-3, -1))
    # head and tail
    b.crease(H, b.bpoint(F(1, 2), F(7, 2)))
    b.crease(H, b.bpoint(F(-1, 2), F(7, 2)))
    b.crease(T, b.bpoint(F(1, 2), F(-7, 2)))
    b.crease(T, b.bpoint(F(-1, 2), F(-7, 2)))
    return b.build([S, E, N, W])


# -- triangle twists -----------------------------------------------------------

# Twist geometry lives on the 60-degree sheared lattice: lattice (x, y)
# renders as x + y/2, y*sqrt(3)/2. The six unit directions are exact
# 60-degree multiples, so sector angles are known without coordinates. The
# shear keeps orientation, so the creases' ccw order on the lattice
# coordinates is their rendered order.
_LATTICE_DIRS = {
    (1, 0): 0, (0, 1): 60, (-1, 1): 120, (-1, 0): 180, (0, -1): 240, (1, -1): 300,
}


def _ray_to_rect(p, d, xlo, xhi, ylo, yhi):
    """Exact first intersection of the ray p + t*d with the rectangle: the
    smallest positive t, over the sides d is not parallel to, at which the
    ray meets the closed rectangle."""
    px, py = F(p[0]), F(p[1])
    dx, dy = F(d[0]), F(d[1])
    ts = ([(F(x) - px) / dx for x in (xlo, xhi) if dx]
          + [(F(y) - py) / dy for y in (ylo, yhi) if dy])
    for t, q in sorted((t, (px + t * dx, py + t * dy)) for t in ts if t > 0):
        if F(xlo) <= q[0] <= F(xhi) and F(ylo) <= q[1] <= F(yhi):
            return q
    raise ValidationError("ray misses the region")


# Joined twists: unit k + 1 is unit k's image under row k, a reflection as a
# point map and a direction map on the lattice: across the true-vertical
# line through lattice x = -1, then across the line perpendicular to unit
# 1's outgoing strip rays (on the lattice, a coordinate swap about a fixed
# point on the strip).
_TWIST_REFLECTIONS = (
    (lambda p: (-2 - p[0] - p[1], p[1]), lambda d: (-d[0] - d[1], d[1])),
    (lambda p: (p[1] - 5, p[0] + 5), lambda d: (d[1], d[0])),
)
# shared strips: unit k and k + 1 share the images of these corners' second
# rays (the CA strip for the first pair), joined by one connector crease each
_TWIST_SHARED = (("A", "C"), ("B", "C"))


def triangle_twist(count: int = 1) -> CreasePattern:
    """One triangle twist, or a chain of mirror-joined twists (count <= 3).

    Adjacent units share the two creases of one pleat strip; the mirror
    arrangement makes one shared crease the heel of both end vertices and
    the other a toe of both.
    """
    if count not in (1, 2, 3):
        raise InvalidParameter("count must be 1, 2 or 3")
    units = [{"A": (0, 0), "B": (1, 0), "C": (0, 1)}]
    ray_dirs = [dict(A=[(1, -1), (-1, 0)], B=[(1, -1), (0, 1)], C=[(0, 1), (-1, 0)])]
    for pt, vec in _TWIST_REFLECTIONS[:count - 1]:
        units.append({k: pt(p) for k, p in units[-1].items()})
        ray_dirs.append({k: [vec(d) for d in ds] for k, ds in ray_dirs[-1].items()})

    b = _Builder()
    vid = {}
    for t, u in enumerate(units):
        for k, p in u.items():
            vid[(t, k)] = b.vertex(*p)
    # triangle edges
    for t in range(count):
        for k1, k2 in (("A", "B"), ("B", "C"), ("C", "A")):
            b.crease(vid[(t, k1)], vid[(t, k2)])

    # connector creases between mirror-paired corners
    connected = set()
    for t, shared in enumerate(_TWIST_SHARED[:count - 1]):
        for k in shared:
            b.crease(vid[(t, k)], vid[(t + 1, k)])
            p1, p2 = units[t][k], units[t + 1][k]
            d = primitive((p2[0] - p1[0], p2[1] - p1[1]))
            connected.add((t, k, tuple(d)))
            connected.add((t + 1, k, (-d[0], -d[1])))

    # free rays to the boundary
    xs = [p[0] for u in units for p in u.values()]
    ys = [p[1] for u in units for p in u.values()]
    # fractional top margin keeps diagonal rays off the region corners
    xlo, xhi = min(xs) - 3, max(xs) + 3
    ylo, yhi = min(ys) - 2, max(ys) + F(5, 2)
    for t, u in enumerate(units):
        for k, p in u.items():
            for d in ray_dirs[t][k]:
                if (t, k, tuple(d)) in connected:
                    continue
                q = _ray_to_rect(p, d, xlo, xhi, ylo, yhi)
                b.crease(vid[(t, k)], b.bpoint(*q))

    def lattice_sector(d1, d2):
        return F((_LATTICE_DIRS[d2] - _LATTICE_DIRS[d1]) % 360)

    for v in vid.values():
        b.declare(v, lattice_sector)

    region = [(F(xlo), F(ylo)), (F(xhi), F(ylo)), (F(xhi), F(yhi)), (F(xlo), F(yhi))]
    return b.build(region)


def split_waterbomb(cp: CreasePattern, v: str) -> CreasePattern:
    """Replace a degree-6 waterbomb vertex by two bird's feet with a heel.

    A waterbomb has cyclic angles (a, a, b, a, a, b) with a < b. The two
    new vertices sit a short way along the middle crease of each triple;
    locally-valid assignments of the new pattern restrict bijectively to
    the original's. Raises NotWaterbomb otherwise.
    """
    cone = cone_at(cp, v)
    if cone.degree != 6:
        raise NotWaterbomb(f"vertex {v} has degree {cone.degree}")
    rot = None
    for k in range(6):
        a = cone.rotated(k).angles
        if a[0] == a[1] == a[3] == a[4] and a[2] == a[5] and a[0] < a[2]:
            rot = cone.rotated(k)
            break
    if rot is None:
        raise NotWaterbomb(f"vertex {v} is not an (a,a,b,a,a,b) waterbomb")
    a_val = rot.angles[0]
    triple1 = rot.crease_ids[0:3]
    triple2 = rot.crease_ids[3:6]

    p = cp.vertices[v]
    # preserve exact cones of v's neighbours (their crease directions move)
    declared = dict(cp.declared_angles)
    for c in cone.crease_ids:
        w = cp.crease_other_end(c, v)
        if w in cp.vertices and w not in declared:
            wc = cone_at(cp, w)
            declared[w] = wc.angles

    def anchor(cid):
        far = cp.point_of(cp.crease_other_end(cid, v))
        return (far[0] - p[0], far[1] - p[1])

    d1 = anchor(triple1[1])
    d2 = anchor(triple2[1])
    t = F(1, 8)
    birdfoot = (a_val, a_val, 180 - a_val, 180 - a_val)
    while t > F(1, 4096):
        va = (p[0] + t * d1[0], p[1] + t * d1[1])
        vb = (p[0] + t * d2[0], p[1] + t * d2[1])
        vertices = {k: pt for k, pt in cp.vertices.items() if k != v}
        va_id, vb_id = f"{v}a", f"{v}b"
        vertices[va_id] = va
        vertices[vb_id] = vb
        creases = {}
        for cid, (x, y) in cp.creases.items():
            if v in (x, y):
                side = va_id if cid in triple1 else vb_id
                creases[cid] = (side, x if y == v else y)
            else:
                creases[cid] = (x, y)
        heel_id = f"{v}heel"
        creases[heel_id] = (va_id, vb_id)
        decl = dict(declared)
        decl.pop(v, None)
        for nid, trip in ((va_id, triple1), (vb_id, triple2)):
            order = list(trip) + [heel_id]
            k = order.index(min(order))
            decl[nid] = tuple(birdfoot[(k + i) % 4] for i in range(4))
        try:
            return build_crease_pattern(
                vertices, creases, cp.region,
                declared_angles=decl, boundary_points=cp.boundary_points)
        except ValidationError:
            t /= 4
    raise NotWaterbomb(f"could not embed the split of {v}")
