"""SAW graphs: the auxiliary planar graphs whose pre-colored proper
3-colorings biject with locally-valid MV assignments.

A SawGraph holds vertices placed in faces (pattern face ids, or
(left-crease, right-crease) sector pairs for graphs built from a bare
cone), undirected internal edges, and directed "crossing" edges tagged
with the crease they cross. The boundary walk is the closed walk around
the outer face; for single-vertex graphs every crossing edge lies on it.
These are exactly the fields of a pattern file's ``saw`` block, and
``==`` and ``repr`` see them alone, so a graph written to a file reads
back equal. Besides them a graph keeps only its next vertex and edge
ids, set past every row when it is built, so a graph built from its rows
never hands out an id it holds; only this module reads or writes them.
Nothing else is cached: the side of its crease a crossing edge leaves
from is the face of its tail.

Boundary surgery (insert_triangle, insert_prism, negate_orientations)
changes the graph it is given and returns None, as the construction
steps do; copy a graph first to keep the original. A refused surgery
leaves the graph unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .cp import ConeVertex
from .errors import (
    AllEqualHighDegree,
    EdgesNotAdjacent,
    InvalidParameter,
    KawasakiViolation,
    NotBoundaryEdge,
    NotThreeNice,
    TilingError,
    UnknownVariant,
    UnsupportedJ,
)
from .search import reach
from .single_vertex import crimp_trace, kawasaki_check


@dataclass
class SawVertex:
    id: int
    face: object = None  # face id (str), sector pair (tuple), or None


@dataclass
class SawEdge:
    """One row of a ``saw`` block's edges; nothing is stored besides."""

    id: int
    u: int                    # tail when directed
    v: int
    directed: bool = False
    crease: str | None = None

    def ends(self) -> tuple[int, int]:
        return (self.u, self.v)

    def other(self, w: int) -> int:
        return self.v if w == self.u else self.u


@dataclass
class SawGraph:
    vertices: dict[int, SawVertex] = field(default_factory=dict)
    edges: dict[int, SawEdge] = field(default_factory=dict)
    root: int = 0
    # boundary walk: steps (vertex, edge) meaning "from vertex, leave along
    # edge"; consecutive steps chain and the walk closes up
    walk: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        # the next ids handed out, past every row; not fields, so == and
        # repr see the rows alone
        self._next_v = max(self.vertices, default=-1) + 1
        self._next_e = max(self.edges, default=-1) + 1

    # -- construction helpers -------------------------------------------------

    def add_vertex(self, face=None) -> int:
        vid = self._next_v
        self._next_v += 1
        self.vertices[vid] = SawVertex(vid, face)
        return vid

    def add_edge(self, u: int, v: int, directed=False, crease=None) -> int:
        eid = self._next_e
        self._next_e += 1
        self.edges[eid] = SawEdge(eid, u, v, directed, crease)
        return eid

    def copy(self) -> "SawGraph":
        return SawGraph({k: SawVertex(k, v.face) for k, v in self.vertices.items()},
                        {k: SawEdge(k, e.u, e.v, e.directed, e.crease)
                         for k, e in self.edges.items()},
                        self.root, list(self.walk))

    # -- views ----------------------------------------------------------------

    def crossing_edges(self) -> dict[str, SawEdge]:
        return {e.crease: e for e in self.edges.values() if e.directed}

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for e in self.edges.values():
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        return adj

    def is_connected(self) -> bool:
        adj = self.adjacency()
        if not adj:
            return True
        found = reach(next(iter(adj)), adj.__getitem__)
        return len(list(found)) == len(adj)

    def walk_vertices(self) -> set[int]:
        return {v for v, _ in self.walk}

    def check_walk(self, steps: Iterable[int] | None = None):
        """Internal sanity: the walk chains and closes. ``steps`` limits the
        check to those step indices (taken modulo the walk's length), each
        checked against the step after it."""
        n = len(self.walk)
        if steps is None or not n:
            steps = range(n)
        for k in steps:
            i = k % n
            v, e = self.walk[i]
            edge = self.edges[e]
            if v not in edge.ends():
                raise TilingError(f"walk step {i} starts at SAW vertex {v}, "
                                  f"off its edge {e}", crease=edge.crease)
            nxt = self.walk[(i + 1) % n][0]
            if edge.other(v) != nxt:
                raise TilingError(f"walk step {i} along edge {e} does not reach "
                                  f"SAW vertex {nxt}", crease=edge.crease)

    def validate(self):
        self.check_walk()
        if not self.is_connected():
            raise TilingError("SAW graph is not connected")
        seen = set()
        for e in self.edges.values():
            if e.directed:
                if e.crease is None:
                    raise TilingError(f"directed edge {e.id} has no crease")
                if e.crease in seen:
                    raise TilingError("crease crossed twice", crease=e.crease)
                seen.add(e.crease)


# -- baby gadgets --------------------------------------------------------------

@dataclass
class GadgetFragment:
    """A baby SAW graph with its two attachment terminals."""

    graph: SawGraph
    first: int   # terminal by the run's first bordering crease
    last: int


def _add_gadget(g: SawGraph, creases: tuple[str, ...]):
    """Add the gadget for a run of j = len(creases) - 1 equal angles to g.

    Returns the directed path's j+2 vertices and j+1 edges (crossing the
    creases in order) and the apex (None for j = 2). Vertices get no face.
    """
    j = len(creases) - 1
    path = [g.add_vertex() for _ in range(j + 2)]
    apex = None if j == 2 else g.add_vertex()
    edges = [g.add_edge(path[t], path[t + 1], directed=True, crease=creases[t])
             for t in range(j + 1)]
    if j == 2:
        # closing constraint: on attachment the terminals are the endpoints
        # of an existing edge; standalone we keep it so |S| = 6
        g.add_edge(path[0], path[-1])
    else:
        # j = 1: two triangles sharing {w1, apex} force s(w0) = s(w2);
        # j = 3: the apex, adjacent to w0 and w1, pins the third color, and
        # {w1, w4}, {w4, apex} then force s(w4) = s(w0)
        for w in (path[0], path[1], path[-1]):
            g.add_edge(w, apex)
        if j == 3:
            g.add_edge(path[1], path[-1])
    return path, edges, apex


def baby_gadget(j: int, creases: tuple[str, ...] | None = None) -> GadgetFragment:
    """The gadget encoding the big-little-big constraint for a run of j angles.

    Pre-colored coloring counts are 2, 6 and 6 for j = 1, 2, 3; runs of
    four or more equal angles have no known gadget. The directed path
    crosses the j+1 bordering creases in order; edge ids 0..j are that
    path.
    """
    if j not in (1, 2, 3):
        raise UnsupportedJ(f"no baby SAW graph for runs of {j} equal angles")
    if creases is None:
        creases = tuple(f"c{i + 1}" for i in range(j + 1))
    if len(creases) != j + 1:
        raise InvalidParameter("need j+1 crease ids")
    g = SawGraph()
    path, edges, _ = _add_gadget(g, creases)
    g.root = path[0]
    g.walk = list(zip(path, edges))  # the directed path; open fragment
    return GadgetFragment(graph=g, first=path[0], last=path[-1])


# -- single-vertex construction -------------------------------------------------

def _degree2_saw(cone: ConeVertex) -> SawGraph:
    """Base case: one directed edge per crease between the two sector vertices."""
    g = SawGraph()
    ca, cb = cone.crease_ids
    v0 = g.add_vertex(face=(cb, ca))
    v1 = g.add_vertex(face=(ca, cb))
    ea = g.add_edge(v0, v1, directed=True, crease=ca)
    eb = g.add_edge(v0, v1, directed=True, crease=cb)
    g.root = v0
    g.walk = [(v0, ea), (v1, eb)]
    return g


def _all_equal4_saw(cone: ConeVertex) -> SawGraph:
    """All-equal degree-4 graph: directed 4-path, closing edge, apex.

    Realizes exactly the eight Maekawa assignments; |S| = 8.
    """
    g = SawGraph()
    ids = cone.crease_ids
    sec = [cone.sector(i) for i in range(4)]
    w0 = g.add_vertex(face=sec[3])
    w1 = g.add_vertex(face=sec[0])
    w2 = g.add_vertex(face=sec[1])
    w3 = g.add_vertex(face=sec[2])
    w4 = g.add_vertex(face=sec[3])
    w5 = g.add_vertex(face=sec[3])
    e0 = g.add_edge(w0, w1, directed=True, crease=ids[0])
    e1 = g.add_edge(w1, w2, directed=True, crease=ids[1])
    e2 = g.add_edge(w2, w3, directed=True, crease=ids[2])
    e3 = g.add_edge(w3, w4, directed=True, crease=ids[3])
    close = g.add_edge(w4, w0)
    for w in (w0, w2, w4):
        g.add_edge(w, w5)
    g.root = w0
    g.walk = [(w0, e0), (w1, e1), (w2, e2), (w3, e3), (w4, close)]
    return g


# the typed refusals of single_vertex_saw: the cone has no SAW graph here
_REFUSALS = (KawasakiViolation, NotThreeNice, AllEqualHighDegree)


def single_vertex_saw(cone: ConeVertex) -> SawGraph:
    """SAW graph for a 3-nice (or small all-equal) flat-foldable vertex.

    Follows the inductive construction: crimp down to the all-equal
    terminal (the cone itself when all its angles are equal), then unfold,
    splicing in baby gadgets. This is the one place that refuses a cone:
    KawasakiViolation if it fails the Kawasaki test, NotThreeNice if the
    recursion meets a run of four or more equal angles, and
    AllEqualHighDegree if the terminal has degree 6 or more.
    """
    if not kawasaki_check(cone):
        raise KawasakiViolation(message="cone fails the Kawasaki test")
    trace = crimp_trace(cone)
    if trace.max_j is not None and trace.max_j > 3:
        raise NotThreeNice(f"recursion meets a run of {trace.max_j} equal angles")
    term = trace.terminal
    if term.degree > 4:
        raise AllEqualHighDegree(
            f"no SAW graph for an all-equal terminal of degree {term.degree}")
    g = _degree2_saw(term) if term.degree == 2 else _all_equal4_saw(term)
    cones = [trace.start] + [s.result for s in trace.steps]
    for k in range(len(trace.steps) - 1, -1, -1):
        _unfold(g, cones[k], trace.steps[k].run)
    g.validate()
    return g


def _unfold(g: SawGraph, big: ConeVertex, run) -> None:
    """Expand g (a SAW graph of crimp(big, run)), in place, into a SAW
    graph of big."""
    n = big.degree
    j = run.j
    rot = big.rotated((run.start - 1) % n)
    ids = rot.crease_ids
    prev_id, last_id = ids[0], ids[j + 1]
    next_id = ids[(j + 2) % n]
    run_sectors = [(ids[1 + t], ids[2 + t]) for t in range(j)]

    if j % 2 == 1:
        merged_sector = (prev_id, next_id)
        left_sector = (prev_id, ids[1])
        right_sector = (last_id, next_id)
        host = min(v for v in g.walk_vertices()
                   if g.vertices[v].face == merged_sector)
        for v in g.vertices.values():
            if v.face == merged_sector and v.id != host:
                v.face = left_sector

        path, path_edges, apex = _add_gadget(g, ids[1:j + 2])
        a, b = path[0], path[-1]
        g.vertices[a].face = left_sector
        g.vertices[b].face = right_sector
        for w, sector in zip(path[1:-1], run_sectors):
            g.vertices[w].face = sector
        g.vertices[apex].face = run_sectors[0]

        # host's walk slot: entered from the prev side, left toward next
        idx = next(i for i, (v, _) in enumerate(g.walk) if v == host)
        e_in = g.walk[idx - 1][1]
        e_out = g.walk[idx][1]
        for e in list(g.edges.values()):
            if e.id in path_edges or host not in e.ends():
                continue
            side = b if e.crease != prev_id and (
                e.crease == next_id or e.id == e_out != e_in) else a
            if e.u == host:
                e.u = side
            else:
                e.v = side
        del g.vertices[host]
        if g.root == host:
            g.root = a
        g.walk = (g.walk[:idx] + list(zip(path, path_edges)) + [(b, e_out)]
                  + g.walk[idx + 1:])
        g.check_walk()
        return

    # even j: attach the directed path onto the survivor crease's edge
    survivor = run.survivor
    se = g.crossing_edges()[survivor]
    left_sector = (prev_id, survivor)
    # the chain runs from se.u: with the run's sectors and creases in
    # order when se.u is on the left, reversed otherwise
    order = 1 if g.vertices[se.u].face == left_sector else -1
    for v in g.vertices.values():
        if v.face == (survivor, next_id):
            v.face = (last_id, next_id)
    w1, w2 = (g.add_vertex(face=sector) for sector in run_sectors[::order])
    chain = [se.u, w1, w2, se.v]
    e_new = [g.add_edge(chain[t], chain[t + 1], directed=True, crease=c)
             for t, c in enumerate(ids[1:4][::order])]
    # demote the old edge; drop it if a parallel edge already exists
    if any(e.id != se.id and {e.u, e.v} == {se.u, se.v} for e in g.edges.values()):
        del g.edges[se.id]
    else:
        se.directed = False
        se.crease = None
    walk_idx = next(i for i, (_, e) in enumerate(g.walk) if e == se.id)
    _splice_path(g, walk_idx, 1, chain, e_new)


# -- degree-4 catalog ------------------------------------------------------------

_DEG4_CONES = {
    "BirdsFoot": (60, 60, 120, 120),
    "BLB": (45, 30, 75, 90),
    "AllEqual": (90, 90, 90, 90),
}

# reversal sets (by crossed crease index) that keep the bijection working
_DEG4_VARIANTS = {
    "BirdsFoot": ((), (0, 1, 2, 3)),
    "BLB": ((), (1, 2), (0, 3)),
    "AllEqual": ((), (0, 1), (0, 3)),
}


def deg4_saw(kind: str, variant: int = 0) -> SawGraph:
    """Catalog graph for one of the three degree-4 vertex types.

    ``variant`` picks an alternate legal orientation of the directed edges
    (0 is the construction default; BirdsFoot has 2 variants, BLB and
    AllEqual have 3).
    """
    if kind not in _DEG4_CONES:
        raise UnknownVariant(f"unknown degree-4 kind {kind!r}")
    variants = _DEG4_VARIANTS[kind]
    if not isinstance(variant, int) or not 0 <= variant < len(variants):
        raise UnknownVariant(f"{kind} has variants 0..{len(variants) - 1}")
    angles = tuple(Fraction(a) for a in _DEG4_CONES[kind])
    ids = tuple(f"c{i}" for i in range(4))
    g = single_vertex_saw(ConeVertex(angles, ids))
    flip = {f"c{i}" for i in variants[variant]}
    _reverse(e for e in g.edges.values() if e.directed and e.crease in flip)
    return g


def negate_orientations(g: SawGraph) -> None:
    """Reverse every directed edge of g, in place (always a legal variant)."""
    _reverse(e for e in g.edges.values() if e.directed)


def _reverse(edges: Iterable[SawEdge]) -> None:
    """Swap the ends of each given edge."""
    for e in edges:
        e.u, e.v = e.v, e.u


# -- boundary surgery -------------------------------------------------------------

def insert_triangle(g: SawGraph, edge_id: int) -> None:
    """Add a triangle over a boundary crossing edge (coloring count preserved).

    For e = (u, v) the new vertex w sits across the crease from u; edges
    (w, u) directed and {v, w} undirected are added. The crossing role
    moves to (w, u), presenting the crease on the boundary with the
    opposite orientation, and e becomes undirected.
    """
    e = g.edges[edge_id]
    if not e.directed:
        raise NotBoundaryEdge("triangle insertion needs a directed edge")
    slots = [i for i, (_, eid) in enumerate(g.walk) if eid == edge_id]
    if not slots:
        raise NotBoundaryEdge(f"edge {edge_id} is not on the boundary walk")
    if len(slots) > 1:
        raise NotBoundaryEdge("edge borders the outer face twice")
    u, v = e.u, e.v
    w = g.add_vertex(face=g.vertices[v].face)
    new_cross = g.add_edge(w, u, directed=True, crease=e.crease)
    junk = g.add_edge(v, w)
    e.directed, e.crease = False, None
    _splice_path(g, slots[0], 1, [u, w, v], [new_cross, junk])


def insert_prism(g: SawGraph, e1_id: int, e2_id: int) -> None:
    """Attach a triangular prism over adjacent boundary edges e1 (directed,
    crossing a crease) and e2 (undirected), swapping their boundary order.

    The coloring count is preserved and the three new colors are forced.
    e2 may hang off the head or the tail of e1 (the two chiralities); the
    shared endpoint p, the pivot, decides which. With q the other end of
    e1 and f the far end of e2, the boundary path q, p, f becomes q, z, f:
    a new undirected {q, z} and a new crossing edge {z, f} that keeps
    e1's direction along the path, while e1 becomes undirected.
    """
    e1 = g.edges[e1_id]
    e2 = g.edges[e2_id]
    if not e1.directed or e2.directed:
        raise EdgesNotAdjacent("need one directed and one undirected edge")
    walk_eids = [eid for _, eid in g.walk]
    if e1_id not in walk_eids or e2_id not in walk_eids:
        raise NotBoundaryEdge("both edges must be on the boundary walk")
    n = len(g.walk)
    i1 = walk_eids.index(e1_id)
    if walk_eids[(i1 + 1) % n] == e2_id:
        idx = i1
    elif walk_eids[(i1 - 1) % n] == e2_id:
        idx = (i1 - 1) % n
    else:
        raise EdgesNotAdjacent("edges are not adjacent on the boundary walk")
    shared = set(e1.ends()) & set(e2.ends())
    if len(shared) != 1:
        raise EdgesNotAdjacent("edges must share exactly one endpoint")
    pivot = shared.pop()

    # junk at the head: [ (q,p), {p,f} ] -> [ {q,z}, (z,f) ];
    # junk at the tail: [ {f,p}, (p,q) ] -> [ (f,z), {z,q} ]
    head = pivot == e1.v
    q, f = e1.other(pivot), e2.other(pivot)
    x = g.add_vertex(face=g.vertices[pivot].face)
    y = g.add_vertex(face=g.vertices[q].face)
    z = g.add_vertex(face=g.vertices[q].face)
    g.add_edge(q, y)
    g.add_edge(y, z)
    qz = g.add_edge(q, z) if head else g.add_edge(z, q)
    g.add_edge(pivot, x)
    g.add_edge(x, f)
    g.add_edge(y, x)
    cross = g.add_edge(*((z, f) if head else (f, z)), directed=True, crease=e1.crease)
    e1.directed, e1.crease = False, None
    _splice_path(g, idx, 2, [q, z, f], [qz, cross])


def _splice_path(g: SawGraph, i: int, k: int, path: list[int], edges: list[int]) -> None:
    """Replace the k walk steps from step i with a new boundary path, in
    place: the path through the vertices ``path`` along ``edges``, run as
    given when step i leaves path[0] and reversed otherwise. Steps that
    wrap past the walk's end are replaced in place, modulo its length, by
    as many new ones, so the walk keeps its first step."""
    if g.walk[i][0] != path[0]:
        path, edges = path[::-1], edges[::-1]
    steps = list(zip(path, edges))
    n = len(g.walk)
    if i + k <= n:
        g.walk[i:i + k] = steps
    else:
        for t, step in enumerate(steps):
            g.walk[(i + t) % n] = step
    g.check_walk()


# -- merging -----------------------------------------------------------------------

def _fuse(g: SawGraph, u: SawGraph, vmap: dict[int, int],
          emap: dict[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """Move u into g, in place, but for the vertices and edges that vmap
    and emap (u id -> g id) already identify with g's; returns both maps,
    completed. An identified vertex takes u's face, the incoming side
    knowing the finest (pattern-level) one. Every other vertex of u is
    added to g, and every other edge object of u moves into g with its
    ends renamed, so a caller's hold on it stays good; both take the next
    free ids, in u's order. u is left spent."""
    for uv, gv in vmap.items():
        g.vertices[gv].face = u.vertices[uv].face
    for sv in u.vertices.values():
        if sv.id not in vmap:
            vmap[sv.id] = g.add_vertex(sv.face)
    for se in u.edges.values():
        if se.id not in emap:
            emap[se.id] = g._next_e
            se.id, se.u, se.v = g._next_e, vmap[se.u], vmap[se.v]
            g.edges[se.id] = se
            g._next_e += 1
    return vmap, emap
