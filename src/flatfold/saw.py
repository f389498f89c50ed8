"""SAW graphs: the auxiliary planar graphs whose pre-colored proper
3-colorings biject with locally-valid MV assignments.

A SawGraph holds vertices placed in faces (pattern face ids, or
(left-crease, right-crease) sector pairs for graphs built from a bare
cone), undirected internal edges, and directed "crossing" edges tagged
with the crease they cross. The boundary walk is the closed walk around
the outer face; for single-vertex graphs every crossing edge lies on it.

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
    KawasakiViolation,
    NotBoundaryEdge,
    NotThreeNice,
    TilingError,
    UnknownVariant,
    UnsupportedJ,
)
from .single_vertex import crimp_trace, kawasaki_check


@dataclass
class SawVertex:
    id: int
    face: object = None  # face id (str), sector pair (tuple), or None


@dataclass
class SawEdge:
    id: int
    u: int                    # tail when directed
    v: int
    directed: bool = False
    crease: str | None = None
    # +1: tail lies on the left face of the crease's stored (a, b) direction.
    # None until the graph is bound to a concrete pattern.
    tail_side: int | None = None

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
    _next_v: int = 0
    _next_e: int = 0

    # -- construction helpers -------------------------------------------------

    def add_vertex(self, face=None) -> int:
        vid = self._next_v
        self._next_v += 1
        self.vertices[vid] = SawVertex(vid, face)
        return vid

    def add_edge(self, u: int, v: int, directed=False, crease=None,
                 tail_side=None) -> int:
        eid = self._next_e
        self._next_e += 1
        self.edges[eid] = SawEdge(eid, u, v, directed, crease, tail_side)
        return eid

    def copy(self) -> "SawGraph":
        g = SawGraph(root=self.root, _next_v=self._next_v, _next_e=self._next_e)
        g.vertices = {k: SawVertex(k, v.face) for k, v in self.vertices.items()}
        g.edges = {k: SawEdge(k, e.u, e.v, e.directed, e.crease, e.tail_side)
                   for k, e in self.edges.items()}
        g.walk = list(self.walk)
        return g

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
        if not self.vertices:
            return True
        adj = self.adjacency()
        seen = {next(iter(self.vertices))}
        stack = list(seen)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

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
        raise ValueError("need j+1 crease ids")
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
    prev_id, first_id, last_id = ids[0], ids[1], ids[j + 1]
    next_id = ids[(j + 2) % n]
    run_sectors = [(ids[1 + t], ids[2 + t]) for t in range(j)]

    if j % 2 == 1:
        merged_sector = (prev_id, next_id)
        left_sector = (prev_id, first_id)
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
            if e.crease == prev_id:
                side = a
            elif e.crease == next_id:
                side = b
            elif e.id == e_in:
                side = a
            elif e.id == e_out:
                side = b
            else:
                side = a
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
    survivor = first_id
    se = g.crossing_edges()[survivor]
    left_sector = (prev_id, survivor)
    u_on_left = g.vertices[se.u].face == left_sector
    for v in g.vertices.values():
        if v.face == (survivor, next_id):
            v.face = (last_id, next_id)
    w1 = g.add_vertex(face=run_sectors[0] if u_on_left else run_sectors[1])
    w2 = g.add_vertex(face=run_sectors[1] if u_on_left else run_sectors[0])
    chain = [se.u, w1, w2, se.v]
    run_creases = [ids[1], ids[2], ids[3]]
    if not u_on_left:
        run_creases.reverse()
    e_new = [g.add_edge(chain[t], chain[t + 1], directed=True,
                        crease=run_creases[t]) for t in range(3)]
    walk_idx = next(i for i, (_, e) in enumerate(g.walk) if e == se.id)
    start_v = g.walk[walk_idx][0]
    step_chain = chain if start_v == se.u else list(reversed(chain))
    step_edges = e_new if start_v == se.u else list(reversed(e_new))
    steps = [(step_chain[t], step_edges[t]) for t in range(3)]
    g.walk = g.walk[:walk_idx] + steps + g.walk[walk_idx + 1:]
    # demote the old edge; drop it if a parallel edge already exists
    if any(e.id != se.id and {e.u, e.v} == {se.u, se.v} for e in g.edges.values()):
        del g.edges[se.id]
    else:
        se.directed = False
        se.crease = None
        se.tail_side = None
    g.check_walk()


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
    """Reverse each given edge and the side its tail lies on."""
    for e in edges:
        e.u, e.v = e.v, e.u
        if e.tail_side is not None:
            e.tail_side = -e.tail_side


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
    new_cross = g.add_edge(
        w, u, directed=True, crease=e.crease,
        tail_side=-e.tail_side if e.tail_side is not None else None)
    junk = g.add_edge(v, w)
    e.directed, e.crease, e.tail_side = False, None, None
    idx = slots[0]
    start_v = g.walk[idx][0]
    steps = [(u, new_cross), (w, junk)] if start_v == u else [(v, junk), (w, new_cross)]
    g.walk[idx:idx + 1] = steps
    g.check_walk()


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
    cross = g.add_edge(*((z, f) if head else (f, z)), directed=True,
                       crease=e1.crease, tail_side=e1.tail_side)
    steps = [(q, qz), (z, cross)] if head else [(f, cross), (z, qz)]
    e1.directed, e1.crease, e1.tail_side = False, None, None

    walk = g.walk
    (s1v, s1e), (s2v, s2e) = steps
    if walk[idx][0] != s1v:
        end_v = g.edges[s2e].other(s2v)
        steps = [(end_v, s2e), (s2v, s1e)]
    if idx + 1 < n:
        walk[idx:idx + 2] = steps
    else:
        walk[-1], walk[0] = steps
    g.check_walk()
