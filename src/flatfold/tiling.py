"""Tiling single-vertex SAW graphs into a SAW graph for a whole pattern.

The construction mirrors the inductive proof: clip vertices one at a time
(each clipped vertex must reach the current boundary), then rebuild in
reverse, merging each vertex's single-vertex SAW graph along the band of
shared creases. Within a band, mismatched crossing-edge orientations are
reversed with triangles and stray undirected edges are pushed to the band
periphery with prisms; the zip then identifies tail with tail and head
with head over every shared crease.

The clip order keeps its clippable set up to date, so a pick re-tests
only its own neighbours. A single-vertex graph depends only on the cone's
sector angles, so it is built once per distinct angle tuple and each
vertex merges a renamed copy. That copy is the only one: the surgery and
the zip change the graphs they are given in place.

Tiling computes no geometry: crease orders, faces, sides and the boundary
tour all come from the pattern's face trace.
"""

from __future__ import annotations

from collections import deque

from .cp import ConeVertex, CreasePattern, cone_at
from .errors import DisconnectedInterior, TilingError, UnsupportedVertex
from .saw import (_REFUSALS, SawEdge, SawGraph, SawVertex, insert_prism,
                  insert_triangle, negate_orientations, single_vertex_saw)


def clip_order(cp: CreasePattern) -> list[str]:
    """Order in which interior vertices can be clipped away.

    A vertex is clippable when at least one incident crease reaches the
    current boundary (the paper region, or the void left by an earlier
    clip) and its creases to still-present vertices form a contiguous arc
    in its cyclic order. Among clippable vertices, ones whose removal
    keeps the rest of their crease-connected component intact go first, so
    the rebuild can always attach along shared creases.

    Only the crease order ``cp.ccw_creases`` is read, no angle.
    Clippability depends only on which of a vertex's neighbours remain, so
    the clippable set is kept up to date: a pick re-evaluates only its own
    neighbours. Each pick takes the first clippable vertex, in sorted
    order, that is not a cut vertex, else the first clippable one.
    """
    ends = {v: [cp.crease_other_end(c, v) for c in ids]
            for v, ids in cp.ccw_creases.items()}
    remaining = set(ends)
    clippable = {v for v in remaining if _clippable(ends[v], remaining)}
    order = []
    while remaining:
        if not clippable:
            raise DisconnectedInterior(
                "no clippable vertex; interior cannot be ordered")
        ranked = sorted(clippable)
        pick = next((v for v in ranked if not _is_cut(ends, remaining, v)),
                    ranked[0])
        order.append(pick)
        remaining.discard(pick)
        clippable.discard(pick)
        for w in set(ends[pick]) & remaining:
            if _clippable(ends[w], remaining):
                clippable.add(w)
            else:
                clippable.discard(w)
    return order


def _clippable(ends: list[str], remaining: set[str]) -> bool:
    """Does a vertex whose creases end at ``ends`` (in cyclic order) reach
    the boundary, with its creases to remaining vertices contiguous?"""
    shared = [w in remaining for w in ends]
    return not all(shared) and _contiguous(shared)


def _is_cut(ends: dict[str, list[str]], remaining: set[str], v: str) -> bool:
    """Would removing v disconnect its component of the interior graph?

    A breadth-first search from one remaining neighbour of v, avoiding v,
    that stops as soon as it has reached every other one."""
    nbrs = {w for w in ends[v] if w in remaining}
    if len(nbrs) <= 1:
        return False
    start = nbrs.pop()
    seen = {v, start}
    queue = deque([start])
    while queue:
        for x in ends[queue.popleft()]:
            if x in remaining and x not in seen:
                seen.add(x)
                nbrs.discard(x)
                if not nbrs:
                    return False
                queue.append(x)
    return True


def _contiguous(flags: list[bool]) -> bool:
    """True if the True entries form one contiguous cyclic block (or none)."""
    n = len(flags)
    transitions = sum(flags[i] != flags[(i + 1) % n] for i in range(n))
    return transitions <= 2


def _bind_faces(g: SawGraph, cp: CreasePattern, v: str) -> None:
    """Bind a cone-level SAW graph of vertex v, in place, to pattern faces
    and sides."""
    for sv in g.vertices.values():
        left, right = sv.face
        sv.face = cp.corner_faces[(v, left, right)]
    for e in g.edges.values():
        if e.directed:
            left_face, _ = cp.crease_sides[e.crease]
            e.tail_side = 1 if g.vertices[e.u].face == left_face else -1


def _face_regions(cp: CreasePattern, kept: set[str]) -> dict[str, str]:
    """Map each interior face of cp to its region, the faces joined across
    every crease not in kept. A region is named by its minimum face id, so
    the order of the unions does not matter."""
    parent = {f.id: f.id for f in cp.interior_faces()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, (fa, fb) in cp.crease_sides.items():
        if c not in kept:
            ra, rb = find(fa), find(fb)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return {f: find(f) for f in parent}


def _base_saw(cp: CreasePattern) -> SawGraph:
    """SAW graph of the pattern with every interior vertex clipped away.

    What remains are boundary-to-boundary chord creases; the graph is one
    vertex per chord-arrangement face with a directed edge per chord, and
    the boundary walk tours the disk crossing each chord twice.
    """
    interior = set(cp.interior_vertex_ids())
    chords = sorted(c for c, (a, b) in cp.creases.items()
                    if a not in interior and b not in interior)
    region = _face_regions(cp, set(chords))

    g = SawGraph()
    region_vertex: dict[str, int] = {}
    for f in sorted(region):
        if region[f] not in region_vertex:
            region_vertex[region[f]] = g.add_vertex(face=region[f])
    edge_of_chord = {}
    for c in chords:
        fa, fb = cp.crease_sides[c]
        u = region_vertex[region[fa]]
        v = region_vertex[region[fb]]
        edge_of_chord[c] = g.add_edge(u, v, directed=True, crease=c, tail_side=1)
    g.root = 0

    if not chords:
        return g

    # hop across the chords in boundary-tour order, starting on the side
    # of the first chord from which the tour closes up
    tour = [c for c in cp.boundary_tour if c in edge_of_chord]
    c0 = tour[0]
    for face in cp.crease_sides[c0]:
        start = cur = region_vertex[region[face]]
        g.walk = []
        for c in tour:
            e = g.edges[edge_of_chord[c]]
            if cur not in e.ends():
                break
            g.walk.append((cur, e.id))
            cur = e.other(cur)
        if len(g.walk) == len(tour) and cur == start:
            return g
    raise TilingError("the boundary tour does not close from either side",
                      crease=c0)


def tile(cp: CreasePattern) -> SawGraph:
    """SAW graph for the whole pattern.

    Each vertex's cone (``cone_at`` computes it once per pattern) serves
    the support pass and the merges; the clip order reads only crease
    orders. A single-vertex SAW graph depends only on
    the cone's sector angles (crease names are labels), so the support
    pass runs single_vertex_saw once per distinct angle tuple, walking the
    vertices in sorted id order and turning a refusal into
    UnsupportedVertex at the first vertex that meets it. Each merge takes
    a fresh copy of its tuple's graph with the vertex's own crease names.
    Waterbomb vertices are 3-nice, so no pattern surgery is needed. The
    graph built here and each renamed copy are owned by this call, so
    every triangle, prism and merge changes them in place.
    """
    cones = {v: cone_at(cp, v) for v in cp.interior_vertex_ids()}
    built: dict[tuple, tuple[SawGraph, tuple[str, ...]]] = {}
    for v, cone in cones.items():
        if cone.angles not in built:
            try:
                built[cone.angles] = (single_vertex_saw(cone), cone.crease_ids)
            except _REFUSALS as exc:
                raise UnsupportedVertex(v, str(exc)) from exc
    order = clip_order(cp)
    g = _base_saw(cp)
    merged: set[str] = set()
    for v in reversed(order):
        cone = cones[v]
        base, names = built[cone.angles]
        u_graph = _renamed(base, dict(zip(names, cone.crease_ids)))
        try:
            _merge_vertex(g, cp, v, cone, u_graph, merged)
        except TilingError as exc:
            exc.vertex = v
            raise
        merged.add(v)
    g.root = select_root(g)
    g.validate()
    return g


def _renamed(g: SawGraph, names: dict[str, str]) -> SawGraph:
    """A fresh copy of a single-vertex SAW graph with every crease name,
    on its crossing edges and in its sector-pair faces, mapped through
    names. Ids, orientations, the walk and the root are kept."""
    out = SawGraph(root=g.root, walk=list(g.walk),
                   _next_v=g._next_v, _next_e=g._next_e)
    out.vertices = {k: SawVertex(k, (names[sv.face[0]], names[sv.face[1]]))
                    for k, sv in g.vertices.items()}
    out.edges = {k: SawEdge(k, e.u, e.v, e.directed,
                            None if e.crease is None else names[e.crease],
                            e.tail_side)
                 for k, e in g.edges.items()}
    return out


def select_root(g: SawGraph) -> int:
    """Vertex with the smallest id inside the lexicographically first face."""
    by_face = sorted((str(sv.face), sv.id) for sv in g.vertices.values())
    return by_face[0][1]


def _merge_vertex(g: SawGraph, cp: CreasePattern, v: str, cone: ConeVertex,
                  u_graph: SawGraph, merged: set[str]) -> None:
    """Merge u_graph, the single-vertex SAW graph of vertex v (cone
    ``cone``), into g. Both are owned by the caller and changed in place."""
    _bind_faces(u_graph, cp, v)

    shared_flags = [cp.crease_other_end(c, v) in merged for c in cone.crease_ids]
    if not any(shared_flags):
        _splice_disjoint(g, cp, u_graph, v)
        return

    if not _contiguous(shared_flags):
        raise DisconnectedInterior(f"shared creases of {v} are not contiguous")
    # the shared block in cyclic order c_s..c_e
    n = len(shared_flags)
    start = next(i for i in range(n)
                 if shared_flags[i] and not shared_flags[(i - 1) % n])
    ids = cone.crease_ids
    block = list((ids[start:] + ids[:start])[:sum(shared_flags)])

    # g's band, junk-free, holds the tail sides u must match
    g_span = _clear_window_junk(g, block[::-1])
    g_side = {g.edges[g.walk[i][1]].crease: g.edges[g.walk[i][1]].tail_side
              for i in g_span}
    # orientation pass: a global negation of the incoming graph is a free
    # variant, used when it fixes the majority; triangles fix the rest.
    # Negation keeps edge ids and a triangle replaces only its own crease's
    # edge, so u's crossing edges are read once.
    u_edges = u_graph.crossing_edges()
    mism = [c for c in block if g_side[c] != u_edges[c].tail_side]
    if len(mism) * 2 > len(block):
        negate_orientations(u_graph)
        mism = [c for c in block if c not in mism]
    for c in mism:
        insert_triangle(u_graph, u_edges[c].id)

    u_span = _clear_window_junk(u_graph, block)
    _zip(g, g_span, u_graph, u_span, block)


def _window(walk: list[tuple[int, int]], edges: dict, creases: list[str]):
    """Locate the walk window whose directed edges are exactly the given
    creases in order (undirected edges allowed in between). Returns the
    window's step indices in walk order, wrapping around the walk's end."""
    n = len(walk)
    target = list(creases)
    for s in range(n):
        e0 = edges[walk[s][1]]
        if not e0.directed or e0.crease != target[0]:
            continue
        seen = []
        span = []
        i = s
        for _ in range(n):
            span.append(i)
            e = edges[walk[i][1]]
            if e.directed:
                seen.append(e.crease)
                if seen != target[:len(seen)]:
                    break
                if len(seen) == len(target):
                    return span
            i = (i + 1) % n
    raise TilingError("window not found on the boundary walk", crease=tuple(creases))


def _clear_window_junk(g: SawGraph, creases: list[str]) -> list[int]:
    """Push undirected boundary edges out of the window with prisms, in
    place; returns the window, now junk-free.

    Always pushes the first junk edge toward the window start; its
    walk-earlier neighbour inside the span is then guaranteed directed, and
    every prism strictly shrinks the junk count inside the window.
    """
    while True:
        span = _window(g.walk, g.edges, creases)
        junk = [i for i in span if not g.edges[g.walk[i][1]].directed]
        if not junk:
            return span
        i = junk[0]
        dir_idx = span[span.index(i) - 1]
        insert_prism(g, g.walk[dir_idx][1], g.walk[i][1])


def _zip(g: SawGraph, g_span: list[int], u: SawGraph, u_span: list[int],
         block: list[str]) -> None:
    """Identify the band vertices of u with those of g and fuse u into g in
    place. The spans are the junk-free band windows: g's crosses the block
    in reverse, u's in order."""
    ng, nu = len(g.walk), len(u.walk)

    # vertex pairing: u's arc vertices in order pair with g's in reverse
    u_verts = [u.walk[i][0] for i in u_span]
    u_verts.append(u.edges[u.walk[u_span[-1]][1]].other(u_verts[-1]))
    g_verts = [g.walk[i][0] for i in g_span]
    g_verts.append(g.edges[g.walk[g_span[-1]][1]].other(g_verts[-1]))
    pairs = list(zip(u_verts, reversed(g_verts)))

    # a window without junk holds exactly the band's crossing edges
    g_band = {g.edges[g.walk[i][1]].crease: g.edges[g.walk[i][1]] for i in g_span}
    u_band = {u.edges[u.walk[i][1]].crease: u.edges[u.walk[i][1]] for i in u_span}
    # sanity: paired crossing edges agree in orientation
    for c in block:
        if u_band[c].tail_side != g_band[c].tail_side:
            raise TilingError("orientation mismatch at zip time", crease=c)

    vmap, emap = _fuse(g, u, dict(pairs),
                       {se.id: g_band[se.crease].id for se in u.edges.values()
                        if se.directed and se.crease in g_band})

    # new walk: g's walk after the window, then u's arc outside its window.
    # Only u's arc and the two seams are new: the last step of g's part
    # now leads into the arc, and the arc's last step back to g's part.
    g_rest = [g.walk[(g_span[-1] + 1 + k) % ng] for k in range(ng - len(g_span))]
    u_rest = [u.walk[(u_span[-1] + 1 + k) % nu] for k in range(nu - len(u_span))]
    g.walk = g_rest + [(vmap[v0], emap[e0]) for v0, e0 in u_rest]
    g.check_walk(range(len(g_rest) - 1, len(g.walk)))


def _fuse(g: SawGraph, u: SawGraph, vmap: dict[int, int],
          emap: dict[int, int]) -> tuple[dict[int, int], dict[int, int]]:
    """Copy u into g, in place, but for the vertices and edges that vmap
    and emap (u id -> g id) already identify with g's; returns both maps,
    completed. An identified vertex takes u's face, the incoming side
    knowing the finest (pattern-level) one. New ids follow u's order."""
    for uv, gv in vmap.items():
        g.vertices[gv].face = u.vertices[uv].face
    for sv in u.vertices.values():
        if sv.id not in vmap:
            vmap[sv.id] = g.add_vertex(face=sv.face)
    for se in u.edges.values():
        if se.id not in emap:
            emap[se.id] = g.add_edge(vmap[se.u], vmap[se.v], se.directed,
                                     se.crease, se.tail_side)
    return vmap, emap


def _splice_disjoint(g: SawGraph, cp: CreasePattern, u: SawGraph, vname: str) -> None:
    """Merge with no shared creases: identify one vertex through the face
    both graphs currently share, fusing u into g in place."""
    # group faces into regions connected across creases not yet crossed
    present = {e.crease for e in g.edges.values() if e.directed}
    present |= {e.crease for e in u.edges.values() if e.directed}
    region = _face_regions(cp, present)

    on_walk = g.walk_vertices() if g.walk else set(g.vertices)
    u_pick = g_pick = None
    for uv in sorted(u.walk_vertices()):
        r = region[u.vertices[uv].face]
        candidates = [sv.id for sv in g.vertices.values()
                      if sv.id in on_walk and region[sv.face] == r]
        if candidates:
            u_pick, g_pick = uv, min(candidates)
            break
    if u_pick is None:
        raise DisconnectedInterior(
            f"no face connection found while merging {vname}")

    vmap, emap = _fuse(g, u, {u_pick: g_pick}, {})
    # splice u's walk (rotated to start at u_pick) into g's walk at g_pick
    u_walk = [(vmap[v0], emap[e0]) for v0, e0 in u.walk]
    ui = next(i for i, (v0, _) in enumerate(u_walk) if v0 == g_pick)
    u_rot = u_walk[ui:] + u_walk[:ui]
    if not g.walk:
        g.walk = u_rot
        g.check_walk()
        return
    # only u's walk and the step of g's walk that now leads into it are new
    gi = next(i for i, (v0, _) in enumerate(g.walk) if v0 == g_pick)
    g.walk = g.walk[:gi] + u_rot + g.walk[gi:]
    g.check_walk(range(gi - 1, gi + len(u_rot)))
