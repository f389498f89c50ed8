"""Tiling single-vertex SAW graphs into a SAW graph for a whole pattern.

The construction mirrors the inductive proof: clip vertices one at a time
(each clipped vertex must reach the current boundary), then rebuild in
reverse, one component of the interior graph at a time, merging each
vertex's single-vertex SAW graph along the band of shared creases. Each
component is built in a graph of its own and spliced into the rest whole,
through a face they share, so no band's window runs across a splice
point; only the first component onto a base with no walk is built in
place.
Within a band, mismatched crossing-edge orientations are reversed with
triangles and stray undirected edges are pushed to the band periphery
with prisms; the zip then identifies tail with tail and head with head
over every shared crease.

The clip order keeps its clippable set up to date, so a pick re-tests
only its own neighbours. A single-vertex graph depends only on the cone's
sector angles, so it is built once per distinct angle tuple and each
vertex merges a bound copy, in the vertex's crease names and pattern
faces. That copy is the only one: the surgery and the zip change the
graphs they are given in place.

Tiling computes no geometry: crease orders, faces, sides and the boundary
tour all come from the pattern's face trace. A crossing edge's tail face
says which side of its crease it leaves from, so two crossing edges of
one crease point the same way exactly when their tails share a face.

No merge rescans the merged graph. Tiling keeps the crossing edge of
each crease on the merged graph's walk, so a band's window is found from
its first crease's edge: ``list.index`` gives that edge's walk step, and
only the window's steps are read. The zip fuses the incoming graph into
the merged one (``saw._fuse``): its vertices are added and its edges
moved, under the merged graph's next ids, and the new walk is built
from slices: the merged walk after its window round to the window's
start, then the incoming arc.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import ne

from .cp import ConeVertex, CreasePattern, cone_at
from .errors import DisconnectedInterior, TilingError, UnsupportedVertex
from .saw import (_REFUSALS, SawEdge, SawGraph, SawVertex, _fuse, insert_prism,
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
    the clippable set is kept up to date, as a sorted list: a pick
    re-evaluates only its own neighbours, and moves each in or out of the
    list by bisection. Each pick takes the first clippable vertex, in
    sorted order, that is not a cut vertex, else the first clippable one.
    """
    creases = cp.creases
    ends = {v: [b if a == v else a for a, b in map(creases.__getitem__, ids)]
            for v, ids in cp.ccw_creases.items()}
    remaining = set(ends)
    clippable = sorted(v for v in remaining if _clippable(ends[v], remaining))
    order = []
    while remaining:
        if not clippable:
            raise DisconnectedInterior(
                "no clippable vertex; interior cannot be ordered")
        pick = next((v for v in clippable if not _is_cut(ends, remaining, v)),
                    clippable[0])
        order.append(pick)
        remaining.discard(pick)
        del clippable[bisect_left(clippable, pick)]
        for w in set(ends[pick]) & remaining:
            i = bisect_left(clippable, w)
            listed = i < len(clippable) and clippable[i] == w
            if _clippable(ends[w], remaining):
                if not listed:
                    clippable.insert(i, w)
            elif listed:
                del clippable[i]
    return order


def _clippable(ends: list[str], remaining: set[str]) -> bool:
    """Does a vertex whose creases end at ``ends`` (in cyclic order) reach
    the boundary, with its creases to remaining vertices contiguous?"""
    shared = list(map(remaining.__contains__, ends))
    return not all(shared) and _contiguous(shared)


def _is_cut(ends: dict[str, list[str]], remaining: set[str], v: str) -> bool:
    """Would removing v disconnect its component of the interior graph?

    A breadth-first search from one remaining neighbour of v, avoiding v,
    that stops as soon as it has reached every other one."""
    nbrs = remaining.intersection(ends[v])
    if len(nbrs) <= 1:
        return False
    start = nbrs.pop()
    seen = {v, start}
    queue = [start]
    for x in queue:             # the queue grows as the search reaches
        for y in ends[x]:
            if y in remaining and y not in seen:
                seen.add(y)
                nbrs.discard(y)
                if not nbrs:
                    return False
                queue.append(y)
    return True


def _contiguous(flags: list[bool]) -> bool:
    """True if the True entries form one contiguous cyclic block (or none)."""
    return sum(map(ne, flags, flags[1:] + flags[:1])) <= 2


def _face_regions(cp: CreasePattern, kept: set[str]) -> dict[str, str]:
    """Map each interior face of cp to its region, the faces joined across
    every crease not in kept. A region is named by its minimum face id, so
    the order of the unions does not matter."""
    parent = {f.id: f.id for f in cp.interior_faces()}
    if not kept:    # a crease joins the faces on its sides, so all are one
        return dict.fromkeys(parent, min(parent))

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
        edge_of_chord[c] = g.add_edge(u, v, directed=True, crease=c)
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
    the support pass and the merges. The support pass runs
    single_vertex_saw once per distinct angle tuple, walking the vertices
    in sorted id order and turning a refusal into UnsupportedVertex at the
    first vertex that meets it; the table is keyed by ``ConeVertex.scaled``,
    which tells the tuples apart as every cone of a pattern closes at 360.
    Each merge takes a bound copy of its tuple's graph. Waterbomb vertices are 3-nice, so no pattern surgery is
    needed. The graph built here, each component's graph and each bound
    copy are owned by this call, so every triangle, prism and merge
    changes them in place.
    """
    cones = {v: cone_at(cp, v) for v in cp.interior_vertex_ids()}
    built: dict[tuple[int, ...], tuple[SawGraph, tuple[str, ...]]] = {}
    for v, cone in cones.items():
        if cone.scaled not in built:
            try:
                built[cone.scaled] = (single_vertex_saw(cone), cone.crease_ids)
            except _REFUSALS as exc:
                raise UnsupportedVertex(v, str(exc)) from exc

    def bound(v):
        base, names = built[cones[v].scaled]
        return _bound(base, cp, v, dict(zip(names, cones[v].crease_ids)))

    g = _base_saw(cp)
    for group in _rebuild_order(cp):
        # a base with no walk has no tour to split: it takes the first
        # component in place
        if g.walk:
            h, rest, merged = bound(group[0]), group[1:], {group[0]}
        else:
            h, rest, merged = g, group, set()
        crossing = h.crossing_edges()
        for v in rest:
            try:
                _merge_vertex(h, cp, v, cones[v], bound(v), merged, crossing)
            except TilingError as exc:
                exc.vertex = v
                raise
            merged.add(v)
        if h is not g:
            _splice_disjoint(g, cp, h, group[0])
    g.root = select_root(g)
    g.validate()
    return g


def _rebuild_order(cp: CreasePattern) -> list[list[str]]:
    """The clip order reversed, as one group per component of the interior
    graph, in the order the components first come. A component's share of
    the clip order is a clip order of its own, so each group can be merged
    whole, into a graph of its own, before it is spliced into the rest."""
    rebuild = clip_order(cp)[::-1]
    creases, at = cp.creases, cp.ccw_creases
    first: dict[str, int] = {}
    groups: dict[int, list[str]] = {}
    for i, s in enumerate(rebuild):
        queue = [s]
        for x in queue:
            if x in at and x not in first:
                first[x] = i
                queue += [b if a == x else a for a, b in map(creases.__getitem__, at[x])]
        groups.setdefault(first[s], []).append(s)
    return list(groups.values())


def _bound(g: SawGraph, cp: CreasePattern, v: str, names: dict[str, str]) -> SawGraph:
    """A fresh copy of a single-vertex SAW graph, bound to vertex v of cp:
    each crossing edge's crease name mapped through names, and each
    sector pair, its creases mapped alike, replaced by the pattern face of
    that corner of v. Ids, orientations, the walk and the root are kept."""
    return SawGraph({k: SawVertex(k, cp.corner_faces[(v, names[sv.face[0]], names[sv.face[1]])])
                     for k, sv in g.vertices.items()},
                    {k: SawEdge(k, e.u, e.v, e.directed,
                                None if e.crease is None else names[e.crease])
                     for k, e in g.edges.items()},
                    g.root, list(g.walk))


def select_root(g: SawGraph) -> int:
    """Vertex with the smallest id inside the lexicographically first face."""
    by_face = sorted((str(sv.face), sv.id) for sv in g.vertices.values())
    return by_face[0][1]


def _merge_vertex(g: SawGraph, cp: CreasePattern, v: str, cone: ConeVertex,
                  u_graph: SawGraph, merged: set[str], crossing: dict[str, SawEdge]) -> None:
    """Merge u_graph, the single-vertex SAW graph of vertex v (cone
    ``cone``) bound to cp's faces, into g. Both are owned by the caller
    and changed in place. ``crossing`` holds g's crossing edge of each
    crease its walk crosses; the merge keeps it so. ``_fuse`` moves u's
    edges into g, so u's crossing edges off the band are g's afterwards."""
    shared_flags = [(b if a == v else a) in merged
                    for a, b in map(cp.creases.__getitem__, cone.crease_ids)]
    if not any(shared_flags):
        _splice_disjoint(g, cp, u_graph, v)
        crossing.update(u_graph.crossing_edges())
        return

    if not _contiguous(shared_flags):
        raise DisconnectedInterior(f"shared creases of {v} are not contiguous")
    # the shared block in cyclic order c_s..c_e
    start = next(i for i, shared in enumerate(shared_flags)
                 if shared and not shared_flags[i - 1])
    ids = cone.crease_ids
    block = list((ids[start:] + ids[:start])[:sum(shared_flags)])

    # g's band, junk-free, holds the tail faces u must match
    g_span = _clear_window_junk(g, block[::-1], crossing)
    # orientation pass: a global negation of the incoming graph is a free
    # variant, used when it fixes the majority; triangles fix the rest.
    # Negation keeps edge ids; a triangle moves its crease's crossing role
    # to a new edge, so u's crossing edges are read again after triangles.
    u_edges = u_graph.crossing_edges()
    mism = [c for c in block if g.vertices[crossing[c].u].face
            != u_graph.vertices[u_edges[c].u].face]
    if len(mism) * 2 > len(block):
        negate_orientations(u_graph)
        mism = [c for c in block if c not in mism]
    for c in mism:
        insert_triangle(u_graph, u_edges[c].id)
    if mism:
        u_edges = u_graph.crossing_edges()

    u_span = _clear_window_junk(u_graph, block, u_edges)
    _zip(g, g_span, u_graph, u_span, block)
    for c in block:
        del crossing[c]
        del u_edges[c]
    crossing.update(u_edges)


def _window(walk: list[tuple[int, int]], edges: dict, creases: list[str],
            crossing: dict[str, SawEdge]):
    """Locate the walk window whose directed edges are exactly the given
    creases in order (undirected edges allowed in between). Returns the
    window's step indices in walk order, wrapping around the walk's end.

    The window starts at a step along ``crossing[creases[0]]``, the first
    crease's crossing edge. One ``list.index`` per end of that edge finds
    its steps (an edge bordering the outer face twice has two, tried in
    walk order), and only the window's own steps are read from there."""
    n = len(walk)
    e0 = crossing.get(creases[0])
    starts = [] if e0 is None else [walk.index(step) for step in
                                    ((e0.u, e0.id), (e0.v, e0.id)) if step in walk]
    for s in sorted(starts):
        span, seen = [], 0
        for i in range(s, s + n):
            i %= n
            span.append(i)
            e = edges[walk[i][1]]
            if e.directed:
                if e.crease != creases[seen]:
                    break
                seen += 1
                if seen == len(creases):
                    return span
    raise TilingError("window not found on the boundary walk", crease=tuple(creases))


def _clear_window_junk(g: SawGraph, creases: list[str],
                       crossing: dict[str, SawEdge]) -> list[int]:
    """Push undirected boundary edges out of the window with prisms, in
    place; returns the window, now junk-free. ``crossing`` holds g's
    crossing edge of each crease on its walk and is kept so.

    Always pushes the first junk edge toward the window start; its
    walk-earlier neighbour inside the span is then guaranteed directed, and
    every prism strictly shrinks the junk count inside the window. A prism
    swaps the two edges' boundary order, so the crease's new crossing edge
    takes the junk edge's step.
    """
    while True:
        span = _window(g.walk, g.edges, creases, crossing)
        junk = [i for i in span if not g.edges[g.walk[i][1]].directed]
        if not junk:
            return span
        i = junk[0]
        dir_idx = span[span.index(i) - 1]
        crease = g.edges[g.walk[dir_idx][1]].crease
        insert_prism(g, g.walk[dir_idx][1], g.walk[i][1])
        crossing[crease] = g.edges[g.walk[i][1]]


def _zip(g: SawGraph, g_span: list[int], u: SawGraph, u_span: list[int],
         block: list[str]) -> None:
    """Identify the band vertices of u with those of g and fuse u into g in
    place. The spans are the junk-free band windows: g's crosses the block
    in reverse, u's in order.

    The new walk is g's walk after its window round to the window's start,
    then u's arc outside its window: two slices of g's walk and one of
    u's, so no step of g's walk is read one at a time."""
    # a window without junk holds exactly the band's crossing edges: u's
    # in block order, g's in reverse
    u_band = [u.edges[u.walk[i][1]] for i in u_span]
    g_band = [g.edges[g.walk[i][1]] for i in reversed(g_span)]
    # vertex pairing: u's arc vertices in order pair with g's in reverse
    u_verts = [u.walk[i][0] for i in u_span]
    u_verts.append(u_band[-1].other(u_verts[-1]))
    g_verts = [g.walk[i][0] for i in g_span]
    g_verts.append(g_band[0].other(g_verts[-1]))
    # sanity: paired crossing edges agree in orientation, tail face to tail face
    for c, ue, ge in zip(block, u_band, g_band):
        if u.vertices[ue.u].face != g.vertices[ge.u].face:
            raise TilingError("orientation mismatch at zip time", crease=c)

    vmap, emap = _fuse(g, u, dict(zip(u_verts, reversed(g_verts))),
                       {ue.id: ge.id for ue, ge in zip(u_band, g_band)})

    # only u's arc and the two seams are new: the last step of g's part
    # now leads into the arc, and the arc's last step back to g's part
    g_rest = _outside(g.walk, g_span)
    g.walk = g_rest + [(vmap[v0], emap[e0]) for v0, e0 in _outside(u.walk, u_span)]
    g.check_walk(range(len(g_rest) - 1, len(g.walk)))


def _outside(walk: list[tuple[int, int]], span: list[int]) -> list[tuple[int, int]]:
    """The steps of a closed walk outside a window (consecutive step
    indices, possibly wrapping), from the step after it round to the step
    before it."""
    first, last = span[0], span[-1]
    if first <= last:
        return walk[last + 1:] + walk[:first]
    return walk[last + 1:first]


def _splice_disjoint(g: SawGraph, cp: CreasePattern, u: SawGraph, vname: str) -> None:
    """Merge with no shared creases: identify one vertex through the face
    both graphs currently share, fusing u into g in place."""
    # group faces into regions connected across creases not yet crossed
    present = {e.crease for h in (g, u) for e in h.edges.values() if e.directed}
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
