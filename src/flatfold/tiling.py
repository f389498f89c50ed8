"""Tiling single-vertex SAW graphs into a SAW graph for a whole pattern.

The construction mirrors the inductive proof: clip vertices one at a time
(each clipped vertex must reach the current boundary), then rebuild in
reverse, merging each vertex's single-vertex SAW graph along the band of
shared creases. Within a band, mismatched crossing-edge orientations are
reversed with triangles and stray undirected edges are pushed to the band
periphery with prisms; the zip then identifies tail with tail and head
with head over every shared crease.
"""

from __future__ import annotations

from .cp import ConeVertex, CreasePattern, cone_at
from .errors import DisconnectedInterior, TilingError, UnsupportedVertex
from .geometry import cross, dot, on_segment, sub
from .saw import SawGraph, insert_prism, insert_triangle, negate_orientations, saw_supported, single_vertex_saw


def clip_order(cp: CreasePattern) -> list[str]:
    """Order in which interior vertices can be clipped away.

    A vertex is clippable when at least one incident crease reaches the
    current boundary (the paper region, or the void left by an earlier
    clip) and its creases to still-present vertices form a contiguous arc
    in its cyclic order. Among clippable vertices, ones whose removal
    keeps the rest of their crease-connected component intact go first, so
    the rebuild can always attach along shared creases.
    """
    return _clip_order(cp, {v: cone_at(cp, v) for v in cp.interior_vertex_ids()})


def _clip_order(cp: CreasePattern, cones: dict[str, ConeVertex]) -> list[str]:
    """clip_order on the cones of every interior vertex, computed once."""
    remaining = set(cones)
    order = []
    while remaining:
        clippable = []
        for v in sorted(remaining):
            ids = cones[v].crease_ids
            shared = [cp.crease_other_end(c, v) in remaining for c in ids]
            if all(shared):
                continue  # nothing reaches the boundary yet
            if _contiguous(shared):
                clippable.append(v)
        if not clippable:
            raise DisconnectedInterior(
                "no clippable vertex; interior cannot be ordered")
        pick = next((v for v in clippable if not _is_cut(cp, cones, remaining, v)),
                    clippable[0])
        order.append(pick)
        remaining.discard(pick)
    return order


def _is_cut(cp, cones, remaining: set[str], v: str) -> bool:
    """Would removing v disconnect its component of the interior graph?"""
    nbrs = {cp.crease_other_end(c, v) for c in cones[v].crease_ids}
    nbrs = {w for w in nbrs if w in remaining and w != v}
    if len(nbrs) <= 1:
        return False
    rest = remaining - {v}
    start = next(iter(nbrs))
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for c in cones[w].crease_ids:
            x = cp.crease_other_end(c, w)
            if x in rest and x not in seen:
                seen.add(x)
                stack.append(x)
    return not nbrs <= seen


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


def _base_saw(cp: CreasePattern) -> SawGraph:
    """SAW graph of the pattern with every interior vertex clipped away.

    What remains are boundary-to-boundary chord creases; the graph is one
    vertex per chord-arrangement face with a directed edge per chord, and
    the boundary walk tours the disk crossing each chord twice.
    """
    interior = set(cp.interior_vertex_ids())
    chords = sorted(c for c, (a, b) in cp.creases.items()
                    if a not in interior and b not in interior)
    # face regions of the clipped pattern: union of cp faces across every
    # non-chord crease
    parent: dict[str, str] = {f.id: f.id for f in cp.interior_faces()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for c in cp.creases:
        if c not in chords:
            fa, fb = cp.crease_sides[c]
            union(fa, fb)

    g = SawGraph()
    region_vertex: dict[str, int] = {}
    for f in sorted(parent):
        r = find(f)
        if r not in region_vertex:
            region_vertex[r] = g.add_vertex(face=r)
    edge_of_chord = {}
    for c in chords:
        fa, fb = cp.crease_sides[c]
        u = region_vertex[find(fa)]
        v = region_vertex[find(fb)]
        edge_of_chord[c] = g.add_edge(u, v, directed=True, crease=c, tail_side=1)
    g.root = 0

    if not chords:
        g.walk = []
        return g

    # boundary tour: order the chords' boundary endpoints around the region
    events = []
    nreg = len(cp.region)
    for c in chords:
        for end in cp.creases[c]:
            p = cp.point_of(end)
            for i in range(nreg):
                a, b = cp.region[i], cp.region[(i + 1) % nreg]
                if on_segment(p, a, b) and p != b:
                    d = sub(b, a)
                    u = sub(cp.point_of(cp.crease_other_end(c, end)), p)
                    # chords sharing a boundary point are crossed by falling
                    # angle from the boundary direction d, i.e. rising cot
                    events.append(((i, dot(sub(p, a), d), dot(d, u) / cross(d, u)), c))
                    break
    events.sort(key=lambda e: e[0])
    # start in the region just ccw of the first event and hop across chords
    walk = []
    # find the face right after the last event going ccw: it is the face
    # containing the boundary stretch before event 0; identify it by
    # crossing the last chord from the face after it... simpler: walk
    # events, maintaining current face via chord sides.
    # Determine starting face: take the boundary segment just before the
    # first event and find which region it borders via corner_faces of the
    # outer boundary; instead use chord adjacency: cross the first chord
    # from either side and fix the rotation at the end by consistency.
    c0 = events[0][1]
    fa, fb = cp.crease_sides[c0]
    cur = region_vertex[find(fa)]
    trial = []
    ok = True
    for _, c in events:
        e = g.edges[edge_of_chord[c]]
        if cur not in e.ends():
            ok = False
            break
        trial.append((cur, e.id))
        cur = e.other(cur)
    if not ok or cur != trial[0][0]:
        cur = region_vertex[find(fb)]
        trial = []
        for _, c in events:
            e = g.edges[edge_of_chord[c]]
            trial.append((cur, e.id))
            cur = e.other(cur)
    g.walk = trial
    g.check_walk()
    return g


def tile(cp: CreasePattern) -> SawGraph:
    """SAW graph for the whole pattern.

    Every interior vertex must be supported by single_vertex_saw (3-nice
    with a small terminal, all-equal degree <= 4, or degree 2); waterbomb
    vertices fall in this class, so no pattern surgery is needed.

    Each vertex's cone is computed once and shared by the support check,
    the clip order and the merges. The graph built here is owned by this
    call, so every merge fuses into it in place.
    """
    cones = {v: cone_at(cp, v) for v in cp.interior_vertex_ids()}
    for v, cone in cones.items():
        ok, why = saw_supported(cone)
        if not ok:
            raise UnsupportedVertex(v, why)
    order = _clip_order(cp, cones)
    g = _base_saw(cp)
    merged: set[str] = set()
    for v in reversed(order):
        try:
            g = _merge_vertex(g, cp, v, cones[v], merged)
        except TilingError as exc:
            exc.vertex = v
            raise
        merged.add(v)
    g.root = select_root(g)
    g.validate()
    return g


def select_root(g: SawGraph) -> int:
    """Vertex with the smallest id inside the lexicographically first face."""
    by_face = sorted((str(sv.face), sv.id) for sv in g.vertices.values())
    return by_face[0][1]


def _merge_vertex(g: SawGraph, cp: CreasePattern, v: str, cone: ConeVertex,
                  merged: set[str]) -> SawGraph:
    """Merge the SAW graph of vertex v (cone ``cone``) into g, which the
    caller owns and which is changed in place. Returns the merged graph:
    g itself, or a graph that replaced it (an empty g, or a prism)."""
    u_graph = single_vertex_saw(cone)
    _bind_faces(u_graph, cp, v)

    shared_flags = [cp.crease_other_end(c, v) in merged for c in cone.crease_ids]
    shared = [c for c, f in zip(cone.crease_ids, shared_flags) if f]
    if not shared:
        return _splice_disjoint(g, cp, u_graph, merged, v)

    if not _contiguous(shared_flags):
        raise DisconnectedInterior(f"shared creases of {v} are not contiguous")
    # rotate the shared block into cyclic order c_s..c_e
    n = len(shared_flags)
    start = next(i for i in range(n)
                 if shared_flags[i] and not shared_flags[(i - 1) % n])
    block = []
    i = start
    while shared_flags[i]:
        block.append(cone.crease_ids[i])
        i = (i + 1) % n

    # orientation pass: compare geometric sides; a global negation of the
    # incoming graph is a free variant, use it when it fixes the majority
    g_edges = g.crossing_edges()
    u_edges = u_graph.crossing_edges()
    mism = [c for c in block if g_edges[c].tail_side != u_edges[c].tail_side]
    if len(mism) * 2 > len(block):
        u_graph = negate_orientations(u_graph)
        u_edges = u_graph.crossing_edges()
        mism = [c for c in block if g_edges[c].tail_side != u_edges[c].tail_side]
    for c in mism:
        u_graph = insert_triangle(u_graph, u_edges[c].id)
        u_edges = u_graph.crossing_edges()

    u_graph = _clear_window_junk(u_graph, block)
    g = _clear_window_junk(g, list(reversed(block)))
    return _zip(g, u_graph, block)


def _window(walk: list[tuple[int, int]], edges: dict, creases: list[str]):
    """Locate the walk window whose directed edges are exactly the given
    creases in order (undirected edges allowed in between). Returns
    (start, end) step indices, inclusive, in cyclic terms."""
    n = len(walk)
    target = list(creases)
    for s in range(n):
        e0 = edges[walk[s][1]]
        if not e0.directed or e0.crease != target[0]:
            continue
        seen = []
        i = s
        for _ in range(n):
            e = edges[walk[i][1]]
            if e.directed:
                seen.append(e.crease)
                if seen != target[:len(seen)]:
                    break
                if len(seen) == len(target):
                    return s, i
            i = (i + 1) % n
    raise TilingError("window not found on the boundary walk", crease=tuple(creases))


def _clear_window_junk(g: SawGraph, creases: list[str]) -> SawGraph:
    """Push undirected boundary edges out of the window with prisms.

    Always pushes the first junk edge toward the window start; its
    walk-earlier neighbour inside the span is then guaranteed directed, and
    every prism strictly shrinks the junk count inside the window.
    """
    if len(creases) <= 1:
        return g
    while True:
        s, e = _window(g.walk, g.edges, creases)
        n = len(g.walk)
        span = [(i % n) for i in range(s, s + (e - s) % n + 1)]
        junk = [i for i in span if not g.edges[g.walk[i][1]].directed]
        if not junk:
            return g
        i = junk[0]
        dir_idx = span[span.index(i) - 1]
        g = insert_prism(g, g.walk[dir_idx][1], g.walk[i][1])


def _zip(g: SawGraph, u: SawGraph, block: list[str]) -> SawGraph:
    """Identify the band vertices of u with those of g and fuse u into g in
    place."""
    gs, ge = _window(g.walk, g.edges, list(reversed(block)))
    us, ue = _window(u.walk, u.edges, block)
    ng, nu = len(g.walk), len(u.walk)
    g_span = [(i % ng) for i in range(gs, gs + (ge - gs) % ng + 1)]
    u_span = [(i % nu) for i in range(us, us + (ue - us) % nu + 1)]
    if len(g_span) != len(block) or len(u_span) != len(block):
        raise TilingError("band windows still contain junk", crease=tuple(block))

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

    vmap: dict[int, int] = {}
    for uv, gv in pairs:
        vmap[uv] = gv
        # the incoming side knows the finest (pattern-level) face
        g.vertices[gv].face = u.vertices[uv].face
    for sv in u.vertices.values():
        if sv.id not in vmap:
            vmap[sv.id] = g.add_vertex(face=sv.face)
    emap: dict[int, int] = {}
    dropped: dict[int, int] = {}
    for se in u.edges.values():
        if se.directed and se.crease in g_band:
            dropped[se.id] = g_band[se.crease].id
            continue
        emap[se.id] = g.add_edge(vmap[se.u], vmap[se.v], se.directed,
                                 se.crease, se.tail_side)

    # new walk: g's walk with the window replaced by u's complement arc
    u_complement = []
    i = (u_span[-1] + 1) % nu
    while i != u_span[0]:
        v0, e0 = u.walk[i]
        u_complement.append((vmap[v0], emap.get(e0, dropped.get(e0))))
        i = (i + 1) % nu
    new_walk = []
    # rotate g.walk to start right after the window
    start = (g_span[-1] + 1) % ng
    i = start
    while True:
        if i == g_span[0]:
            break
        new_walk.append(g.walk[i])
        i = (i + 1) % ng
    g.walk = new_walk + u_complement
    g.check_walk()
    return g


def _splice_disjoint(g: SawGraph, cp: CreasePattern, u: SawGraph,
                     merged: set[str], vname: str) -> SawGraph:
    """Merge with no shared creases: identify one vertex through the face
    both graphs currently share, fusing u into g in place."""
    if not g.vertices:
        # empty base (no chords): u becomes the graph
        return u
    # group faces into regions connected across creases not yet crossed
    present = {e.crease for e in g.edges.values() if e.directed}
    present |= {e.crease for e in u.edges.values() if e.directed}
    parent = {f.id: f.id for f in cp.faces if not f.is_outer}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c, (fa, fb) in cp.crease_sides.items():
        if c in present:
            continue
        ra, rb = find(fa), find(fb)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    on_walk = g.walk_vertices() if g.walk else set(g.vertices)
    u_pick = g_pick = None
    for uv in sorted(u.walk_vertices()):
        r = find(u.vertices[uv].face)
        candidates = [sv.id for sv in g.vertices.values()
                      if sv.id in on_walk and find(sv.face) == r]
        if candidates:
            u_pick, g_pick = uv, min(candidates)
            break
    if u_pick is None:
        raise DisconnectedInterior(
            f"no face connection found while merging {vname}")

    vmap = {u_pick: g_pick}
    g.vertices[g_pick].face = u.vertices[u_pick].face
    for sv in u.vertices.values():
        if sv.id != u_pick:
            vmap[sv.id] = g.add_vertex(face=sv.face)
    emap = {}
    for se in u.edges.values():
        emap[se.id] = g.add_edge(vmap[se.u], vmap[se.v], se.directed,
                                 se.crease, se.tail_side)
    # splice u's walk (rotated to start at u_pick) into g's walk at g_pick
    u_walk = [(vmap[v0], emap[e0]) for v0, e0 in u.walk]
    ui = next(i for i, (v0, _) in enumerate(u_walk) if v0 == g_pick)
    u_rot = u_walk[ui:] + u_walk[:ui]
    if not g.walk:
        g.walk = u_rot
        g.check_walk()
        return g
    gi = next(i for i, (v0, _) in enumerate(g.walk) if v0 == g_pick)
    g.walk = g.walk[:gi] + u_rot + g.walk[gi:]
    g.check_walk()
    return g
