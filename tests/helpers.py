"""Constructions shared by the SAW and acceptance tests, most notably the
deliberately-invalid joined-twist merge that identifies undirected
boundary edges (the failure mode the tiling procedure must avoid)."""

from __future__ import annotations

import random

from flatfold import coloring, oracle
from flatfold.coloring import BijectionReport
from flatfold.cp import build_crease_pattern, cone_at
from flatfold.errors import (
    AmbiguousCompletion,
    DisconnectedInterior,
    ImproperColoring,
    NoCompletion,
)
from flatfold.generators import modified_miura, snake, triangle_twist
from flatfold.geometry import on_segment, orient
from flatfold.oracle import enumerate_locally_valid
from flatfold.saw import SawGraph, insert_prism, negate_orientations, single_vertex_saw
from flatfold.tiling import _bind_faces, _merge_vertex


def first_coloring(g: SawGraph) -> dict[int, int]:
    """Cheapest proper 3-coloring with the root colored 0 (no enumeration)."""
    ids = sorted(g.vertices)
    adj = g.adjacency()
    pos = {v: i for i, v in enumerate(ids)}
    earlier = [[pos[w] for w in adj[v] if pos[w] < pos[v]] for v in ids]
    root_pos = pos[g.root]
    colors = [0] * len(ids)

    def rec(i):
        if i == len(ids):
            return True
        for c in ((0,) if i == root_pos else (0, 1, 2)):
            if any(colors[p] == c for p in earlier[i]):
                continue
            colors[i] = c
            if rec(i + 1):
                return True
        return False

    if not rec(0):
        raise ValueError("graph has no proper 3-coloring")
    return dict(zip(ids, colors))


def twist_unit_saw(cp, vertex_ids) -> SawGraph:
    """SAW graph of the sub-pattern spanned by one twist unit's vertices:
    the first vertex's graph, bound to the pattern, with the others merged
    into it."""
    first, *rest = sorted(vertex_ids)
    g = single_vertex_saw(cone_at(cp, first))
    _bind_faces(g, cp, first)
    merged = {first}
    for v in rest:
        cone = cone_at(cp, v)
        _merge_vertex(g, cp, v, cone, single_vertex_saw(cone), merged)
        merged.add(v)
    return g


def _walk_desc(g):
    return [(g.edges[e].crease if g.edges[e].directed else None) for _, e in g.walk]


def _push_junk_between(g: SawGraph, ca: str, cb: str) -> SawGraph:
    """Prism the (single) undirected boundary edge until it sits between the
    crossing edges of creases ca and cb."""
    for _ in range(30):
        wd = _walk_desc(g)
        n = len(wd)
        ui = wd.index(None)
        prev_c = next(wd[(ui - k) % n] for k in range(1, n) if wd[(ui - k) % n])
        nxt_c = next(wd[(ui + k) % n] for k in range(1, n) if wd[(ui + k) % n])
        if {prev_c, nxt_c} == {ca, cb}:
            return g
        di = next((ui - k) % n for k in range(1, n)
                  if g.edges[g.walk[(ui - k) % n][1]].directed)
        g2 = g.copy()
        insert_prism(g2, g.walk[di][1], g.walk[ui][1])
        g = g2
    raise RuntimeError("could not position the undirected edge")


def _window3(g, ca, cb):
    wd = _walk_desc(g)
    n = len(wd)
    for i in range(n):
        if wd[i] is not None:
            continue
        a, b = wd[(i - 1) % n], wd[(i + 1) % n]
        if {a, b} == {ca, cb}:
            return [(i - 1) % n, i, (i + 1) % n]
    raise RuntimeError("no [directed, undirected, directed] window")


def invalid_joined_twist_saw():
    """The known-bad merge of two twist SAW graphs: the two crossing edges
    over the shared creases AND the undirected boundary edges between them
    are all identified. Returns (pattern, bad_graph).

    The undirected identification makes two triangles share an edge, which
    wrongly links the MV parity of creases in the two twist units, so the
    graph undercounts.
    """
    cp = triangle_twist(2)
    unit0 = [v for v in cp.interior_vertex_ids()][:3]
    unit1 = [v for v in cp.interior_vertex_ids()][3:]
    shared = sorted(c for c, (a, b) in cp.creases.items()
                    if (a in unit0) != (b in unit0)
                    and a in cp.vertices and b in cp.vertices)
    ca, cb = shared
    gA = twist_unit_saw(cp, unit0)
    gB = twist_unit_saw(cp, unit1)
    # align orientations with the free global reversal, then stage both
    # boundaries into the [directed, undirected, directed] configuration
    eA = gA.crossing_edges()
    eB = gB.crossing_edges()
    if eA[ca].tail_side != eB[ca].tail_side:
        gB2 = gB.copy()
        negate_orientations(gB2)
        gB = gB2
        eB = gB.crossing_edges()
    assert eA[ca].tail_side == eB[ca].tail_side
    assert eA[cb].tail_side == eB[cb].tail_side
    gA = _push_junk_between(gA, ca, cb)
    gB = _push_junk_between(gB, ca, cb)

    wA = _window3(gA, ca, cb)
    wB = _window3(gB, ca, cb)

    def chain(g, w):
        vs = [g.walk[w[0]][0]]
        for i in w:
            vs.append(g.edges[g.walk[i][1]].other(vs[-1]))
        return vs

    chA = chain(gA, wA)
    chB = chain(gB, wB)
    firstA = gA.edges[gA.walk[wA[0]][1]].crease
    firstB = gB.edges[gB.walk[wB[0]][1]].crease
    assert firstA != firstB, "windows must run anti-parallel"

    g = gA.copy()
    vmap = {b: a for a, b in zip(chA, reversed(chB))}
    for sv in gB.vertices.values():
        if sv.id not in vmap:
            vmap[sv.id] = g.add_vertex(face=sv.face)
    undA = gA.walk[wA[1]][1]
    undB = gB.walk[wB[1]][1]
    emap, dropped = {}, {}
    for se in gB.edges.values():
        if se.directed and se.crease in (ca, cb):
            dropped[se.id] = next(e.id for e in g.edges.values()
                                  if e.directed and e.crease == se.crease)
            continue
        if se.id == undB:
            dropped[se.id] = undA  # the wrong identification
            continue
        emap[se.id] = g.add_edge(vmap[se.u], vmap[se.v], se.directed,
                                 se.crease, se.tail_side)
    nA, nB = len(gA.walk), len(gB.walk)
    new_walk = []
    i = (wA[2] + 1) % nA
    while i != wA[0]:
        new_walk.append(g.walk[i])
        i = (i + 1) % nA
    i = (wB[2] + 1) % nB
    while i != wB[0]:
        v0, e0 = gB.walk[i]
        new_walk.append((vmap[v0], emap.get(e0, dropped.get(e0))))
        i = (i + 1) % nB
    g.walk = new_walk
    g.check_walk()
    return cp, g


def grid_saw(m: int, n: int) -> SawGraph:
    """The m x n grid graph as a bare SawGraph (root at a corner)."""
    g = SawGraph()
    ids = {}
    for r in range(m):
        for c in range(n):
            ids[(r, c)] = g.add_vertex()
    for r in range(m):
        for c in range(n):
            if r + 1 < m:
                g.add_edge(ids[(r, c)], ids[(r + 1, c)])
            if c + 1 < n:
                g.add_edge(ids[(r, c)], ids[(r, c + 1)])
    g.root = 0
    return g


def reference_clip_order(cp) -> list[str]:
    """The clip order by rescanning: each pick re-tests every remaining
    vertex for clippability, and each candidate for being a cut vertex by
    a search over all remaining vertices. The library keeps the clippable
    set up to date instead and must pick the same order."""
    nbrs = {v: [cp.crease_other_end(c, v) for c in ids]
            for v, ids in cp.ccw_creases.items()}

    def contiguous(flags):
        n = len(flags)
        return sum(flags[i] != flags[(i + 1) % n] for i in range(n)) <= 2

    def is_cut(remaining, v):
        near = {w for w in nbrs[v] if w in remaining}
        if len(near) <= 1:
            return False
        rest = remaining - {v}
        start = next(iter(near))
        seen, stack = {start}, [start]
        while stack:
            for x in nbrs[stack.pop()]:
                if x in rest and x not in seen:
                    seen.add(x)
                    stack.append(x)
        return not near <= seen

    remaining = set(nbrs)
    order = []
    while remaining:
        clippable = []
        for v in sorted(remaining):
            shared = [w in remaining for w in nbrs[v]]
            if not all(shared) and contiguous(shared):
                clippable.append(v)
        if not clippable:
            raise DisconnectedInterior("no clippable vertex")
        pick = next((v for v in clippable if not is_cut(remaining, v)),
                    clippable[0])
        order.append(pick)
        remaining.discard(pick)
    return order


class CreaseGraph:
    """Crease incidences and each interior vertex's cyclic crease order
    alone: the part of a pattern the clip order reads."""

    def __init__(self, creases: dict[str, tuple[str, str]],
                 ccw_creases: dict[str, tuple[str, ...]]):
        self.creases = creases
        self.ccw_creases = ccw_creases

    def crease_other_end(self, c: str, v: str) -> str:
        a, b = self.creases[c]
        return b if a == v else a


def random_crease_graph(rng: random.Random, n: int):
    """A random graph on n interior vertices with boundary creases and a
    random cyclic crease order at each vertex, not necessarily planar."""
    creases = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                creases[f"c{len(creases)}"] = (f"v{i}", f"v{j}")
        for _ in range(rng.randint(0, 2)):
            creases[f"c{len(creases)}"] = (f"v{i}", f"b{len(creases)}")
    at = {f"v{i}": [] for i in range(n)}
    for c, (a, b) in creases.items():
        for end in (a, b):
            if end in at:
                at[end].append(c)
    for v, ids in at.items():
        if not ids:  # a lone vertex gets a crease to the boundary
            ids.append(f"c{len(creases)}")
            creases[ids[0]] = (v, f"b{len(creases)}")
        rng.shuffle(ids)
    return CreaseGraph(creases, {v: tuple(ids) for v, ids in at.items()})


def small_pattern(kind: str, m: int, n: int, seed: int):
    """A seeded modified-Miura mask, a snake (both m x n) or twists 1-3."""
    if kind == "modified-miura":
        rng = random.Random(seed)
        return modified_miura(m, n, [rng.random() < 0.5 for _ in range(n - 1)])
    if kind == "snake":
        return snake(m, n)
    return triangle_twist(1 + seed % 3)


# boundary points, counter-clockwise, for the creases of a star vertex
_STAR_ENDS = {
    4: [(4, 0), (0, 4), (-4, 0), (0, -4)],
    6: [(4, 0), (2, 4), (-2, 4), (-4, 0), (-2, -4), (2, -4)],
}


def star_pattern(angles):
    """One interior vertex v0 at the centre of a square, with a crease to
    the boundary per declared sector angle (degree 4 or 6)."""
    ends = _STAR_ENDS[len(angles)]
    return build_crease_pattern(
        vertices={"v0": (0, 0)},
        creases={f"c{i}": ("v0", f"b{i}") for i in range(len(ends))},
        region=[(-4, -4), (4, -4), (4, 4), (-4, 4)],
        boundary_points={f"b{i}": p for i, p in enumerate(ends)},
        declared_angles={"v0": tuple(angles)},
    )


def vertex_id_order(cp) -> list[str]:
    """The crease order the oracle used before the vertex sweep: each
    interior vertex's creases counterclockwise, in vertex-id order, then
    the creases no vertex has."""
    return list(dict.fromkeys([c for v in cp.interior_vertex_ids() for c in cp.ccw_creases[v]]
                              + sorted(cp.creases)))


def sweep_order(cp, axis: int) -> list[str]:
    """The oracle's vertex sweep along one axis (0 is x then y, 1 is y then
    x), written out from its definition."""
    swept = sorted(cp.vertices, key=lambda v: (cp.vertices[v][axis], cp.vertices[v][1 - axis]))
    order = [c for v in swept for c in cp.ccw_creases[v]]
    return list(dict.fromkeys(order + sorted(cp.creases)))


def oracle_plan(cp, order: list[str]) -> list:
    """The oracle's crease search plan over a fixed crease order, which
    lists every crease once, in place of the vertex sweep."""
    assert sorted(order) == sorted(cp.creases)
    return oracle._plan(oracle._cones(cp), order)


def replayed_width(plan) -> int:
    """The most frontier slots live at once, by replaying the slot rule of
    ``search.frontier_count`` on explicit slot sets: at each position, the
    read positions it is the last reader of leave the frontier, then the
    position enters it if any later position reads it."""
    readers: dict[int, list[int]] = {}
    for i, (reads, _) in enumerate(plan):
        for k in reads:
            readers.setdefault(k, []).append(i)
    live: set[int] = set()
    width = 0
    for i, (reads, _) in enumerate(plan):
        live -= {k for k in reads if readers[k][-1] == i}
        if i in readers:
            live.add(i)
        width = max(width, len(live))
    return width


def reference_segments_conflict(a, b, c, d) -> bool:
    """``geometry.segments_conflict`` as it was before its shared-endpoint
    shortcut: the general orientation test, with shared endpoints skipped
    in the touch checks."""
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True  # identical or reversed segment
    d1 = orient(c, d, a)
    d2 = orient(c, d, b)
    d3 = orient(a, b, c)
    d4 = orient(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and \
       ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)):
        return True
    # collinear / endpoint-touch cases
    for p, (u, v) in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b))):
        if p in shared:
            continue
        if on_segment(p, u, v) and p not in (u, v):
            return True
    return False


def _reference_to_mv(g: SawGraph, s: dict[int, int]) -> dict[str, int]:
    """``coloring_to_mv`` as it was before colorings were read into color
    lists: the checks and the translation on the coloring dict."""
    if s.keys() != set(g.vertices):
        raise ImproperColoring("coloring domain mismatch")
    if s[g.root] != 0:
        raise ImproperColoring("root is not colored 0")
    for e in g.edges.values():
        if s[e.u] == s[e.v]:
            raise ImproperColoring(f"edge {e.id} endpoints share color {s[e.u]}")
    return {e.crease: 1 if (s[e.v] - s[e.u]) % 3 == 1 else -1
            for e in g.edges.values() if e.directed}


def reference_verify_bijection(cp, g: SawGraph, cap: int = 200000) -> BijectionReport:
    """``coloring.verify_bijection`` as it was before it streamed: lists of
    witness dicts and colorings, keys over the sorted crease ids, and every
    translation and lift on dicts. Colorings come from the
    ``coloring.enumerate_colorings`` attribute, so a test that replaces it
    feeds both functions the same list."""
    report = enumerate_locally_valid(cp, cap=cap)
    # assignment keys list values in one fixed crease order (None if absent)
    order = sorted(cp.creases)
    keys = [tuple(map(m.get, order)) for m in report.witnesses]
    mset = set(keys)
    colorings = coloring.enumerate_colorings(g, cap=cap)
    n_col = len(colorings)

    translation_valid = injective = round_trip = True
    counterexample = None

    seen = set()
    for s in colorings:
        mv = _reference_to_mv(g, s)
        key = tuple(map(mv.get, order))
        if key not in mset:
            translation_valid = False
            counterexample = counterexample or ("coloring maps outside M", s)
        if key in seen:
            injective = False
            counterexample = counterexample or ("two colorings share an assignment", s)
        seen.add(key)
        try:
            back = coloring.mv_to_coloring(g, mv)
        except Exception as exc:  # noqa: BLE001 - report, don't raise
            round_trip = False
            counterexample = counterexample or ("mv_to_coloring failed", str(exc))
            continue
        if back != s:
            round_trip = False
            counterexample = counterexample or ("round trip mismatch", s)
    if not {e.crease for e in g.edges.values() if e.directed} - set(cp.creases):
        for m, key in zip(report.witnesses, keys):
            if key in seen:
                continue
            try:
                if _reference_to_mv(g, coloring.mv_to_coloring(g, m)) != m:
                    round_trip = False
                    counterexample = counterexample or ("assignment round trip", m)
            except Exception as exc:  # noqa: BLE001
                round_trip = False
                counterexample = counterexample or ("assignment does not lift", str(exc))
    return BijectionReport(
        count_mv=report.count, count_colorings=n_col, counts_match=report.count == n_col,
        translation_valid=translation_valid, injective=injective,
        round_trip_ok=round_trip, first_counterexample=counterexample)


def reference_depth_first(plan):
    """``search.depth_first`` as it was before its readers and its
    last-position shortcut: every position, the last included, pushes an
    iterator over its memoized values onto an explicit stack."""
    n = len(plan)
    vals = [0] * n
    memo = [{} for _ in plan]
    stack = []
    i = 0   # the position to open next
    while True:
        if i == n:
            yield tuple(vals)
        else:
            reads, allowed = plan[i]
            key = tuple([vals[k] for k in reads])
            got = memo[i].get(key)
            if got is None:
                got = memo[i][key] = allowed(key)
            stack.append(iter(got))
        while stack and (v := next(stack[-1], None)) is None:
            stack.pop()
        if not stack:
            return
        i = len(stack)
        vals[i - 1] = v


# the color a vertex is forced to, by the bit mask of two banned colors
_THIRD = (-1, -1, -1, 2, -1, 1, 0, -1)
# colors left to a vertex, by the bit mask of its colored neighbours' colors
_LEFT = [tuple(c for c in range(3) if not banned >> c & 1) for banned in range(8)]


def reference_lift(g: SawGraph, steps: list[int]) -> list[int]:
    """``coloring._Plan.lift`` as it was before the tree lift: from the
    root (colored 0), a worklist propagates forced colors over every graph,
    and a depth-first search completes a stalled propagation, stopping at
    the second completion. Returns the color list over the sorted vertex
    ids; raises NoCompletion or AmbiguousCompletion."""
    vertices = sorted(g.vertices)
    index = {v: i for i, v in enumerate(vertices)}
    root = index.get(g.root)
    directed = []
    nbrs = [[] for _ in vertices]
    for e in g.edges.values():
        k = -1
        if e.directed:
            k = len(directed)
            directed.append(e.crease)
        nbrs[index[e.u]].append((index[e.v], k, True))
        nbrs[index[e.v]].append((index[e.u], k, False))

    def propagate(colors, banned, start):
        todo = [start]
        while todo:
            v = todo.pop()
            c = colors[v]
            for w, k, is_tail in nbrs[v]:
                cw = colors[w]
                if k < 0:
                    if cw < 0:
                        b = banned[w] = banned[w] | 1 << c
                        if _THIRD[b] >= 0:
                            colors[w] = _THIRD[b]
                            todo.append(w)
                    elif cw == c:
                        return f"SAW vertices {vertices[v]} and {vertices[w]} share color {c}"
                else:
                    want = (c + steps[k] if is_tail else c - steps[k]) % 3
                    if cw < 0:
                        colors[w] = want
                        todo.append(w)
                    elif cw != want:
                        return f"crease {directed[k]} translates inconsistently"
        return None

    if root is None:
        raise NoCompletion(f"root {g.root} is not a vertex")
    colors = [-1] * len(vertices)
    banned = [0] * len(vertices)
    colors[root] = 0
    err = propagate(colors, banned, root)
    if err:
        raise NoCompletion(err)
    if -1 not in colors:
        return colors
    found = None
    stack = [(colors, banned)]
    while stack:
        colors, banned = stack.pop()
        v = next((i for i, b in enumerate(banned) if b and colors[i] < 0), None)
        if v is None:
            v = colors.index(-1)
        for c in _LEFT[banned[v]]:
            cs, bs = colors[:], banned[:]
            cs[v] = c
            if propagate(cs, bs, v):
                continue
            if -1 in cs:
                stack.append((cs, bs))
            elif found is None:
                found = cs
            else:
                raise AmbiguousCompletion("the assignment lifts to more than one coloring")
    if found is None:
        raise NoCompletion("no coloring completes the assignment")
    return found
