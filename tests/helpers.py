"""Constructions shared by the SAW and acceptance tests, most notably the
deliberately-invalid joined-twist merge that identifies undirected
boundary edges (the failure mode the tiling procedure must avoid)."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from flatfold import coloring, oracle, patternio
from flatfold.coloring import BijectionReport
from flatfold.cp import MV_OF_STEP, ConeVertex, Face, build_crease_pattern, cone_at
from flatfold.errors import (
    AllAnglesEqual,
    AmbiguousCompletion,
    DisconnectedInterior,
    ImproperColoring,
    InvalidRun,
    NoCompletion,
    ValidationError,
)
from flatfold.generators import modified_miura, snake, triangle_twist
from flatfold.geometry import ANGLE_KEY, on_segment, orient, polygon_signed_area2, primitive
from flatfold.oracle import enumerate_locally_valid
from flatfold.saw import SawGraph, insert_prism, negate_orientations, single_vertex_saw
from flatfold.search import checked, frontier_count, frontier_width
from flatfold.single_vertex import CrimpStep, CrimpTrace, MinRun, _check_values, _schedule
from flatfold.tiling import _bound, _merge_vertex


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
    the first vertex's graph, bound to the pattern, with the others' bound
    graphs merged into it."""
    def bound(v):
        cone = cone_at(cp, v)
        return cone, _bound(single_vertex_saw(cone), cp, v, {c: c for c in cone.crease_ids})

    first, *rest = sorted(vertex_ids)
    g = bound(first)[1]
    merged = {first}
    crossing = g.crossing_edges()
    for v in rest:
        _merge_vertex(g, cp, v, *bound(v), merged, crossing)
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
    # align orientations with the free global reversal (two crossing edges
    # of a crease agree when their tails share a face), then stage both
    # boundaries into the [directed, undirected, directed] configuration
    def tail_face(g, c):
        return g.vertices[g.crossing_edges()[c].u].face

    if tail_face(gA, ca) != tail_face(gB, ca):
        gB2 = gB.copy()
        negate_orientations(gB2)
        gB = gB2
    assert tail_face(gA, ca) == tail_face(gB, ca)
    assert tail_face(gA, cb) == tail_face(gB, cb)
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
        emap[se.id] = g.add_edge(vmap[se.u], vmap[se.v], se.directed, se.crease)
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


def grid_coloring_count(m: int, n: int) -> int:
    """Proper 3-colorings of ``grid_saw(m, n)`` with its corner root
    colored 0, by a row transfer matrix that shares no plan with
    ``coloring``: the states are the proper colorings of a row of n, a row
    may follow any row it differs from at every column, and a third of
    all colorings color the root 0 (Ginepro and Hull, "Counting Miura-ori
    foldings", J. Integer Sequences, 2014)."""
    def rows_beside(q: tuple[int, ...]) -> list[tuple[int, ...]]:
        rows: list[tuple[int, ...]] = [()]
        for i in range(n):
            rows = [r + (c,) for r in rows for c in range(3) if c != q[i] and r[-1:] != (c,)]
        return rows

    counts = dict.fromkeys(rows_beside((3,) * n), 1)    # 3 is no color
    for _ in range(m - 1):
        new = dict.fromkeys(counts, 0)
        for q, k in counts.items():
            for r in rows_beside(q):
                new[r] += k
        counts = new
    return sum(counts.values()) // 3


def reference_face_regions(cp, kept: set[str]) -> dict[str, str]:
    """Each interior face's region, the faces joined across every crease
    not in kept, named by its least face id, by a union-find: the library
    searches each region from its least face instead and must name every
    face alike."""
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
    10: [(4, 0), (4, 1), (4, 2), (2, 4), (-1, 4), (-4, 0), (-4, -1), (-4, -3),
         (-2, -4), (1, -4)],
    16: [(4, 0), (4, 1), (4, 3), (3, 4), (1, 4), (-1, 4), (-3, 4), (-4, 3),
         (-4, 1), (-4, -1), (-4, -3), (-3, -4), (-1, -4), (1, -4), (3, -4), (4, -3)],
    20: [(4, 0), (4, 1), (4, 3), (3, 4), (1, 4), (0, 4), (-1, 4), (-3, 4), (-4, 3), (-4, 1),
         (-4, 0), (-4, -1), (-4, -3), (-3, -4), (-1, -4), (0, -4), (1, -4), (3, -4), (4, -3),
         (4, -1)],
}


def star_pattern(angles):
    """One interior vertex v0 at the centre of a square, with a crease to
    the boundary per declared sector angle (degree 4, 6, 10, 16 or 20)."""
    ends = _STAR_ENDS[len(angles)]
    return build_crease_pattern(
        vertices={"v0": (0, 0)},
        creases={f"c{i}": ("v0", f"b{i}") for i in range(len(ends))},
        region=[(-4, -4), (4, -4), (4, 4), (-4, 4)],
        boundary_points={f"b{i}": p for i, p in enumerate(ends)},
        declared_angles={"v0": tuple(angles)},
    )


def joined_star_pattern():
    """The all-equal degree-20 star of ``star_pattern``, its crease c0
    ending at a degree-2 interior vertex v1 at (2, 0), which crease c20
    joins to the boundary: c0 is the one crease with two interior ends."""
    ends = _STAR_ENDS[20]
    creases = {f"c{i}": ("v0", f"b{i}") for i in range(20)}
    creases.update(c0=("v0", "v1"), c20=("v1", "b0"))
    return build_crease_pattern(
        vertices={"v0": (0, 0), "v1": (2, 0)},
        creases=creases,
        region=[(-4, -4), (4, -4), (4, 4), (-4, 4)],
        boundary_points={f"b{i}": p for i, p in enumerate(ends)},
        declared_angles={"v0": (18,) * 20},
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
    """The oracle's listing plan over a fixed crease order, which lists
    every crease once, in place of the vertex sweep, its checks built
    independently of the oracle's tables: each crease takes step 1 or 2,
    and each interior vertex is checked at its last crease by walking its
    crimp schedule (``single_vertex._check_values``)."""
    assert sorted(order) == sorted(cp.creases)
    pos = {c: i for i, c in enumerate(order)}
    checks = [([pos[c] for c in cone.crease_ids], partial(_schedule_passes, _schedule(cone.scaled)))
              for cone in oracle._cones(cp).values()]
    return checked([([], lambda vals: (1, 2))] * len(order), checks)


def _schedule_passes(sched, vals, places: list[int]) -> bool:
    """Whether the steps at ``places`` of ``vals`` pass the crimp schedule
    ``sched``."""
    return _check_values(sched, [MV_OF_STEP[vals[k]] for k in places])


def reference_search_plan(cp):
    """The oracle's listing plan as it was before it chose the axis by its
    reads alone: both sweeps' full plans, the narrower kept, x on a tie."""
    cones = oracle._cones(cp)
    plans = []
    for axis in (0, 1):
        swept = sorted(cones, key=lambda v: (cp.vertices[v][axis], cp.vertices[v][1 - axis]))
        order = list(dict.fromkeys([c for v in swept for c in cones[v].crease_ids]
                                   + sorted(cp.creases)))
        plans.append((order, oracle_plan(cp, order)))
    return min(plans, key=lambda op: frontier_width(op[1]))


def moved_pattern(cp, k: int, scale=1, shift=(0, 0), seed: int = 0):
    """``cp`` mapped through the k-th of the square's 8 symmetries (for
    k >= 4 the reflection x -> -x, then k % 4 quarter turns
    counterclockwise), scaled by ``scale`` and shifted by ``shift``, both
    rational, then written as a pattern file with every vertex, boundary
    point and crease under a fresh id in a seeded random order, each row
    list shuffled and the region started at a seeded corner, and read back
    (``patternio.pattern_from_dict``).

    A declared angle list follows its vertex's creases: it is reversed
    under the reflection (``ConeVertex.reflected``) and rotated to start
    at the crease with the lowest new id (``ConeVertex.rotated``). The
    region is reversed under the reflection, so it stays counterclockwise.
    """
    rng = random.Random(seed)
    reflect = k >= 4

    def moved(p):
        x, y = p
        if reflect:
            x = -x
        for _ in range(k % 4):
            x, y = -y, x
        return x * scale + shift[0], y * scale + shift[1]

    def fresh(ids, prefix):
        return dict(zip(ids, (f"{prefix}{i}" for i in rng.sample(range(len(ids)), len(ids)))))

    name = fresh(sorted(cp.vertices) + sorted(cp.boundary_points), "n")
    name.update(fresh(sorted(cp.creases), "c"))
    angles = {}
    for v in cp.declared_angles:
        cone = cone_at(cp, v).reflected() if reflect else cone_at(cp, v)
        ids = [name[c] for c in cone.crease_ids]
        angles[name[v]] = [str(a) for a in cone.rotated(ids.index(min(ids))).angles]
    region = [moved(p) for p in cp.region]
    if reflect:
        region.reverse()
    start = rng.randrange(len(region))
    doc = {
        "version": patternio.FORMAT_VERSION,
        "vertices": [{"id": name[v], "x": str(x), "y": str(y)}
                     for v, (x, y) in ((v, moved(p)) for v, p in cp.vertices.items())],
        "boundary_points": [{"id": name[b], "x": str(x), "y": str(y)}
                            for b, (x, y) in ((b, moved(p)) for b, p in cp.boundary_points.items())],
        "creases": [{"id": name[c], "from": name[a], "to": name[b]}
                    for c, (a, b) in cp.creases.items()],
        "region": [[str(x), str(y)] for x, y in region[start:] + region[:start]],
        "angles": angles,
    }
    for rows in (doc["vertices"], doc["boundary_points"], doc["creases"]):
        rng.shuffle(rows)
    return patternio.pattern_from_dict(doc)[0]


def sigma(v: int, bits: int = 2) -> int:
    """sigma, the exchange of the values 1 and 2, on each 2-bit field of
    the ``bits``-bit value ``v``: 01 and 10 swap, 00 and 11 stay."""
    lo = ((1 << bits) - 1) // 3
    return (v & lo) << 1 | (v >> 1) & lo


def sigma_checked(plan, bits: int = 2) -> list:
    """``plan`` with each ``allowed`` asserting, on every tuple it is
    asked, the equivariance that ``frontier_count``'s ``swap`` needs: the
    values ``allowed`` gives the tuple's sigma-image are the sigma-images of
    the values it gives the tuple, each as often (a multiset, since a value
    may repeat), sigma acting on each 2-bit field of a ``bits``-bit
    value."""
    def checked(allowed, vals):
        got = allowed(vals)
        flipped = allowed(tuple([sigma(v, bits) for v in vals]))
        assert sorted(flipped) == sorted(sigma(v, bits) for v in got), vals
        return got
    return [(reads, partial(checked, allowed)) for reads, allowed in plan]


def swap_counted(plan, bits: int = 2) -> int:
    """``frontier_count(plan, bits, swap=True)``, once the plain DP over
    ``sigma_checked(plan, bits)`` has found every tuple it asks
    equivariant and given the same count."""
    count = frontier_count(plan, bits, swap=True)
    assert count == frontier_count(sigma_checked(plan, bits), bits)
    return count


def rho(v: int) -> int:
    """rho, the rotation of the colors 0, 1, 2 to 1, 2, 0, on the low 2-bit
    field of ``v``; the higher bits stay."""
    return v - (v & 3) + ((v & 3) + 1) % 3


def rho_checked(plan) -> list:
    """``plan`` with each ``allowed`` after the first position asserting, on
    every tuple it is asked, the equivariance that ``frontier_count``'s
    ``rotate`` needs: the values ``allowed`` gives the tuple's rho-image
    are the rho-images of the values it gives the tuple, each as often (a
    multiset), rho turning the low 2-bit field of each value, whatever its
    width."""
    def checked(allowed, vals):
        got = allowed(vals)
        turned = allowed(tuple([rho(v) for v in vals]))
        assert sorted(turned) == sorted(rho(v) for v in got), vals
        return got
    return [(reads, partial(checked, allowed) if i else allowed)
            for i, (reads, allowed) in enumerate(plan)]


def rotate_counted(plan, bits: int = 2) -> int:
    """``frontier_count(plan, bits, swap=True, rotate=True)``, once the
    plain DP over ``rho_checked(sigma_checked(plan, bits))`` has found
    every tuple it asks equivariant and given the same count."""
    count = frontier_count(plan, bits, swap=True, rotate=True)
    assert count == frontier_count(rho_checked(sigma_checked(plan, bits)), bits)
    return count


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


def reference_min_frontier_order(g: SawGraph) -> list[int]:
    """``coloring._min_frontier_order`` as it was before it kept its counts
    up to date: each candidate's frontier growth recounted from its
    processed neighbours at every step."""
    adj = g.adjacency()
    left = {v: len(ws) for v, ws in adj.items()}
    done: dict[int, None] = {}
    cand = {g.root} if g.root in adj else set()

    def growth(v):
        nbrs = [u for u in adj[v] if u in done]
        return (left[v] > 0) - sum(left[u] == 1 for u in nbrs), -len(nbrs), v

    while cand:
        v = min(cand, key=growth)
        cand.discard(v)
        done[v] = None
        for u in adj[v]:
            left[u] -= 1
            if u not in done:
                cand.add(u)
    return list(done)


def reference_verify_bijection(cp, g: SawGraph, cap: int = 200000) -> BijectionReport:
    """``coloring.verify_bijection`` as it was before it streamed: lists of
    witness dicts and colorings, keys over the sorted crease ids, M
    decided by the oracle's listing (``is_locally_valid`` past its cap),
    and every translation and lift on dicts. Colorings come from
    ``coloring.enumerate_colorings``, which reads the
    ``coloring._colorings`` attribute that ``verify_bijection`` streams,
    so a test that replaces that attribute feeds both functions the same
    colorings; witnesses come from ``oracle._witnesses`` through
    ``enumerate_locally_valid``."""
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
        # past the cap the witnesses are a prefix of M: an image they lack
        # is in M when it crosses every crease and each vertex folds flat
        if key not in mset and (not report.cap_exceeded or None in key
                                or not oracle.is_locally_valid(cp, mv)):
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
    """``coloring._Plan.lift`` written on the graph's edges, with no
    per-graph tables: from the root (colored 0), a worklist propagates
    forced colors, and a depth-first search completes a stalled
    propagation, stopping at the second completion. Returns the color list
    over the sorted vertex ids; raises NoCompletion or AmbiguousCompletion."""
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


# -- the single-vertex layer in Fraction arithmetic ----------------------------
# ``single_vertex`` reads each cone's integer-scaled angles; these are its
# bodies as they were on the exact Fractions, the reference it must match.

def reference_kawasaki_check(cone: ConeVertex) -> bool:
    n = cone.degree
    if n % 2 != 0:
        return False
    s = Fraction(0)
    for i, a in enumerate(cone.angles):
        s += a if i % 2 == 0 else -a
    return s == 0


def reference_find_min_runs(cone: ConeVertex) -> list[MinRun]:
    angles = cone.angles
    n = cone.degree
    if len(set(angles)) == 1:
        raise AllAnglesEqual("all sector angles are equal")
    runs = []
    start0 = 0
    while angles[start0 - 1] == angles[start0]:
        start0 -= 1
    start0 %= n
    i = start0
    seen = 0
    while seen < n:
        j = 1
        while angles[(i + j) % n] == angles[i % n] and j < n:
            j += 1
        prev = angles[(i - 1) % n]
        nxt = angles[(i + j) % n]
        if prev > angles[i % n] and nxt > angles[i % n]:
            creases = tuple(cone.crease_ids[(i + k) % n] for k in range(j + 1))
            runs.append(MinRun(start=i % n, j=j, creases=creases))
        i += j
        seen += j
    runs.sort(key=lambda r: r.start)
    return runs


def reference_crimp(cone: ConeVertex, run: MinRun) -> ConeVertex:
    n = cone.degree
    if run not in reference_find_min_runs(cone):
        raise InvalidRun(f"{run} is not a minimal run of this cone")
    if run.j >= n - 1:
        raise InvalidRun("run neighbours coincide; cone is not flat-foldable")
    rot = cone.rotated((run.start - 1) % n)
    angles = list(rot.angles)
    ids = list(rot.crease_ids)
    j = run.j
    if j % 2 == 1:
        new_angles = [angles[0] - angles[1] + angles[j + 1]] + angles[j + 2:]
        new_ids = [ids[0]] + ids[j + 2:]
    else:
        new_angles = [angles[0]] + angles[j + 1:]
        new_ids = ids[:2] + ids[j + 2:]
    return ConeVertex(tuple(new_angles), tuple(new_ids))


def reference_crimp_trace(cone: ConeVertex) -> CrimpTrace:
    steps = []
    cur = cone
    while len(set(cur.angles)) > 1:
        run = reference_find_min_runs(cur)[0]
        cur = reference_crimp(cur, run)
        steps.append(CrimpStep(run=run, result=cur))
    return CrimpTrace(start=cone, steps=tuple(steps))


def random_rational_cone(rng: random.Random) -> ConeVertex:
    """A cone of degree 2-12 whose angles are drawn from a pool of one to
    four rationals with denominators 1-12, so equal runs (wrapping ones
    too), all-equal cones, odd degrees and Kawasaki failures all occur;
    an even cone is made Kawasaki-valid half the time by moving its last
    angle, when that leaves it positive."""
    n = rng.randint(2, 12)
    pool = [Fraction(rng.randint(1, 60), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
    angles = [rng.choice(pool) for _ in range(n)]
    if n % 2 == 0 and rng.random() < 0.5:
        alt = sum(a if i % 2 == 0 else -a for i, a in enumerate(angles))
        if angles[-1] + alt > 0:
            angles[-1] += alt
    return ConeVertex(tuple(angles), tuple(f"c{i}" for i in range(n)))


def _reference_ccw_ids(dirs):
    """The crease-order rule, sorting every node by exact angle comparison."""
    ids = sorted(dirs, key=lambda i: ANGLE_KEY(dirs[i]))
    k = ids.index(min(ids))
    return ids[k:] + ids[:k]


def reference_trace_faces(vertices, boundary_points, places, creases, region):
    """``cp._trace_faces`` as a plain traversal: two gcds per edge, each
    next half-edge found by its edge's place in the node's crease list, and
    every rotation of each face built to pick its canonical one. Takes the
    arguments the build passes and returns what it must return."""
    pts = {**vertices, **boundary_points}
    node_at = {place: bid for bid, place in places.items()}
    for i, p in enumerate(region):
        if (i, 0) not in node_at:
            node_at[(i, 0)] = f"r{i}"
            pts[f"r{i}"] = p
    ring = [node_at[place] for place in sorted(node_at)]
    segs = [f"s{k}" for k in range(len(ring))]
    edges = dict(creases)
    for k, sid in enumerate(segs):
        edges[sid] = (ring[k], ring[(k + 1) % len(ring)])

    incident = {n: {} for n in pts}
    for eid, (a, b) in edges.items():
        incident[a][eid] = primitive((pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]))
        incident[b][eid] = primitive((pts[a][0] - pts[b][0], pts[a][1] - pts[b][1]))
    order = {}
    for n, dirs in incident.items():
        if len(set(dirs.values())) != len(dirs):
            raise ValidationError(f"overlapping creases at {n}")
        order[n] = _reference_ccw_ids(dirs)

    def next_half_edge(u, eid, v):
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

    face_rows = [(w, polygon_signed_area2([pts[u] for u, _, _ in w])) for w in walks]
    outers = [w for w, a2 in face_rows if a2 < 0]
    if len(outers) != 1:
        raise ValidationError("face traversal failed to find a unique outer face")

    def canon(walk):
        nodes = tuple(u for (u, _, _) in walk)
        return min(nodes[i:] + nodes[:i] for i in range(len(nodes)))

    interior = sorted((w for w, a2 in face_rows if a2 >= 0), key=canon)
    named = [(f"f{i}", w) for i, w in enumerate(interior)] + [("outer", outers[0])]
    faces = []
    he_face = {}
    for fid, walk in named:
        faces.append(Face(id=fid, nodes=tuple(u for (u, _, _) in walk),
                          edge_refs=tuple(e for (_, e, _) in walk),
                          is_outer=fid == "outer"))
        he_face.update((he, fid) for he in walk)
    crease_sides = {cid: (he_face[(a, cid, b)], he_face[(b, cid, a)])
                    for cid, (a, b) in creases.items()}
    corner_faces = {}
    for f, walk in named:
        for i in range(len(walk)):
            _, e1, v = walk[i]
            _, e2, _ = walk[(i + 1) % len(walk)]
            if v in vertices:
                corner_faces[(v, e2, e1)] = f
    ccw_creases = {v: tuple(order[v]) for v in vertices}
    ccw_dirs = {v: tuple(incident[v][c] for c in order[v]) for v in vertices}
    tour = []
    for k, n in enumerate(ring):
        lst = order[n]
        i = lst.index(segs[k])
        after = lst[i + 1:] + lst[:i]
        tour += reversed(after[:after.index(segs[k - 1])])
    return tuple(faces), crease_sides, corner_faces, ccw_creases, ccw_dirs, tuple(tour)
