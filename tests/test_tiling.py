import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatfold import count_colorings, count_locally_valid, tile, verify_bijection
from flatfold import saw, tiling
from flatfold.errors import DisconnectedInterior, FlatfoldError, TilingError, UnsupportedVertex
from flatfold.cp import build_crease_pattern, cone_at
from flatfold.saw import _REFUSALS, SawGraph, single_vertex_saw
from flatfold.generators import (crane, miura, modified_miura, snake, split_waterbomb,
                                 triangle_twist)
from flatfold.patternio import emit, load_text, saw_from_dict, saw_to_dict
from flatfold.tiling import clip_order, select_root

from .helpers import (grid_saw, random_crease_graph, reference_clip_order,
                      reference_face_regions, small_pattern, star_pattern)


def test_tile_matches_oracle_small_miuras():
    for m, n in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]:
        cp = miura(m, n)
        assert count_colorings(tile(cp)) == count_locally_valid(cp)


def test_tile_matches_grid_graph():
    for m, n in [(2, 2), (2, 3), (3, 3), (1, 4)]:
        cp = miura(m, n)
        assert count_colorings(tile(cp)) == count_colorings(grid_saw(m, n))


def test_tile_twists():
    for k in (1, 2, 3):
        cp = triangle_twist(k)
        assert count_colorings(tile(cp)) == count_locally_valid(cp)


def test_tile_snake_with_waterbombs():
    cp = snake(3, 3)
    assert any(len(cp.ccw_creases[v]) == 6 for v in cp.interior_vertex_ids())
    assert count_colorings(tile(cp)) == count_locally_valid(cp)


def test_tile_crane():
    g = tile(crane())
    assert count_colorings(g) == 93312


def test_tile_structure_invariants():
    for cp in (miura(3, 3), triangle_twist(2), snake(2, 4)):
        g = tile(cp)
        g.validate()
        crossed = {e.crease for e in g.edges.values() if e.directed}
        assert crossed == set(cp.creases)
        faces_used = {sv.face for sv in g.vertices.values()}
        for f in cp.interior_faces():
            assert f.id in faces_used
        assert g.is_connected()


def test_clip_order_covers_all_vertices():
    for cp in (miura(3, 3), triangle_twist(3), crane()):
        order = clip_order(cp)
        assert sorted(order) == cp.interior_vertex_ids()


def test_clip_order_matches_rescanning_reference():
    patterns = [crane()] + [triangle_twist(k) for k in (1, 2, 3)]
    for m in range(1, 9):
        for n in range(1, 9):
            patterns.append(snake(m, n))
            patterns.append(small_pattern("modified-miura", m, n, 8 * m + n))
    for cp in patterns:
        assert clip_order(cp) == reference_clip_order(cp)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10 ** 6))
def test_clip_order_matches_reference_on_random_graphs(n, seed):
    # random cyclic orders often make a pick leave a clippable neighbour
    # unclippable, which the pattern families above rarely exercise
    cp = random_crease_graph(random.Random(seed), n)
    try:
        want = reference_clip_order(cp)
    except DisconnectedInterior:
        with pytest.raises(DisconnectedInterior):
            clip_order(cp)
    else:
        assert clip_order(cp) == want


def test_clip_order_work_is_linear(monkeypatch):
    # a pick re-tests only its neighbours for clippability; rescanning every
    # remaining vertex on each pick made the clip order quadratic
    evaluations, cut_tests = [], []
    real_clippable, real_is_cut = tiling._clippable, tiling._is_cut
    monkeypatch.setattr(tiling, "_clippable", lambda ends, remaining:
                        evaluations.append(1) or real_clippable(ends, remaining))
    monkeypatch.setattr(tiling, "_is_cut", lambda ends, remaining, v:
                        cut_tests.append(v) or real_is_cut(ends, remaining, v))
    cp = miura(20, 20)
    order = clip_order(cp)
    n_vertices, n_creases = len(order), len(cp.creases)
    assert (n_vertices, n_creases) == (361, 760)
    assert len(evaluations) <= n_vertices + 2 * n_creases
    assert len(cut_tests) <= 2 * n_vertices


def test_tile_copies_match_direct_construction():
    # tile builds one single-vertex graph per distinct angle tuple and binds
    # a copy of it to each vertex; each copy must equal the direct
    # construction at that vertex, bound alike
    for cp in (crane(), triangle_twist(3), snake(3, 3), miura(3, 4)):
        first = {}
        for v in cp.interior_vertex_ids():
            cone = cone_at(cp, v)
            base_cone = first.setdefault(cone.angles, cone)
            names = dict(zip(base_cone.crease_ids, cone.crease_ids))
            copy = tiling._bound(single_vertex_saw(base_cone), cp, v, names)
            own = {c: c for c in cone.crease_ids}
            assert copy == tiling._bound(single_vertex_saw(cone), cp, v, own)


def test_tile_rejects_unsupported_vertex():
    # single all-equal degree-6 vertex: open problem, no SAW graph
    cp = star_pattern((60,) * 6)
    with pytest.raises(UnsupportedVertex):
        tile(cp)


@pytest.mark.parametrize("angles", [
    (80, 100, 90, 90),              # fails the Kawasaki test
    (30, 30, 30, 30, 120, 120),     # a run of four equal angles
    (60, 60, 60, 60, 60, 60),       # an all-equal terminal of degree 6
])
def test_tile_refusal_names_vertex_and_reason(angles):
    cp = star_pattern(angles)
    with pytest.raises(UnsupportedVertex) as exc:
        tile(cp)
    assert exc.value.vertex == "v0"
    with pytest.raises(_REFUSALS) as refusal:
        single_vertex_saw(cone_at(cp, "v0"))
    assert exc.value.reason == str(refusal.value)


def test_tile_random_masks_match_oracle(rng):
    for m, n in [(2, 4), (4, 2), (3, 4), (2, 5)]:
        mask = tuple(rng.random() < 0.5 for _ in range(n - 1))
        cp = modified_miura(m, n, mask)
        assert count_colorings(tile(cp)) == count_locally_valid(cp)


def test_tile_after_waterbomb_split():
    # splitting perturbs coordinates and adds declared-angle vertices; the
    # transformed pattern must tile to the same count
    from flatfold import split_waterbomb
    cp = snake(3, 3)
    wb = next(v for v in cp.interior_vertex_ids() if len(cp.ccw_creases[v]) == 6)
    cp2 = split_waterbomb(cp, wb)
    n = count_locally_valid(cp)
    assert count_locally_valid(cp2) == n
    assert count_colorings(tile(cp2)) == n


def test_tiling_copies_no_graph(monkeypatch):
    # triangles, negations and prisms change the graphs tile owns in place;
    # when each copied its input, tiling the crane copied 714 SAW vertices
    # in 19 prisms, 19 in triangles and 20 in negations
    copies = []
    real_copy = SawGraph.copy
    monkeypatch.setattr(SawGraph, "copy",
                        lambda g: copies.append(len(g.vertices)) or real_copy(g))
    prisms = []
    real_prism = tiling.insert_prism
    monkeypatch.setattr(tiling, "insert_prism",
                        lambda g, e1, e2: prisms.append(e1) or real_prism(g, e1, e2))
    g = tile(crane())
    assert len(g.vertices) == 92 and len(prisms) == 19
    assert copies == []


def test_miura_10x10_tiling_scales_linearly(monkeypatch):
    cone_calls = []
    real_cone_at = tiling.cone_at
    monkeypatch.setattr(tiling, "cone_at",
                        lambda cp, v: cone_calls.append(v) or real_cone_at(cp, v))
    copied = [0]
    real_copy = SawGraph.copy

    def counting_copy(g):
        copied[0] += len(g.vertices)
        return real_copy(g)

    monkeypatch.setattr(SawGraph, "copy", counting_copy)
    # each merge locates its two band windows once (262 _window calls here
    # when the zip searched them again), and reads crossing edges only of
    # the incoming single-vertex graph, not of the merged one (178 edges)
    windows = []
    real_window = tiling._window
    monkeypatch.setattr(tiling, "_window", lambda walk, edges, creases, crossing:
                        windows.append(creases) or real_window(walk, edges, creases, crossing))
    crossing_reads = []
    real_crossing = SawGraph.crossing_edges
    monkeypatch.setattr(SawGraph, "crossing_edges",
                        lambda g: crossing_reads.append(len(g.edges)) or real_crossing(g))
    cp = miura(10, 10)
    g = tile(cp)
    assert sorted(cone_calls) == cp.interior_vertex_ids()
    # copying the whole graph once per merge copied 5,499 SAW vertices here
    assert copied[0] < 2 * len(g.vertices)
    assert len(windows) <= 2 * len(cp.vertices)
    assert crossing_reads and max(crossing_reads) <= 20


class _CountingWalk(list):
    """A boundary walk that counts the steps read from it one at a time,
    by index or by iteration; a slice copies in bulk and counts nothing."""

    def __init__(self, steps, reads):
        super().__init__(steps)
        self.reads = reads

    def __getitem__(self, i):
        if not isinstance(i, slice):
            self.reads[0] += 1
        return super().__getitem__(i)

    def __iter__(self):
        for step in super().__iter__():
            self.reads[0] += 1
            yield step


def test_merges_read_band_steps_not_the_whole_walk(monkeypatch):
    # _window starts at the band's first crossing edge (list.index finds
    # its step) and reads only the window's steps; _zip slices both walks
    # around the windows. Scanning the walk from step 0 for every window,
    # or rebuilding the walk one step at a time, reads merges x walk
    # length steps: tens of thousands here, against a band of 684
    window_reads, zip_reads, band, walk_steps = [0], [0], [0], [0]
    real_window, real_zip = tiling._window, tiling._zip

    def counted_window(walk, edges, creases, crossing):
        return real_window(_CountingWalk(walk, window_reads), edges, creases, crossing)

    def counted_zip(g, g_span, u, u_span, block):
        band[0] += len(block)
        walk_steps[0] += len(g.walk)
        g.walk, u.walk = _CountingWalk(g.walk, zip_reads), _CountingWalk(u.walk, zip_reads)
        real_zip(g, g_span, u, u_span, block)
        g.walk = g.walk[:]

    monkeypatch.setattr(tiling, "_window", counted_window)
    monkeypatch.setattr(tiling, "_zip", counted_zip)
    g = tile(miura(20, 20))
    assert (len(g.vertices), band[0]) == (400, 684)
    assert walk_steps[0] > 20 * band[0]
    assert window_reads[0] <= 4 * band[0]
    assert zip_reads[0] <= 6 * band[0]


def test_tile_and_oracle_build_each_cone_once(monkeypatch):
    from flatfold import oracle
    seen = []
    for mod in (tiling, oracle):
        real = mod.cone_at
        monkeypatch.setattr(mod, "cone_at", lambda cp, v, real=real:
                            seen.append((v, real(cp, v))) or seen[-1][1])
    cp = miura(6, 6)
    tile(cp)
    count_locally_valid(cp, limit=len(cp.creases))
    # both callers ask for every vertex's cone, and get one object per vertex
    assert len(seen) == 2 * len(cp.vertices)
    objects = {v: {id(c) for w, c in seen if w == v} for v in cp.vertices}
    assert all(len(ids) == 1 for ids in objects.values())


def test_miura_10x10_one_crimp_trace_per_vertex(monkeypatch):
    calls = []
    real = saw.crimp_trace
    monkeypatch.setattr(saw, "crimp_trace", lambda cone: calls.append(cone) or real(cone))
    cp = miura(10, 10)
    tile(cp)
    # one single-vertex construction per distinct angle tuple, not per vertex
    angles = {cone_at(cp, v).angles for v in cp.interior_vertex_ids()}
    assert len(cp.interior_vertex_ids()) == 81
    assert len(calls) == len(angles) == 4


def test_select_root_deterministic():
    g1 = tile(miura(2, 3))
    g2 = tile(miura(2, 3))
    assert select_root(g1) == select_root(g2) == g1.root


def test_tile_chords_sharing_boundary_points():
    # snake(1, n) has no interior vertex; its zig-zag chords meet in pairs at
    # boundary points, which the boundary walk must cross in angular order
    for n in (2, 3, 4, 5):
        cp = snake(1, n)
        assert count_colorings(tile(cp)) == count_locally_valid(cp) == 2 ** (n - 1)


def x_and_chords(xs, chords, width):
    """X's at (cx, 1), each with creases to (cx +- 1, 0) and (cx +- 1, 2),
    and vertical chords at the given x, in the region [0, width] x [0, 2]."""
    vertices, creases, points = {}, {}, {}
    for cx in xs:
        vertices[f"v{cx}"] = (cx, 1)
        for x, y in ((cx + 1, 0), (cx + 1, 2), (cx - 1, 2), (cx - 1, 0)):
            points[f"b{x}_{y}"] = (x, y)
            creases[f"v{cx}_{x}_{y}"] = (f"v{cx}", f"b{x}_{y}")
    for x in chords:
        points[f"b{x}_0"], points[f"b{x}_2"] = (x, 0), (x, 2)
        creases[f"chord{x}"] = (f"b{x}_0", f"b{x}_2")
    return build_crease_pattern(vertices, creases, [(0, 0), (width, 0), (width, 2), (0, 2)],
                                boundary_points=points)


@pytest.mark.parametrize("xs, chords, width, count, splices", [
    ((1,), (3,), 4, 16, 1),
    ((1, 5), (), 6, 64, 1),
    ((1, 5), (3,), 6, 128, 2),
])
def test_disjoint_merges_onto_a_walk(monkeypatch, xs, chords, width, count, splices):
    # X's that share no crease with the graph so far merge through a face;
    # every family merges that way only onto the base graph's empty walk
    onto_walk = []
    real = tiling._splice_disjoint
    monkeypatch.setattr(tiling, "_splice_disjoint",
                        lambda g, *args: onto_walk.append(bool(g.walk)) or real(g, *args))
    cp = x_and_chords(xs, chords, width)
    g = tile(cp)
    assert sum(onto_walk) == splices
    assert count_colorings(g) == count_locally_valid(cp) == count
    assert verify_bijection(cp, g).ok


def strip_of_units(units, names):
    """Units left to right in a strip of height 4, a gap of 1 between them,
    each unit's creases ending on the top and bottom edges: "x" is one X
    vertex, "c" a chain of two vertices joined by a diagonal crease, "d" a
    diamond of four vertices (left, top, right, bottom) joined in a cycle,
    each with two creases to the strip's edges. Neighbouring units share a
    face but no crease; names name the vertices in order of appearance."""
    vertices, creases, points = {}, {}, {}
    name = iter(names)
    x0 = 0

    def crease(v, p):
        points[f"p{p[0]}_{p[1]}"] = p
        creases[f"k{len(creases)}"] = (v, f"p{p[0]}_{p[1]}")

    for unit in units:
        if unit == "x":
            v = next(name)
            vertices[v] = (x0 + 2, 2)
            for p in ((x0, 0), (x0 + 4, 0), (x0 + 4, 4), (x0, 4)):
                crease(v, p)
            x0 += 5
        elif unit == "d":
            ring = [next(name) for _ in range(4)]
            for v, p in zip(ring, ((x0 + 2, 2), (x0 + 3, 3), (x0 + 4, 2), (x0 + 3, 1))):
                vertices[v] = p
            for v, w in zip(ring, ring[1:] + ring[:1]):
                creases[f"k{len(creases)}"] = (v, w)
            for v, ends in zip(ring, (((x0, 4), (x0, 0)), ((x0 + 2, 4), (x0 + 4, 4)),
                                      ((x0 + 6, 4), (x0 + 6, 0)), ((x0 + 2, 0), (x0 + 4, 0)))):
                for p in ends:
                    crease(v, p)
            x0 += 7
        else:
            a, b = next(name), next(name)
            vertices[a], vertices[b] = (x0 + 3, 1), (x0 + 4, 2)
            creases[f"k{len(creases)}"] = (a, b)
            for p in ((x0 + 2, 0), (x0 + 4, 0), (x0, 4)):
                crease(a, p)
            for p in ((x0 + 2, 4), (x0 + 6, 4), (x0 + 6, 0)):
                crease(b, p)
            x0 += 7
    return build_crease_pattern(vertices, creases, [(0, 0), (x0 - 1, 0), (x0 - 1, 4), (0, 4)],
                                boundary_points=points)


def _components(cp):
    comp = {}
    for s in sorted(cp.ccw_creases):
        stack = [s]
        while stack:
            x = stack.pop()
            if x in cp.ccw_creases and x not in comp:
                comp[x] = s
                stack += [cp.crease_other_end(c, x) for c in cp.ccw_creases[x]]
    return comp


@pytest.mark.parametrize("units, names", [
    ("cx", "cab"), ("cc", "acbd"), ("xcx", "adbc"), ("cxc", "abdce"),
])
def test_interleaved_components_merge_whole(monkeypatch, units, names):
    # the reversed clip order interleaves two components, so a component
    # would be spliced onto a walk whose region spans creases of a vertex
    # not yet merged; tile merges each component whole instead, and so
    # never reads a side off a vertex a splice has relabelled. The pattern
    # is read from its file, as build-saw reads it.
    cp, _, _ = load_text(emit(strip_of_units(units, names)))
    comp = _components(cp)
    rebuilt = [comp[v] for v in reversed(clip_order(cp))]
    assert any(a != b and a in rebuilt[i + 1:] for i, (a, b) in
               enumerate(zip(rebuilt, rebuilt[1:])))
    merged = []
    real = tiling._merge_vertex
    monkeypatch.setattr(tiling, "_merge_vertex",
                        lambda g, cp, v, *args: merged.append(comp[v]) or real(g, cp, v, *args))
    g = tile(cp)
    assert merged == sorted(merged, key=merged.index)
    assert count_colorings(g) == count_locally_valid(cp)
    assert verify_bijection(cp, g).ok


@pytest.mark.parametrize("units, names, count", [
    ("d", "abcd", 256), ("dd", "abcdefgh", 65536), ("dx", "abcde", 2048),
])
def test_diamond_strips_tile(units, names, count):
    cp = strip_of_units(units, names)
    assert count_colorings(tile(cp)) == count_locally_valid(cp, limit=10 ** 6) == count


# on these namings a later band of a component runs across the point where
# that component's first vertex would be spliced into the merged walk, so
# _window would not find it; tile builds the component in a graph of its own
# and splices it in whole
@pytest.mark.parametrize("units, names, count", [
    ("dx", "mjfio", 2048), ("dc", "jifagp", 8192), ("cd", "pgkcdn", 8192),
    ("xdx", "hjicfo", 16384),
])
def test_diamond_strips_whose_window_a_splice_splits(units, names, count):
    cp = strip_of_units(units, names)
    n = count_locally_valid(cp, limit=10 ** 6)
    assert n == count
    assert count_colorings(tile(cp)) == n


@settings(max_examples=100, deadline=None)
@given(st.text("xcd", min_size=1, max_size=4), st.permutations("abcdefghijklmnop"))
def test_random_strips_tile_count_verify_and_round_trip(units, names):
    # the vertex names decide the clip order, and so where each component's
    # bands and splices fall on the merged walk
    cp = strip_of_units(units, names)
    g = tile(cp)
    n = count_colorings(g)
    assert n == count_locally_valid(cp, limit=10 ** 6)
    if n <= 20_000:
        assert verify_bijection(cp, g).ok
    assert load_text(emit(cp, saw=g))[2] == g


def test_broken_walk_raises_typed_error():
    g = SawGraph()
    a, b, c = g.add_vertex(), g.add_vertex(), g.add_vertex()
    g.add_edge(a, b, directed=True, crease="c0")
    e1 = g.add_edge(b, c, directed=True, crease="c1")
    g.walk = [(a, e1)]
    with pytest.raises(FlatfoldError) as exc:
        g.check_walk()
    assert isinstance(exc.value, TilingError)
    assert not isinstance(exc.value, AssertionError)
    assert exc.value.crease == "c1" and "crease c1" in str(exc.value)

    g.walk = []
    g.add_edge(a, c, directed=True, crease="c0")
    with pytest.raises(TilingError) as exc:
        g.validate()
    assert exc.value.crease == "c0"


def test_merge_fault_names_the_vertex(monkeypatch):
    real = tiling._window
    monkeypatch.setattr(tiling, "_window", lambda walk, edges, creases, crossing:
                        real(walk, edges, ["zz"], crossing))
    with pytest.raises(TilingError) as exc:
        tile(miura(3, 3))
    assert exc.value.vertex in miura(3, 3).interior_vertex_ids()
    assert exc.value.crease == ("zz",)
    assert f"vertex {exc.value.vertex}" in str(exc.value)


@pytest.mark.parametrize("side", ["g", "u"])
def test_zip_checks_the_seams_it_writes(monkeypatch, side):
    # a zip checks only the incoming graph's arc and the two seams where it
    # meets the merged walk; with tile's whole-walk validate switched off,
    # a bad seam step must still raise
    real_zip = tiling._zip

    def bad_seam(g, g_span, u, u_span, block):
        # the step just before a band window becomes a seam after the zip;
        # send it back along the edge the walk came in by, so that only the
        # seam step itself breaks
        h, span = (g, g_span) if side == "g" else (u, u_span)
        i = (span[0] - 1) % len(h.walk)
        h.walk[i] = (h.walk[i][0], h.walk[i - 1][1])
        return real_zip(g, g_span, u, u_span, block)

    monkeypatch.setattr(tiling, "_zip", bad_seam)
    monkeypatch.setattr(SawGraph, "validate", lambda g: None)
    with pytest.raises(TilingError, match="does not reach"):
        tile(miura(3, 3))


# sha256 of emit(cp, saw=tile(cp)). Any change to a tiled SAW graph (vertex
# and edge ids, faces, orientations, the boundary walk) changes its file, so
# a refactor of the tiling that is meant to keep the graphs fails here if it
# does not
GOLDEN_SAW_SHA256 = {
    "crane": "23e983f0cc21187170b7fc3c2334456252daa8e90b2d42ee262c484b9add44a8",
    "twist-1": "04ae74bd127bd901ceb33281647f35d51645f005df19f2ab932de487f3a1b565",
    "twist-2": "a70d91990b4303a98e0e84fa7cbef6662c8524a9997882a276e57b17d692e652",
    "twist-3": "47c70e511f683ca9056e13d112299d1c1d825446f99f7a3d5a3c2168c407791f",
    "miura-3": "623052c1d3835cfe98492830981f284f1bf396942241d889175f7251d9c6d52e",
    "snake-3": "ccd8d5dcb27e45ad0f81af60b1335ee67c73ff9e085d1b21f065816962371b4e",
    "modified-miura-3-seed1": "642fa31aa92bbbf523a97f4f20e5ad2ec61b4232fad397ba7f9a08fcf9d91fba",
    "modified-miura-3-seed10": "cc7f04c71b818490a74aa5a3a0ac06b0e0d31d401b1726d189cabfc723b9c8d3",
    "miura-5": "96a4a3c7db7add6f6c2d48af34c3f492d7fd29b15ab964c8267cbf5388386160",
    "snake-5": "f6ffa450ecca80b3c033e123c95a0d71746d04d97333b44faf2e536688d7215e",
    "modified-miura-5-seed1": "e1239a77779bbeb8b6c44cde491840e29c319b5b65b04654d0e07e629f80123d",
    "modified-miura-5-seed10": "f3efc54f8bc5d718eff58b7e6968b156514f0180ee0af163a5860b5c7a467cac",
    "miura-8": "72fb23ca9ce8cac8f498f54374933db678aeed96b08b18e054c7efabd78c4dc2",
    "snake-8": "39c99e99a435e8411f61016a8cfe6d7ee9065530b8bba279ba04b9aacfa565d8",
    "modified-miura-8-seed1": "09887a27c913aa66aed0367eb8075bda9dcf3af2245ecde91f5caef2243d1f0d",
    "modified-miura-8-seed10": "48d6592aecd97a8b7a312eb564798210237a99523b63787ede242548dcbbd734",
    "miura-1x4": "0736cd65b5bf1052333ee5a24fcf787df4bb70396920978830c54ff8ad824160",
    "modified-miura-2x6-mask10110": "4f2b860bcc0d3872c208b43422fed3a07ffebc566229820dcfad4b704dba857d",
    "snake-6x2": "a315ef7bc1a3db2a139ba602e7655fa7f78634d47ab59245408343f20f4127db",
    # the ingest benchmark deck's sizes, 6x6 up to its largest, 10x10
    "miura-6": "1dea6cb08dbd10d4e1743e9ce5bf77426b3150767c22b57bb2a18a3dd4ffbc9d",
    "snake-6": "05ec4c13ac6482df6e50009d5d339d5d746172d565bc51c80b245f3a94fac944",
    "miura-10": "80427e458813f42b5971eeda86a916e87a4ecbae99590510d96819b8a5d51464",
    "snake-10": "978d5ef61b1ceb5654fee3234100ab4aaec80ab479872d5f91b350d9083600f4",
    "modified-miura-10-seed1": "eea135d2794466ac28279c37c8db1e16332c56bfc94b6bb6c6c6ef934de00bff",
}


def _golden_pattern(name):
    """crane, twist-k, {miura,snake}-n (n x n) or -mxn, modified-miura-n-seedS
    (n x n) or modified-miura-mxn-maskB (B: one 0/1 digit per zig-zag)."""
    if name == "crane":
        return crane()
    family, m, n, tag, arg = re.fullmatch(
        r"([a-z-]+?)-(\d+)(?:x(\d+))?(?:-(seed|mask)(\d+))?", name).groups()
    m, n = int(m), int(n or m)
    if family == "twist":
        return triangle_twist(m)
    if tag == "seed":
        return small_pattern("modified-miura", m, n, int(arg))
    if tag == "mask":
        return modified_miura(m, n, [bit == "1" for bit in arg])
    return {"miura": miura, "snake": snake}[family](m, n)


@pytest.mark.parametrize("name", sorted(GOLDEN_SAW_SHA256))
def test_saw_files_match_golden_hashes(name):
    cp = _golden_pattern(name)
    text = emit(cp, saw=tile(cp))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SAW_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SAW_SHA256))
def test_face_regions_match_the_union_find(name):
    # the regions the base graph and each disjoint splice read, one search
    # per region, against a union-find, on seeded sets of kept creases from
    # none to all
    cp = _golden_pattern(name)
    rng = random.Random(name)
    for p in (0, 0.1, 0.5, 0.9, 1):
        kept = {c for c in sorted(cp.creases) if rng.random() < p}
        assert tiling._face_regions(cp, kept) == reference_face_regions(cp, kept), (p, kept)


@pytest.mark.parametrize("name", sorted(GOLDEN_SAW_SHA256))
def test_tiled_saw_file_reads_back_equal(name):
    # a SawGraph holds exactly the fields of a file's saw block
    g = tile(_golden_pattern(name))
    assert saw_from_dict(saw_to_dict(g)) == g


@pytest.mark.parametrize("kind", sorted(saw._DEG4_CONES))
def test_single_vertex_saw_file_reads_back_equal(kind):
    # variant 0 is single_vertex_saw on the catalog cone; its sector-pair
    # faces are written as lists and read back as tuples
    g = saw.deg4_saw(kind)
    assert saw_from_dict(saw_to_dict(g)) == g


def _split_waterbombs():
    for cp in (snake(3, 3), snake(2, 4), crane()):
        for v in cp.interior_vertex_ids():
            if len(cp.ccw_creases[v]) == 6:
                yield split_waterbomb(cp, v)


def _on_crease_faces(cp, g, e):
    return {g.vertices[e.u].face, g.vertices[e.v].face} == set(cp.crease_sides[e.crease])


def test_crossing_edges_join_their_crease_faces(monkeypatch):
    # tiling reads the side of its crease a crossing edge leaves from off
    # its tail's face, in _merge_vertex's orientation pass and in _zip's
    # check, both on the band edges _zip is given; so at every zip each
    # band edge of both graphs must join its crease's two faces
    zipped = []
    real = tiling._zip

    def checked_zip(g, g_span, u, u_span, block):
        for graph, span in ((g, g_span), (u, u_span)):
            for i in span:
                e = graph.edges[graph.walk[i][1]]
                assert _on_crease_faces(cp, graph, e), e.crease
                zipped.append(e.crease)
        return real(g, g_span, u, u_span, block)

    monkeypatch.setattr(tiling, "_zip", checked_zip)
    # one component each and no chords: each crossing edge of the tiled
    # graph joins its crease's faces too. Chords are left out: the base
    # graph names each chord region's vertex by the region's least face
    # id, and a disjoint splice renames that vertex with the incoming
    # vertex's face, so on x_and_chords((1,), (3,), 4) chord3's edge joins
    # f0 and f4 while chord3 separates f3 and f4. Strips of several
    # components are left out: a disjoint splice onto a walk whose region
    # spans creases not yet merged renames a vertex of a complete
    # component. Tiling never reads either side.
    whole = [crane()] + [triangle_twist(k) for k in (1, 2, 3)]
    whole += [f(m, n) for f in (miura, snake) for m in range(1, 7) for n in range(1, 7)]
    whole += [small_pattern("modified-miura", m, n, 1)
              for m in range(1, 7) for n in range(1, 7)]
    whole += [x_and_chords(*case) for case in
              (((1,), (3,), 4), ((1, 5), (), 6), ((1, 5), (3,), 6))]
    whole += list(_split_waterbombs())
    checked = 0
    for cp in whole:
        g = tile(cp)
        for e in g.edges.values():
            if e.directed and set(cp.creases[e.crease]) & set(cp.vertices):
                assert _on_crease_faces(cp, g, e), e.crease
                checked += 1
    assert checked > 1000
    for units in ("cx", "cc", "xcx"):
        for names in itertools.permutations("abcd"[:len(units) + units.count("c")]):
            cp = strip_of_units(units, names)
            tile(cp)
    assert len(zipped) > 1500
