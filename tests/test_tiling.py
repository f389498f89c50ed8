import hashlib
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
from flatfold.generators import crane, miura, modified_miura, snake, triangle_twist
from flatfold.patternio import emit
from flatfold.tiling import clip_order, select_root

from .helpers import (grid_saw, random_crease_graph, reference_clip_order, small_pattern,
                      star_pattern)


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
    # tile builds one single-vertex graph per distinct angle tuple and
    # renames it per vertex; each copy must equal the direct construction
    for cp in (crane(), triangle_twist(3), snake(3, 3), miura(3, 4)):
        first = {}
        for v in cp.interior_vertex_ids():
            cone = cone_at(cp, v)
            base_cone = first.setdefault(cone.angles, cone)
            names = dict(zip(base_cone.crease_ids, cone.crease_ids))
            copy = tiling._renamed(single_vertex_saw(base_cone), names)
            assert copy == single_vertex_saw(cone)


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
    monkeypatch.setattr(tiling, "_window", lambda walk, edges, creases:
                        windows.append(creases) or real_window(walk, edges, creases))
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
    monkeypatch.setattr(tiling, "_window",
                        lambda walk, edges, creases: real(walk, edges, ["zz"]))
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
