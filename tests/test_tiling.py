import pytest

from flatfold import count_colorings, count_locally_valid, tile
from flatfold import tiling
from flatfold.errors import FlatfoldError, TilingError, UnsupportedVertex
from flatfold.saw import SawGraph
from flatfold.generators import crane, miura, snake, triangle_twist
from flatfold.tiling import clip_order, select_root

from .helpers import grid_saw


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
    assert any(len(cp.creases_at(v)) == 6 for v in cp.interior_vertex_ids())
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


def test_tile_rejects_unsupported_vertex():
    from flatfold import build_crease_pattern
    # single all-equal degree-6 vertex: open problem, no SAW graph
    cp = build_crease_pattern(
        vertices={"v0": (0, 0)},
        creases={f"c{i}": ("v0", f"b{i}") for i in range(6)},
        region=[(-4, -4), (4, -4), (4, 4), (-4, 4)],
        boundary_points={"b0": (4, 0), "b1": (2, 4), "b2": (-2, 4),
                         "b3": (-4, 0), "b4": (-2, -4), "b5": (2, -4)},
        declared_angles={"v0": (60,) * 6},
    )
    with pytest.raises(UnsupportedVertex):
        tile(cp)


def test_tile_random_masks_match_oracle(rng):
    from flatfold.generators import modified_miura
    for m, n in [(2, 4), (4, 2), (3, 4), (2, 5)]:
        mask = tuple(rng.random() < 0.5 for _ in range(n - 1))
        cp = modified_miura(m, n, mask)
        assert count_colorings(tile(cp)) == count_locally_valid(cp)


def test_tile_after_waterbomb_split():
    # splitting perturbs coordinates and adds declared-angle vertices; the
    # transformed pattern must tile to the same count
    from flatfold import split_waterbomb
    cp = snake(3, 3)
    wb = next(v for v in cp.interior_vertex_ids() if len(cp.creases_at(v)) == 6)
    cp2 = split_waterbomb(cp, wb)
    n = count_locally_valid(cp)
    assert count_locally_valid(cp2) == n
    assert count_colorings(tile(cp2)) == n


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
