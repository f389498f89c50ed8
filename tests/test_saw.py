import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatfold import (
    baby_gadget,
    coloring_to_mv,
    count_colorings,
    count_single_vertex_mv,
    deg4_saw,
    enumerate_colorings,
    enumerate_single_vertex_mv,
    insert_prism,
    insert_triangle,
    mv_to_coloring,
    single_vertex_saw,
    split_waterbomb,
)
from flatfold.cp import ConeVertex
from flatfold.errors import (
    AllEqualHighDegree,
    EdgesNotAdjacent,
    NotBoundaryEdge,
    NotThreeNice,
    NotWaterbomb,
    TilingError,
    UnknownVariant,
    UnsupportedJ,
)
from flatfold.generators import crane, miura, snake, triangle_twist
from flatfold.oracle import count_locally_valid
from flatfold.patternio import saw_to_dict
from flatfold.saw import _REFUSALS, SawGraph, negate_orientations
from flatfold.tiling import tile

from .conftest import cone, random_kawasaki_cone
from .helpers import star_pattern


def assert_cone_bijection(c):
    """Count equality plus round-trip identity against the enumeration."""
    g = single_vertex_saw(c)
    assert count_colorings(g) == count_single_vertex_mv(c)
    valid = {tuple(sorted(m.items())) for m in enumerate_single_vertex_mv(c)}
    seen = set()
    for s in enumerate_colorings(g):
        mv = coloring_to_mv(g, s)
        key = tuple(sorted(mv.items()))
        assert key in valid
        assert key not in seen
        seen.add(key)
        assert mv_to_coloring(g, mv) == s
    assert seen == valid
    return g


def test_baby_gadget_counts():
    assert count_colorings(baby_gadget(1).graph) == 2
    assert count_colorings(baby_gadget(2).graph) == 6
    assert count_colorings(baby_gadget(3).graph) == 6


def test_baby_gadget_forced_terminals():
    for j in (1, 3):
        frag = baby_gadget(j)
        for s in enumerate_colorings(frag.graph):
            assert s[frag.first] == s[frag.last]
    frag = baby_gadget(2)
    for s in enumerate_colorings(frag.graph):
        assert s[frag.first] != s[frag.last]


def test_baby_gadget_mv_constraints():
    frag = baby_gadget(1)
    for s in enumerate_colorings(frag.graph):
        mv = coloring_to_mv(frag.graph, s)
        assert mv["c1"] != mv["c2"]
    frag = baby_gadget(2)
    sums = {sum(coloring_to_mv(frag.graph, s).values())
            for s in enumerate_colorings(frag.graph)}
    assert sums == {1, -1}
    frag = baby_gadget(3)
    for s in enumerate_colorings(frag.graph):
        assert sum(coloring_to_mv(frag.graph, s).values()) == 0


def test_baby_gadget_unsupported():
    with pytest.raises(UnsupportedJ):
        baby_gadget(4)


def test_baby_gadget_needs_one_crease_id_per_crossing():
    with pytest.raises(ValueError, match="^need j\\+1 crease ids$"):
        baby_gadget(2, ("a",))


def test_validate_refuses_a_disconnected_graph_and_an_uncreased_crossing():
    g = SawGraph()
    a, b = g.add_vertex(), g.add_vertex()
    with pytest.raises(TilingError, match="^SAW graph is not connected$"):
        g.validate()
    g.add_edge(a, b, directed=True)
    with pytest.raises(TilingError, match="^directed edge 0 has no crease$"):
        g.validate()


def test_deg4_catalog_counts():
    assert count_colorings(deg4_saw("BirdsFoot")) == 6
    assert count_colorings(deg4_saw("BLB")) == 4
    assert count_colorings(deg4_saw("AllEqual")) == 8


def test_deg4_structure():
    assert len(deg4_saw("BirdsFoot").vertices) == 4   # the 4-cycle
    assert len(deg4_saw("BLB").vertices) == 5         # two triangles + one
    assert len(deg4_saw("AllEqual").vertices) == 6


def test_deg4_variants_keep_the_bijection():
    cones = {"BirdsFoot": cone(60, 60, 120, 120),
             "BLB": cone(45, 30, 75, 90),
             "AllEqual": cone(90, 90, 90, 90)}
    nvars = {"BirdsFoot": 2, "BLB": 3, "AllEqual": 3}
    for kind, c in cones.items():
        valid = {tuple(sorted(m.items())) for m in enumerate_single_vertex_mv(c)}
        for variant in range(nvars[kind]):
            g = deg4_saw(kind, variant)
            got = {tuple(sorted(coloring_to_mv(g, s).items()))
                   for s in enumerate_colorings(g)}
            assert got == valid, (kind, variant)


def test_blb_graph_forced_equal_terminals():
    # the two triangles force the split host's copies to share a color
    c = cone(45, 30, 75, 90)
    g = single_vertex_saw(c)
    apex = next(v for v in g.vertices
                if v not in {x for x, _ in g.walk})
    linked = sorted(e.other(apex) for e in g.edges.values() if apex in e.ends())
    # the apex joins the gadget path w0, w1, w2; w0 and w2 always agree
    for mv in enumerate_single_vertex_mv(c):
        s = mv_to_coloring(g, mv)
        assert s[linked[0]] == s[linked[2]]


def test_deg4_unknown_variant():
    with pytest.raises(UnknownVariant):
        deg4_saw("BirdsFoot", 2)
    with pytest.raises(UnknownVariant):
        deg4_saw("Nope")


def test_single_vertex_saw_examples():
    g = assert_cone_bijection(cone(180, 180))
    assert len(g.vertices) == 2
    assert count_colorings(g) == 2
    g = assert_cone_bijection(cone(45, 30, 75, 90))
    assert count_colorings(g) == 4
    # degree-6 with one j=3 splice
    g = assert_cone_bijection(cone(30, 30, 30, 90, 120, 60))
    assert count_colorings(g) == 12


def test_single_vertex_saw_waterbomb():
    assert_cone_bijection(cone(45, 45, 90, 45, 45, 90))


def test_single_vertex_saw_unsupported():
    with pytest.raises(AllEqualHighDegree):
        single_vertex_saw(cone(*([60] * 6)))
    with pytest.raises(NotThreeNice):
        single_vertex_saw(cone(30, 30, 30, 30, 90, 90))
    # 3-nice by run lengths, but the recursion bottoms out at an all-equal
    # cone of degree 6: no base graph exists
    c = cone(60, 30, 60, 90, 90, 90, 90, 90)
    with pytest.raises(AllEqualHighDegree, match="terminal"):
        single_vertex_saw(c)


def test_crossing_edges_on_boundary_walk():
    for angles in [(180, 180), (60, 60, 120, 120), (45, 30, 75, 90),
                   (90, 90, 90, 90), (45, 45, 90, 45, 45, 90)]:
        g = single_vertex_saw(cone(*angles))
        walk_edges = {e for _, e in g.walk}
        for e in g.edges.values():
            if e.directed:
                assert e.id in walk_edges


def test_random_supported_cones_biject(rng):
    checked = 0
    while checked < 60:
        c = random_kawasaki_cone(rng, max_half_degree=4)
        try:
            single_vertex_saw(c)
        except _REFUSALS:
            continue
        assert_cone_bijection(c)
        checked += 1


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_single_vertex_saw_commutes_with_renaming(seed, data):
    # tile builds one graph per distinct angle tuple and renames it per
    # vertex; that is sound only if the construction reads crease names as
    # labels and nothing else
    c = random_kawasaki_cone(random.Random(seed), max_half_degree=5)
    try:
        g = single_vertex_saw(c)
    except _REFUSALS:
        assume(False)
    names = data.draw(st.lists(st.text("cx01", min_size=1, max_size=3),
                               min_size=c.degree, max_size=c.degree, unique=True))
    rename = dict(zip(c.crease_ids, names))
    for sv in g.vertices.values():
        sv.face = tuple(rename[x] for x in sv.face)
    for e in g.edges.values():
        if e.crease is not None:
            e.crease = rename[e.crease]
    assert single_vertex_saw(ConeVertex(c.angles, tuple(names))) == g


def test_insert_triangle_preserves_count_and_translation():
    c = cone(60, 60, 120, 120)
    g = single_vertex_saw(c)
    base = count_colorings(g)
    valid = {tuple(sorted(m.items())) for m in enumerate_single_vertex_mv(c)}
    e = next(e.id for e in g.edges.values() if e.directed)
    g2 = g.copy()
    insert_triangle(g2, e)
    assert count_colorings(g2) == base
    got = {tuple(sorted(coloring_to_mv(g2, s).items()))
           for s in enumerate_colorings(g2)}
    assert got == valid


def test_insert_triangle_flips_presented_orientation():
    g = single_vertex_saw(cone(60, 60, 120, 120))
    e = next(e for e in g.edges.values() if e.directed)
    crease = e.crease
    g2 = g.copy()
    insert_triangle(g2, e.id)
    old = e
    new = g2.crossing_edges()[crease]
    assert new.id != old.id
    # the new crossing edge and the demoted one share the old head
    assert g2.edges[old.id].directed is False


def test_insert_triangle_needs_boundary_edge():
    g = single_vertex_saw(cone(45, 30, 75, 90))  # has interior triangle edges
    before = g.copy()
    und = next(e.id for e in g.edges.values() if not e.directed)
    with pytest.raises(NotBoundaryEdge):
        insert_triangle(g, und)
    assert g == before  # a refused surgery changes nothing


def _twist_refusals():
    # tile(triangle_twist(1)): a walk of crossing edges and one undirected
    # edge, and crossing edges inside the graph
    g = tile(triangle_twist(1))
    walk = [e for _, e in g.walk]
    crossing = [e for e in walk if g.edges[e].directed]
    und = next(e for e in walk if not g.edges[e].directed)
    inner = next(e.id for e in g.edges.values() if e.directed and e.id not in walk)
    i = walk.index(und)
    far = next(e for e in crossing if e not in (walk[i - 1], walk[(i + 1) % len(walk)]))
    return [(g, insert_triangle, (inner,), NotBoundaryEdge, "not on the boundary walk"),
            (g, insert_prism, tuple(crossing[:2]), EdgesNotAdjacent, "one undirected"),
            (g, insert_prism, (inner, und), NotBoundaryEdge, "must be on the boundary"),
            (g, insert_prism, (far, und), EdgesNotAdjacent, "not adjacent")]


def _two_vertex_refusals():
    # a crossing edge the walk runs along both ways, and a crossing edge
    # beside an undirected edge with the same two ends
    g = SawGraph()
    u, v = g.add_vertex(), g.add_vertex()
    e = g.add_edge(u, v, directed=True, crease="c0")
    g.walk = [(u, e), (v, e)]
    h = SawGraph()
    u, v = h.add_vertex(), h.add_vertex()
    e1 = h.add_edge(u, v, directed=True, crease="c0")
    e2 = h.add_edge(u, v)
    h.walk = [(u, e1), (v, e2)]
    return [(g, insert_triangle, (e,), NotBoundaryEdge, "outer face twice"),
            (h, insert_prism, (e1, e2), EdgesNotAdjacent, "exactly one endpoint")]


def test_refused_surgeries_leave_the_graph_unchanged():
    # each refusal raises before it writes anything, as the saw module
    # docstring promises
    refusals = _twist_refusals() + _two_vertex_refusals()
    for g, surgery, args, error, reason in refusals:
        g.check_walk()
        before = saw_to_dict(g)
        with pytest.raises(error, match=reason):
            surgery(g, *args)
        assert saw_to_dict(g) == before


def test_insert_prism_both_chiralities():
    # triangle insertion leaves [crossing, undirected] adjacent on the walk;
    # prisms must then swap them from either side
    c = cone(90, 90, 90, 90)
    g = single_vertex_saw(c)
    base = count_colorings(g)
    walk = g.walk
    und_steps = [i for i, (_, e) in enumerate(walk) if not g.edges[e].directed]
    assert und_steps
    i = und_steps[0]
    before = walk[i - 1][1]
    after = walk[(i + 1) % len(walk)][1]
    for partner in (before, after):
        g2 = g.copy()
        insert_prism(g2, partner, walk[i][1])
        assert count_colorings(g2) == base


def test_insert_prism_forced_colors():
    # the all-equal graph's closing edge hangs off the head of the last
    # crossing edge: the head-side attachment chirality
    g = single_vertex_saw(cone(90, 90, 90, 90))
    walk = g.walk
    i = next(i for i, (_, e) in enumerate(walk) if not g.edges[e].directed)
    e1 = g.edges[walk[i - 1][1]]
    e2 = g.edges[walk[i][1]]
    assert e1.v in e2.ends()
    u, v = e1.u, e1.v
    w = e2.other(v)
    g2 = g.copy()
    insert_prism(g2, e1.id, e2.id)
    x, y, z = sorted(set(g2.vertices) - set(g.vertices))
    for s in enumerate_colorings(g2):
        assert s[x] % 3 == (-s[v] - s[w]) % 3
        assert s[z] % 3 == (s[w] + s[u] - s[v]) % 3
        assert s[y] % 3 == (s[x] + s[u] - s[v]) % 3


def test_surgery_changes_its_argument():
    # each surgery works in place and returns None; a copy keeps the original
    c = cone(90, 90, 90, 90)
    g = single_vertex_saw(c)
    base = count_colorings(g)
    crossing = next(e for _, e in g.walk if g.edges[e].directed)
    i = next(i for i, (_, e) in enumerate(g.walk) if not g.edges[e].directed)
    partner = g.walk[i - 1][1]
    surgeries = [(negate_orientations, ()), (insert_triangle, (crossing,)),
                 (insert_prism, (partner, g.walk[i][1]))]
    for surgery, args in surgeries:
        h = g.copy()
        assert surgery(h, *args) is None
        assert h != g
        assert count_colorings(h) == base
    assert g == single_vertex_saw(c)


def _reversed_walk(g):
    """g's closed walk run backwards, from the end of its last step."""
    return [(g.edges[e].other(v), e) for v, e in reversed(g.walk)]


# the all-equal graph's walk is e0..e3 then the closing edge 4, which hangs
# off e3's head and e0's tail
@pytest.mark.parametrize("surgery, args", [
    (insert_triangle, (0,)), (insert_triangle, (3,)),
    (insert_prism, (3, 4)), (insert_prism, (0, 4)),
])
@pytest.mark.parametrize("turn", range(5))
def test_surgery_on_a_walk_and_on_it_run_backwards(surgery, args, turn):
    # a surgery lays its new steps the way the walk runs: on the same closed
    # walk run backwards it builds the same graph and lays the same steps
    # backwards. Turning the walk puts each prism's window across the walk's
    # end once, where its two steps are written in place
    g = single_vertex_saw(cone(90, 90, 90, 90))
    assert [e for _, e in g.walk] == [0, 1, 2, 3, 4]
    assert g.edges[3].v in g.edges[4].ends() and g.edges[0].u in g.edges[4].ends()
    g.walk = g.walk[turn:] + g.walk[:turn]
    twin = g.copy()
    twin.walk = _reversed_walk(g)
    twin.check_walk()
    for h in (g, twin):
        surgery(h, *args)
    assert len(g.walk) == (6 if surgery is insert_triangle else 5)
    assert twin.vertices == g.vertices and twin.edges == g.edges
    assert twin.walk == _reversed_walk(g)


def test_random_surgery_preserves_counts(rng):
    done = 0
    while done < 25:
        c = random_kawasaki_cone(rng, max_half_degree=3)
        try:
            g = single_vertex_saw(c)
        except _REFUSALS:
            continue
        base = count_colorings(g)
        directed = [e.id for e in g.edges.values()
                    if e.directed and any(eid == e.id for _, eid in g.walk)]
        g2 = g.copy()
        insert_triangle(g2, rng.choice(directed))
        assert count_colorings(g2) == base
        # prism the junk edge it introduced
        walk = g2.walk
        i = next(i for i, (_, e) in enumerate(walk) if not g2.edges[e].directed)
        j = (i - 1) if g2.edges[walk[i - 1][1]].directed else (i + 1) % len(walk)
        g3 = g2.copy()
        insert_prism(g3, walk[j][1], walk[i][1])
        assert count_colorings(g3) == base
        done += 1


def test_split_waterbomb_counts_match():
    cp = snake(2, 4)
    wbs = [v for v in cp.interior_vertex_ids()
           if len(cp.ccw_creases[v]) == 6]
    assert wbs
    before = count_locally_valid(cp)
    cp2 = split_waterbomb(cp, wbs[0])
    assert count_locally_valid(cp2) == before
    assert len(cp2.creases) == len(cp.creases) + 1


def test_split_waterbomb_crane_center():
    cp = crane()
    center = next(v for v in cp.interior_vertex_ids()
                  if len(cp.ccw_creases[v]) == 6)
    cp2 = split_waterbomb(cp, center)
    from flatfold.cp import cone_at
    for nid in (f"{center}a", f"{center}b"):
        assert count_single_vertex_mv(cone_at(cp2, nid)) == 6


def test_split_waterbomb_rejects_others():
    cp = miura(3, 3)
    v = cp.interior_vertex_ids()[0]
    with pytest.raises(NotWaterbomb):
        split_waterbomb(cp, v)


def test_split_waterbomb_refuses_an_all_equal_degree_6_vertex():
    # degree 6, but no two sector angles differ
    with pytest.raises(NotWaterbomb,
                       match=re.escape("vertex v0 is not an (a,a,b,a,a,b) waterbomb")):
        split_waterbomb(star_pattern((60,) * 6), "v0")
