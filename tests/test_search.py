from hypothesis import given, settings
from hypothesis import strategies as st

from flatfold import coloring
from flatfold.saw import SawGraph
from flatfold.search import depth_first
from flatfold.tiling import tile

from .helpers import oracle_plan, reference_depth_first, small_pattern


def k4() -> SawGraph:
    """The complete graph on four vertices: no proper 3-coloring."""
    g = SawGraph()
    for _ in range(4):
        g.add_vertex()
    for u in range(4):
        for v in range(u + 1, 4):
            g.add_edge(u, v)
    g.root = 0
    return g


@st.composite
def plans(draw):
    """A search plan: the coloring plan of a tiled seeded pattern over a
    random vertex order, of K4 (no coloring) or of no vertex; or the crease
    plan of a seeded pattern over a random crease order."""
    kind = draw(st.sampled_from(["coloring", "k4", "empty", "creases"]))
    if kind == "k4":
        g = k4()
        return coloring._plan(g, draw(st.permutations(sorted(g.vertices))))
    if kind == "empty":
        return []
    cp = small_pattern(draw(st.sampled_from(["modified-miura", "snake", "twists"])),
                       draw(st.integers(2, 3)), draw(st.integers(2, 3)),
                       draw(st.integers(0, 10 ** 6)))
    if kind == "coloring":
        g = tile(cp)
        return coloring._plan(g, draw(st.permutations(sorted(g.vertices))))
    return oracle_plan(cp, draw(st.permutations(sorted(cp.creases))))


@settings(max_examples=60, deadline=None)
@given(plans())
def test_depth_first_matches_reference(plan):
    # the same assignments in the same order, none too many or too few
    assert list(depth_first(plan)) == list(reference_depth_first(plan))


def test_depth_first_on_one_position():
    # the last position is also the first: its values, then nothing
    assert list(depth_first([([], lambda vals: (0, 2))])) == [(0,), (2,)]
    assert list(depth_first([([], lambda vals: ())])) == []
