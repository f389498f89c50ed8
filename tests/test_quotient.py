"""The frontier DP's quotients: by sigma, the exchange of the values 1 and
2 (for colorings the swap of colors 1 and 2, for creases the
mountain-valley flip), and for colorings by rho, the rotation of the
colors, too. Every plan the library counts with ``swap`` must be
sigma-equivariant on every tuple the plain DP asks, each it counts with
``rotate`` also rho-equivariant after its first position, and each must
count as the plain DP does."""

import random

import pytest
from hypothesis import given, settings

from flatfold import coloring, oracle
from flatfold.coloring import count_colorings, verify_bijection
from flatfold.generators import crane, miura, snake, triangle_twist
from flatfold.oracle import count_locally_valid, enumerate_locally_valid
from flatfold.saw import SawGraph
from flatfold.search import depth_first, frontier_count
from flatfold.tiling import tile

from .helpers import rotate_counted, sigma_checked, small_pattern, swap_counted
from .test_oracle import _count_checks
from .test_search import plans


@pytest.fixture
def rotated():
    """Whether each plan the library counts with ``swap`` is also counted
    with ``rotate``, in call order (filled by ``swapped``)."""
    return []


@pytest.fixture
def swapped(monkeypatch, rotated):
    """The slot widths of the plans the library counts with ``swap``, in
    call order; each plan is counted by ``swap_counted``, which checks it,
    field by field, against the plain DP, or with ``rotate`` by
    ``rotate_counted``, which checks rho too."""
    seen = []

    def spy(plan, bits=2, swap=False, rotate=False):
        if not swap:
            return frontier_count(plan, bits, rotate=rotate)
        seen.append(bits)
        rotated.append(rotate)
        return rotate_counted(plan, bits) if rotate else swap_counted(plan, bits)

    for module in (coloring, oracle):
        monkeypatch.setattr(module, "frontier_count", spy)
    return seen


def _looped(at_root: bool) -> SawGraph:
    """Miura 3x3's graph with a loop at the root or at its last vertex."""
    g = tile(miura(3, 3))
    v = g.root if at_root else max(g.vertices)
    g.add_edge(v, v)
    return g


def _mutant(how: str):
    """Miura 4x4 and its graph with the first crossing edge reversed, made
    undirected (its crease uncrossed), copied reversed and listed first, or
    copied across a crease the pattern lacks."""
    cp = miura(4, 4)
    g = tile(cp)
    e = next(e for e in g.edges.values() if e.directed)
    if how == "reversed":
        e.u, e.v = e.v, e.u
    elif how == "uncrossed":
        e.directed, e.crease = False, None
    elif how == "copied":
        eid = g.add_edge(e.v, e.u, directed=True, crease=e.crease)
        g.edges = {eid: g.edges.pop(eid), **g.edges}
    else:
        g.add_edge(e.u, e.v, directed=True, crease="elsewhere")
    return cp, g


PATTERNS = {
    "crane": (crane, 93_312),
    "twists-1": (lambda: triangle_twist(1), 26),
    "twists-2": (lambda: triangle_twist(2), 170),
    "twists-3": (lambda: triangle_twist(3), 1_112),
    "miura-4x4": (lambda: miura(4, 4), 2_604),
    "snake-4x4": (lambda: snake(4, 4), 2_604),
}


@pytest.mark.parametrize("name", [*PATTERNS, "looped-root", "looped-other"])
def test_count_colorings_swaps_an_equivariant_plan(swapped, rotated, name):
    if name.startswith("looped"):
        g, count = _looped(name == "looped-root"), 0
    else:
        make, count = PATTERNS[name]
        g = tile(make())
    assert count_colorings(g) == count
    assert swapped == [2] and rotated == [True]


@pytest.mark.parametrize("name", [*PATTERNS, "reversed", "uncrossed", "copied", "foreign"])
def test_into_m_swaps_an_equivariant_plan(swapped, rotated, name):
    # the round-trip certificate's plan checks steps and crimp schedules,
    # both symmetric under the flip and kept by rotating the colors; an
    # uncrossed crease leaves it uncounted. Each mutant's pairs are counted
    # too, in 4-bit slots, swapped and rotated alike
    if name in PATTERNS:
        cp = PATTERNS[name][0]()
        g = tile(cp)
    else:
        cp, g = _mutant(name)
    order = coloring._min_frontier_order(g)
    plan = coloring._plan(g, order)
    n_col = frontier_count(plan)
    into_m, _ = coloring._certificates(cp, g, order, plan, n_col, spans=True)
    if name in PATTERNS or name == "foreign":
        assert into_m == n_col
    else:
        assert into_m < n_col
    assert swapped == [2] * (name != "uncrossed") + [4] * (name not in PATTERNS)
    assert rotated == [True] * len(swapped)


@pytest.mark.parametrize("name", [*PATTERNS, "masked-0", "masked-1", "masked-2"])
def test_count_locally_valid_swaps_an_equivariant_plan(swapped, rotated, name):
    if name in PATTERNS:
        make, count = PATTERNS[name]
        cp = make()
    else:
        cp, count = small_pattern("modified-miura", 4, 5, int(name[-1])), 18_150
    assert count_locally_valid(cp, limit=len(cp.creases)) == count
    assert enumerate_locally_valid(cp, cap=3).count == count
    assert len(swapped) == 2 and not any(rotated)


def test_verify_bijection_counts_three_plans_with_the_swap(swapped, rotated):
    # |M| past the oracle's cap, |S| and the round-trip certificate, the
    # last two rotated too; the pair count is skipped, since Miura 4x4's
    # crossing edges span it
    report = verify_bijection(miura(4, 4), tile(miura(4, 4)))
    assert report.ok and report.count_colorings == 2_604
    assert swapped == [2, 2, 2] and rotated == [False, True, True]


@pytest.mark.parametrize("name", ["crane", "twists-1", "twists-2", "twists-3"])
def test_verify_bijection_counts_the_pairs_with_the_swap(swapped, rotated, name):
    # crossing edges that do not span the graph: |M|, |S|, the round-trip
    # certificate and the pair count in 4-bit slots, each field swapped;
    # rho turns a pair's first color and keeps its offset, so the pairs
    # are rotated too
    make, count = PATTERNS[name]
    report = verify_bijection(make(), tile(make()))
    assert report.ok and report.count_colorings == count
    assert swapped == [2, 2, 2, 4] and rotated == [False, True, True, True]


def _pair_colors(vals: tuple[int, ...]) -> list[int]:
    """The values 4 a + b, a and b colors in 0..2, whose a and b differ
    from those of every value of ``vals``."""
    return [y for y in range(11) if y & 3 < 3
            and all(y >> 2 != x >> 2 and y & 3 != x & 3 for x in vals)]


def test_swap_counts_four_bit_slots():
    # sigma swaps 1 and 2 in both 2-bit fields of a 4-bit value: pairs of
    # 3-colorings of a 4-cycle whose root takes the pair (0, 0) count the
    # same with and without the swap, 6 ** 2 of them
    plan = [([], lambda vals: (0,)), ([0], _pair_colors), ([1], _pair_colors),
            ([0, 2], _pair_colors)]
    assert swap_counted(plan, bits=4) == frontier_count(plan, bits=4) == 36


def test_swap_asks_fewer_checks_on_the_crane(monkeypatch):
    # one read tuple per pair of flipped frontiers: the crane's crease
    # count asks fewer cone tests than the plain DP on the same plan
    calls = _count_checks(monkeypatch)
    plan = oracle._plan(crane(), True)[1]
    assert frontier_count(plan, swap=True) == 93_312
    asked, calls[0] = calls[0], 0
    assert frontier_count(plan) == 93_312
    assert asked == 160 and calls[0] == 224


def test_rotate_asks_fewer_tuples_on_the_crane():
    # one read tuple per class of frontiers: the crane's root leaves the
    # frontier at position 2, and from there the pin keeps one of each
    # three rotations, so the coloring count asks fewer tuples than under
    # the swap alone, itself fewer than the plain DP
    g = tile(crane())
    asked = []
    plan = [(reads, lambda vals, allowed=allowed: asked.append(vals) or allowed(vals))
            for reads, allowed in coloring._plan(g, coloring._min_frontier_order(g))]
    tuples = []
    for kw in ({}, {"swap": True}, {"swap": True, "rotate": True}):
        asked.clear()
        assert frontier_count(plan, **kw) == 93_312
        tuples.append(len(asked))
    assert tuples == [846, 645, 494]


def test_rotate_asks_fewer_tuples_of_the_crane_pairs(monkeypatch):
    # the pair count of the crane's verify, whose crossing edges do not
    # span it: one read tuple per class of pair frontiers, the pin keeping
    # one of each three rotations of the first color
    pair_plans = []

    def spy(plan, bits=2, swap=False, rotate=False):
        if bits == 4:
            pair_plans.append(plan)
        return frontier_count(plan, bits, swap, rotate)

    monkeypatch.setattr(coloring, "frontier_count", spy)
    assert verify_bijection(crane(), tile(crane())).ok
    asked = []
    plan = [(reads, lambda vals, allowed=allowed: asked.append(vals) or allowed(vals))
            for reads, allowed in pair_plans[0]]
    tuples = []
    for kw in ({}, {"swap": True}, {"swap": True, "rotate": True}):
        asked.clear()
        assert frontier_count(plan, bits=4, **kw) == 93_312
        tuples.append(len(asked))
    assert tuples == [1_260, 901, 692]


@settings(max_examples=40, deadline=None)
@given(plans())
def test_swap_counts_as_the_plain_dp(drawn):
    # seeded coloring plans over random vertex orders, K4, no position,
    # crease plans over random crease orders, and pair plans of random
    # graphs, which start at their root and so are counted rotated too
    plan, bits = drawn
    n = len(list(depth_first(plan)))
    assert swap_counted(plan, bits) == n
    if bits == 4:
        assert rotate_counted(plan, bits) == n


def random_connected_graph(seed: int) -> tuple[SawGraph, list[int]]:
    """A seeded connected graph on 2-9 vertices (a random tree plus up to
    as many random edges again) with a random root, and a vertex order
    that does not start at the root."""
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    g = SawGraph()
    for _ in range(n):
        g.add_vertex()
    for v in range(1, n):
        g.add_edge(rng.randrange(v), v)
    for _ in range(rng.randint(0, n)):
        g.add_edge(*rng.sample(range(n), 2))
    g.root = rng.randrange(n)
    order = list(range(n))
    rng.shuffle(order)
    if order[0] == g.root:
        order[0], order[1] = order[1], order[0]
    return g, order


@pytest.mark.parametrize("seed", range(60))
def test_swap_counts_a_plan_that_colors_the_root_late(seed):
    # vertices before the root take any color; sigma keeps the root's 0
    g, order = random_connected_graph(seed)
    plan = coloring._plan(g, order)
    count = len(list(depth_first(plan)))
    assert frontier_count(plan, swap=True) == frontier_count(sigma_checked(plan)) == count
