import random
from collections import deque
from functools import partial
from itertools import islice, product
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatfold import coloring
from flatfold.saw import SawGraph
from flatfold.search import checked, depth_first, frontier_count, reach
from flatfold.tiling import tile

from .helpers import (
    oracle_plan,
    reference_depth_first,
    rotate_counted,
    sigma,
    small_pattern,
    swap_counted,
)


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


def pair_plan(draw) -> list:
    """The plan of the pair count of ``coloring._certificates``, built as
    it builds it, for a random connected graph on 2-6 vertices (a random
    tree plus random edges) over a random order that starts at its root,
    with random edges keeping the offset of the two colorings equal: each
    vertex takes the pair values ``coloring._pair_values`` leaves it, the
    root only 0."""
    n = draw(st.integers(2, 6))
    g = SawGraph()
    for _ in range(n):
        g.add_vertex()
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                           .filter(lambda e: e[0] != e[1]), max_size=n))
    for u, v in edges:
        g.add_edge(u, v)
    g.root = draw(st.integers(0, n - 1))
    order = [g.root] + draw(st.permutations(sorted(set(range(n)) - {g.root})))
    pos = {v: i for i, v in enumerate(order)}
    equal = {tuple(sorted((pos[u], pos[v]))) for u, v in draw(st.lists(st.sampled_from(edges)))}
    return [(nbrs, partial(coloring._pair_values,
                           [j for j, k in enumerate(nbrs) if (k, i) in equal], 0 if i else 0x7FE))
            for i, (nbrs, _) in enumerate(coloring._plan(g, order))]


@st.composite
def plans(draw):
    """A search plan and the bits a slot needs for its values: the
    coloring plan of a tiled seeded pattern over a random vertex order, of
    K4 (no coloring) or of no vertex, or the crease plan of a seeded
    pattern over a random crease order, each in 2 bits; or a 4-bit
    ``pair_plan``."""
    kind = draw(st.sampled_from(["coloring", "k4", "empty", "creases", "pairs"]))
    if kind == "pairs":
        return pair_plan(draw), 4
    if kind == "k4":
        g = k4()
        return coloring._plan(g, draw(st.permutations(sorted(g.vertices)))), 2
    if kind == "empty":
        return [], 2
    cp = small_pattern(draw(st.sampled_from(["modified-miura", "snake", "twists"])),
                       draw(st.integers(2, 3)), draw(st.integers(2, 3)),
                       draw(st.integers(0, 10 ** 6)))
    if kind == "coloring":
        g = tile(cp)
        return coloring._plan(g, draw(st.permutations(sorted(g.vertices)))), 2
    return oracle_plan(cp, draw(st.permutations(sorted(cp.creases)))), 2


@settings(max_examples=60, deadline=None)
@given(plans())
def test_depth_first_matches_reference(drawn):
    # the same assignments in the same order, none too many or too few
    plan, _ = drawn
    assert list(depth_first(plan)) == list(reference_depth_first(plan))


def test_depth_first_on_one_position():
    # the last position is also the first: its values, then nothing
    assert list(depth_first([([], lambda vals: (0, 2))])) == [(0,), (2,)]
    assert list(depth_first([([], lambda vals: ())])) == []


@settings(max_examples=30, deadline=None)
@given(plans())
def test_frontier_count_matches_depth_first(drawn):
    # slots of the bits drawn hold the plan's values, and four-bit slots
    # count them alike
    plan, bits = drawn
    n = len(list(depth_first(plan)))
    assert frontier_count(plan, bits) == frontier_count(plan, bits=4) == n


def _values_mod(weights: list[int], p: int, vals: tuple[int, ...]) -> list[int]:
    """The values v in 0..8 whose weighted sum with ``vals`` is 0 mod p."""
    return [v for v in range(9) if sum(map(mul, weights, vals + (v,))) % p == 0]


def random_plan(seed: int) -> list:
    """A seeded plan of up to 6 positions, each reading up to 3 earlier
    ones and taking values in 0..8 by a seeded rule of ``_values_mod``."""
    rng = random.Random(seed)
    plan = []
    for i in range(rng.randint(1, 6)):
        reads = sorted(rng.sample(range(i), rng.randint(0, min(i, 3))))
        weights = [rng.randint(1, 6) for _ in range(len(reads) + 1)]
        plan.append((reads, partial(_values_mod, weights, rng.randint(2, 4))))
    return plan


@pytest.mark.parametrize("seed", range(40))
def test_frontier_count_in_wider_slots(seed):
    # values up to 8 need four-bit slots
    plan = random_plan(seed)
    assert frontier_count(plan, bits=4) == len(list(depth_first(plan)))


@pytest.mark.parametrize("values", [(0, 4), (-1,), (16,)])
def test_frontier_count_refuses_a_value_past_its_slot(values):
    # a value that does not fit its slot would spill into the next one
    plan = [([], lambda vals: (0, 1)), ([0], lambda vals: values)]
    bits = 4 if 16 in values else 2
    with pytest.raises(ValueError, match=f"^position 1 allows a value outside {bits} bits$"):
        frontier_count(plan, bits=bits)


def _orbit_values(salt: tuple[int, int], vals: tuple[int, ...]) -> list[int]:
    """The 4-bit values y, each two 2-bit fields, for which a salted hash
    of the sigma-orbit of ``vals + (y,)`` (its larger member) is 0 mod 3:
    sigma-equivariant by construction, since sigma of the tuple for y is
    the tuple of ``sigma(vals)`` for sigma(y)."""
    out = []
    for y in range(16):
        key = vals + (y,)
        if hash(salt + max(key, tuple([sigma(v, 4) for v in key]))) % 3 == 0:
            out.append(y)
    return out


@st.composite
def equivariant_plans(draw):
    """A plan of up to 6 positions, each reading up to 3 earlier ones and
    taking 4-bit values by its own salted ``_orbit_values`` rule."""
    salt = draw(st.integers(0, 10 ** 6))
    plan = []
    for i in range(draw(st.integers(1, 6))):
        reads = sorted(draw(st.sets(st.integers(0, i - 1), max_size=3))) if i else []
        plan.append((reads, partial(_orbit_values, (salt, i))))
    return plan


@settings(max_examples=60, deadline=None)
@given(equivariant_plans())
def test_swap_counts_four_bit_slots_as_the_plain_dp(plan):
    # sigma swaps 1 and 2 in both 2-bit fields of every value
    assert swap_counted(plan, bits=4) == frontier_count(plan, bits=4)


@st.composite
def rotatable_plans(draw):
    """A 3-coloring plan that starts at its root: of a random graph on up
    to 12 vertices in one to three components, each a random tree plus
    random edges, placed one after another, each in a random order; or of
    a tiled seeded pattern, over the greedy min-frontier order or a random
    order after the root. Each vertex reads its earlier neighbours and
    takes a color none of them has; position 0 takes 0, or in a random
    graph's plan possibly any color."""
    if draw(st.booleans()):
        g = tile(small_pattern(draw(st.sampled_from(["modified-miura", "snake", "twists"])),
                               draw(st.integers(2, 3)), draw(st.integers(2, 3)),
                               draw(st.integers(0, 10 ** 6))))
        rest = sorted(g.vertices.keys() - {g.root})
        order = coloring._min_frontier_order(g) if draw(st.booleans()) else \
            [g.root] + draw(st.permutations(rest))
        return coloring._plan(g, order)
    adj: dict[int, set[int]] = {}
    order = []
    for size in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        vs = list(range(len(adj), len(adj) + size))
        adj.update((v, set()) for v in vs)
        edges = [(vs[draw(st.integers(0, j - 1))], vs[j]) for j in range(1, size)]
        edges += draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)), max_size=size))
        for u, v in edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        order += draw(st.permutations(vs))
    pos = {v: i for i, v in enumerate(order)}
    first = draw(st.sampled_from([coloring._root_colors, coloring._free_colors]))
    return [(sorted(pos[w] for w in adj[v] if pos[w] < i), coloring._free_colors if i else first)
            for i, v in enumerate(order)]


@settings(max_examples=80, deadline=None)
@given(rotatable_plans())
def test_rotate_counts_as_the_plain_dp(plan):
    # every position after the first commutes with rho; the pin moves when
    # its slot is freed, and is set again once a later component's first
    # vertex is live after the frontier has emptied between components
    n = frontier_count(plan)
    assert rotate_counted(plan) == frontier_count(plan, rotate=True) == n


def test_rotate_pins_each_component_again():
    # two triangles: 2 colorings of the root's, 6 of the other, whose
    # first vertex is pinned at 0 once the frontier has emptied, so its
    # second vertex is asked of one tuple, not of one per color
    asked = []

    def colors(vals):
        asked.append(vals)
        return coloring._free_colors(vals)

    tri = [([], coloring._root_colors), ([0], colors), ([0, 1], colors)]
    plan = tri + [([k + 3 for k in reads], colors) for reads, _ in tri]
    assert frontier_count(plan) == 12
    assert [vals for vals in asked if len(vals) == 1] == [(0,), (0,), (1,), (2,)]
    asked.clear()
    assert frontier_count(plan, swap=True, rotate=True) == 12
    assert asked == [(0,), (0, 2), (), (0,), (0, 2)]


@pytest.mark.parametrize("values", [(3,), (0, 3), (-1,), (4,)])
def test_rotate_refuses_a_value_past_2(values):
    # rho turns only the colors 0..2, so a 3 that fits its slot is refused
    plan = [([], lambda vals: (0, 1)), ([0], lambda vals: values)]
    with pytest.raises(ValueError, match="^position 1 allows a value outside "
                                         "2 bits with a low field of 0..2$"):
        frontier_count(plan, swap=True, rotate=True)


def test_rotate_refuses_a_low_field_of_3_in_wider_slots():
    # rho turns a 4-bit value's low 2-bit field and keeps the rest, so a
    # low field of 3 is refused as in 2-bit slots, and a value past the
    # slot too; the values whose low field is 0..2 count
    for values in [(3,), (4, 7), (0, 11), (15,), (-1,), (16,)]:
        plan = [([], lambda vals: (0, 1)), ([0], lambda vals, values=values: values)]
        with pytest.raises(ValueError, match="^position 1 allows a value outside "
                                             "4 bits with a low field of 0..2$"):
            frontier_count(plan, bits=4, swap=True, rotate=True)
    plan = [([], lambda vals: (0, 1)), ([0], lambda vals: (4, 5, 6, 12, 13, 14))]
    assert frontier_count(plan, bits=4, swap=True, rotate=True) == 12


def _sum_mod(p: int, r: int, vals: tuple[int, ...], places: list[int]) -> bool:
    """A test of ``search.checked``: the values at ``places`` sum to r mod p."""
    return sum(vals[k] for k in places) % p == r


def _orbit_sum_mod(p: int, r: int, vals: tuple[int, ...], places: list[int]) -> bool:
    """``_sum_mod`` over each 4-bit value's larger sigma-image: a test that
    sigma, acting on every value, keeps."""
    return sum(max(vals[k], sigma(vals[k], 4)) for k in places) % p == r


@st.composite
def random_checks(draw, n: int, test) -> list:
    """Up to four checks on a plan of ``n`` positions: each a random place
    list, which may repeat a place, and ``test`` of a random p and r."""
    checks = []
    for _ in range(draw(st.integers(0, 4)) if n else 0):
        places = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
        p = draw(st.integers(2, 3))
        checks.append((places, partial(test, p, draw(st.integers(0, p - 1)))))
    return checks


def _filtered(plan, checks) -> list:
    """The assignments of ``plan`` that pass every check, in order."""
    return [a for a in depth_first(plan) if all(test(a, places) for places, test in checks)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checked_filters_the_plan_by_every_check(data):
    # the checked plan lists the plan's assignments that pass every check,
    # in the same order, and the frontier DP counts them
    plan, bits = data.draw(plans())
    checks = data.draw(random_checks(len(plan), _sum_mod))
    want = _filtered(plan, checks)
    assert list(depth_first(checked(plan, checks))) == want
    assert frontier_count(checked(plan, checks), bits) == len(want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_checked_keeps_an_equivariant_plan_equivariant(data):
    # checks that sigma keeps leave the plan countable under the swap
    plan = data.draw(equivariant_plans())
    checks = data.draw(random_checks(len(plan), _orbit_sum_mod))
    assert swap_counted(checked(plan, checks), bits=4) == len(_filtered(plan, checks))


@pytest.mark.parametrize("places", [[0], [0, 0], [1, 1, 3], [3, 1, 2, 1], [2, 3, 3]])
@pytest.mark.parametrize("seed", range(10))
def test_checked_on_the_first_position_and_repeated_places(seed, places):
    # a check on position 0 alone attaches there and reads nothing; a check
    # that repeats a place, or a place the position already reads, reads it
    # once and passes the test each copy
    plan = random_plan(seed)
    plan += [([0], partial(_values_mod, [1, 2], 3)) for _ in range(4 - len(plan))]
    checks = [(places, partial(_sum_mod, 3, 1)), ([1, 0], partial(_sum_mod, 2, 0))]
    got = checked(plan, checks)
    assert all(i not in reads and reads == sorted(set(reads)) for i, (reads, _) in enumerate(got))
    want = _filtered(plan, checks)
    assert list(depth_first(got)) == want
    assert frontier_count(got, bits=4) == len(want)


def _weighted(plan) -> int:
    """The count of a plan of values 0..2 by brute force: every tuple of
    values, each weighted by the product over positions of how many times
    ``allowed`` lists its value."""
    total = 0
    for vals in product(range(3), repeat=len(plan)):
        weight = 1
        for i, (reads, allowed) in enumerate(plan):
            weight *= list(allowed(tuple(vals[k] for k in reads))).count(vals[i])
        total += weight
    return total


def _repeated(times: dict[str, int], vals: tuple[int, ...]) -> list[int]:
    """Each color c, in increasing order, listed ``times["new"]`` times when
    no value of ``vals`` is c, ``times["first"]`` times when only
    ``vals[0]`` is, and not at all otherwise: a rule that sees only which
    read values are equal, so every color permutation keeps it."""
    out = []
    for c in range(3):
        if c not in vals:
            out += [c] * times["new"]
        elif c == vals[0] and c not in vals[1:]:
            out += [c] * times["first"]
    return out


def test_frontier_count_takes_a_repeated_value_as_often():
    # a path of colorings that repeats values, at positions read later
    # (1, 2) and at one read by none (3): the plain DP, the swap and the
    # swap with the pin count each repeat, and the equivariance checks
    # compare the repeats as multisets
    plan = [([], lambda vals: (0,)),
            ([0], partial(_repeated, {"new": 2, "first": 0})),
            ([0, 1], partial(_repeated, {"new": 3, "first": 1})),
            ([1, 2], partial(_repeated, {"new": 2, "first": 5}))]
    want = _weighted(plan)
    # two colors twice at 1, then the new color three times or 0 once at
    # 2, then at 3 the new color twice or position 1's five times
    assert want == 2 * 2 * (3 + 1) * (2 + 5)
    assert frontier_count(plan) == frontier_count(plan, bits=4) == want
    assert swap_counted(plan) == rotate_counted(plan) == want


def test_repeats_that_break_sigma_are_caught():
    # position 1 lists 0 once after a 2 and three times after a 1: the
    # same set, so only a multiset comparison sees that sigma is broken,
    # and the swap, asking only after the 2, undercounts
    plan = [([], lambda vals: (1, 2)),
            ([0], lambda vals: (0,) * (3 if vals == (1,) else 1))]
    assert frontier_count(plan) == _weighted(plan) == 4
    assert frontier_count(plan, swap=True) == 2
    assert set(plan[1][1]((1,))) == set(plan[1][1]((2,)))
    with pytest.raises(AssertionError):
        swap_counted(plan)


@st.composite
def digraphs(draw) -> tuple[int, dict[int, list[int]], int]:
    """A random directed graph on 1-12 nodes as neighbour lists, with
    loops and repeated arcs, a start node and a number of nodes to take."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    nbrs: dict[int, list[int]] = {v: [] for v in range(n)}
    for a, b in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        nbrs[a].append(b)
    return draw(node), nbrs, draw(st.integers(1, n))


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_reach_yields_each_reachable_node_once_in_bfs_order(drawn):
    start, nbrs, take = drawn
    # what start reaches, as the least set closed under nbrs
    reached = {start}
    while (grown := reached.union(*(nbrs[v] for v in reached))) != reached:
        reached = grown
    # a plain breadth-first search's discovery order
    order, queue = [start], deque([start])
    while queue:
        for w in nbrs[queue.popleft()]:
            if w not in order:
                order.append(w)
                queue.append(w)
    asked = []
    found = list(reach(start, lambda v: asked.append(v) or nbrs[v]))
    assert found == order and set(found) == reached
    assert asked == found       # each node's neighbours asked once, in order
    # a consumer that stops early has asked only of the nodes it was given
    asked.clear()
    taken = list(islice(reach(start, lambda v: asked.append(v) or nbrs[v]), take))
    assert taken == order[:take]
    assert asked == taken[:len(asked)]
