import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice, product, starmap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatfold import (
    coloring_to_mv,
    count_colorings,
    enumerate_colorings,
    enumerate_locally_valid,
    mv_to_coloring,
    single_vertex_saw,
    verify_bijection,
)
from flatfold import coloring, oracle
from flatfold.coloring import BijectionReport
from flatfold.cp import MV_OF_STEP, STEP_OF_MV
from flatfold.errors import (
    AmbiguousCompletion,
    CapExceeded,
    DisconnectedSawGraph,
    ImproperColoring,
    NoCompletion,
    TilingError,
)
from flatfold.generators import crane, miura, snake, triangle_twist
from flatfold.saw import SawGraph
from flatfold.search import frontier_count
from flatfold.tiling import tile

from .conftest import cone
from .helpers import (
    first_coloring,
    grid_coloring_count,
    grid_saw,
    invalid_joined_twist_saw,
    reference_lift,
    reference_min_frontier_order,
    reference_verify_bijection,
    small_pattern,
    star_pattern,
)
from .test_oracle import _count_checks


def path_graph(n):
    g = SawGraph()
    for _ in range(n):
        g.add_vertex()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    g.root = 0
    return g


def cycle_graph(n):
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def triangle_graph():
    return cycle_graph(3)


def test_count_small_graphs():
    assert count_colorings(cycle_graph(4)) == 6
    assert count_colorings(path_graph(2)) == 2
    assert count_colorings(triangle_graph()) == 2


def test_count_3x3_grid_matches_exhaustive():
    # independent check: filter all 3^|V| assignments, sharing no search
    # plan with the counter
    for g, expected in [(grid_saw(3, 3), 82), (tile(miura(2, 3)), 18),
                        (tile(triangle_twist(1)), 26)]:
        ids = sorted(g.vertices)
        pos = {v: i for i, v in enumerate(ids)}
        adj = [(pos[e.u], pos[e.v]) for e in g.edges.values()]
        total = 0
        for colors in product(range(3), repeat=len(ids)):
            if colors[pos[g.root]] != 0:
                continue
            if all(colors[u] != colors[v] for u, v in adj):
                total += 1
        assert count_colorings(g) == total == expected


def test_count_root_position_irrelevant():
    g = grid_saw(2, 3)
    counts = set()
    for r in list(g.vertices):
        g.root = r
        counts.add(count_colorings(g))
    assert len(counts) == 1


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(2, 5), st.integers(2, 5), st.integers(0, 10 ** 6))
def test_count_is_root_independent(kind, m, n, seed):
    # recoloring by a permutation of the three colors moves any root's
    # color to 0, so every root gives the same count
    g = tile(small_pattern(kind, m, n, seed))
    counts = set()
    for r in sorted(g.vertices):
        g.root = r
        counts.add(count_colorings(g))
    assert len(counts) == 1


def test_count_miura_pins():
    assert count_colorings(tile(miura(6, 6))) == 33_865_632
    assert count_colorings(tile(miura(8, 8))) == grid_coloring_count(8, 8) == 13_574_876_544_396
    assert count_colorings(tile(miura(10, 10))) == 169_426_507_164_530_254_380


def _certificates(cp, g, spans: bool) -> tuple[int, int]:
    """``coloring._certificates`` over count_colorings' order and plan, as
    verify_bijection runs it; with ``spans`` false, the pair count always
    runs its DP."""
    order = coloring._min_frontier_order(g)
    plan = coloring._plan(g, order)
    return coloring._certificates(cp, g, order, plan, frontier_count(plan), spans)


@pytest.mark.parametrize("m", range(1, 7))
def test_count_and_certificates_match_a_transfer_matrix(m):
    # the Miura m x n SAW graph is the m x n grid: a row transfer matrix,
    # which shares no plan with count_colorings, gives its colorings, and
    # both certificate counts equal it on a passing graph, the pair count
    # by its DP too
    for n in range(1, 7):
        cp = miura(m, n)
        g = tile(cp)
        want = grid_coloring_count(m, n)
        assert count_colorings(g) == want, (m, n)
        assert _certificates(cp, g, spans=False) == (want, want), (m, n)


def test_min_frontier_order_matches_reference():
    # the counts kept up to date give the order that recounting each
    # candidate's growth gave, from the root and from other roots, with a
    # loop (a vertex that is its own neighbour) too
    graphs = [tile(cp) for cp in (crane(), miura(10, 10), snake(4, 4), snake(3, 6),
                                  triangle_twist(1), triangle_twist(2), triangle_twist(3))]
    graphs += [tile(small_pattern("modified-miura", m, n, seed))
               for m, n in [(2, 5), (4, 4), (6, 3), (8, 8)] for seed in range(3)]
    looped = tile(miura(3, 3))
    looped.add_edge(max(looped.vertices), max(looped.vertices))
    for g in graphs + [looped]:
        for root in [g.root] + sorted(g.vertices)[::7]:
            g.root = root
            assert coloring._min_frontier_order(g) == reference_min_frontier_order(g)


def test_count_long_path_is_iterative():
    # one vertex per recursion level would exceed the default recursion limit
    assert count_colorings(path_graph(1500)) == 2 ** 1499


def test_count_disconnected_raises():
    g = path_graph(4)
    g.add_vertex()
    with pytest.raises(ValueError):
        count_colorings(g)
    with pytest.raises(DisconnectedSawGraph, match="SAW graph is not connected"):
        enumerate_colorings(g)
    # a root that is not a vertex cannot be pre-colored
    g = path_graph(4)
    g.root = 7
    for f in (count_colorings, enumerate_colorings):
        with pytest.raises(TilingError, match="root 7 is not a vertex"):
            f(g)


def test_a_graph_with_no_vertices_refuses_its_root():
    # an empty graph may name any root, which no coloring can color 0
    g = SawGraph()
    g.root = 3
    for f in (count_colorings, enumerate_colorings):
        with pytest.raises(TilingError, match="^root 3 is not a vertex$"):
            f(g)


@pytest.mark.parametrize("looped", ["root", "other"])
def test_a_loop_leaves_no_coloring(looped):
    # a vertex joined to itself takes no color, so counting, enumerating
    # and checking agree: Miura 2x2's 6 colorings all break on the loop
    cp = miura(2, 2)
    g = tile(cp)
    assert count_colorings(g) == 6
    v = g.root if looped == "root" else max(g.vertices)
    g.add_edge(v, v)
    assert count_colorings(g) == 0 and enumerate_colorings(g) == []
    report = verify_bijection(cp, g)
    assert (report.count_mv, report.count_colorings) == (6, 0)
    assert not report.counts_match and not report.ok


def test_enumerate_matches_count_and_order():
    g = cycle_graph(4)
    out = enumerate_colorings(g)
    assert len(out) == count_colorings(g) == 6
    keys = [tuple(s[v] for v in sorted(g.vertices)) for s in out]
    assert keys == sorted(keys)
    assert all(s[g.root] == 0 for s in out)


def test_enumerate_triangle():
    out = enumerate_colorings(triangle_graph())
    assert [tuple(s.values()) for s in out] == [(0, 1, 2), (0, 2, 1)]


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_colorings(grid_saw(3, 3), cap=10)


def test_enumerate_long_path_is_iterative():
    # one vertex per recursion level would exceed the default recursion limit
    # long before the cap could stop the search
    with pytest.raises(CapExceeded):
        enumerate_colorings(path_graph(1500), cap=10)
    # a 1,500-vertex strip of triangles has exactly two colorings
    g = path_graph(1500)
    for i in range(1498):
        g.add_edge(i, i + 2)
    out = enumerate_colorings(g, cap=2)
    assert [[s[v] for v in range(4)] for s in out] == [[0, 1, 2, 0], [0, 2, 1, 0]]
    assert [s[1499] for s in out] == [1499 % 3, (-1499) % 3]


def test_enumerate_matches_exhaustive_order():
    g = grid_saw(3, 3)
    g.root = 4
    ids = sorted(g.vertices)
    edges = [(e.u, e.v) for e in g.edges.values()]
    expected = [dict(zip(ids, colors)) for colors in product(range(3), repeat=9)
                if colors[4] == 0 and all(colors[u] != colors[v] for u, v in edges)]
    assert enumerate_colorings(g) == expected
    assert enumerate_colorings(g, cap=len(expected)) == expected
    with pytest.raises(CapExceeded):
        enumerate_colorings(g, cap=len(expected) - 1)


def test_coloring_to_mv_degree2():
    g = single_vertex_saw(cone(180, 180))
    a, b = sorted(g.vertices)
    mv = coloring_to_mv(g, {a: 0, b: 1})
    assert set(mv.values()) == {1}
    mv = coloring_to_mv(g, {a: 0, b: 2})
    assert set(mv.values()) == {-1}


def test_coloring_to_mv_rejects_improper():
    g = single_vertex_saw(cone(180, 180))
    a, b = sorted(g.vertices)
    with pytest.raises(ImproperColoring):
        coloring_to_mv(g, {a: 0, b: 0})
    with pytest.raises(ImproperColoring):
        coloring_to_mv(g, {a: 1, b: 2})  # root must be 0


def test_coloring_to_mv_refuses_a_missing_root():
    # a root that is not a vertex cannot be colored 0; an empty graph
    # admits any root, and its one (empty) coloring is refused the same way
    g = path_graph(4)
    g.root = 7
    with pytest.raises(ImproperColoring, match="^root 7 is not a vertex$"):
        coloring_to_mv(g, {v: v % 2 for v in g.vertices})
    g = SawGraph()
    g.root = 3
    with pytest.raises(ImproperColoring, match="^root 3 is not a vertex$"):
        coloring_to_mv(g, {})


@pytest.mark.parametrize("color", [3, 4, -1, 256, 1.5, 1.0, Fraction(2)])
def test_coloring_to_mv_rejects_a_color_out_of_range(monkeypatch, color):
    # a row holds a coloring's colors a byte per vertex, so any other
    # value is refused before it could pass for a color in a step mod 3 (3
    # for 0, 4 for 1); 1.0 and Fraction(2) equal colors but are not ints,
    # which bytes refuses. verify's exact pass refuses it alike as coloring
    # _BLOCK, past the most a certified graph lists
    cp = miura(4, 4)
    g = tile(cp)
    colorings = enumerate_colorings(g)
    v = next(v for v in sorted(g.vertices) if v != g.root)
    colorings[coloring._BLOCK][v] = color
    message = re.escape(f"vertex {v} has color {color!r}, not 0, 1 or 2")
    with pytest.raises(ImproperColoring, match=f"^{message}$"):
        coloring_to_mv(g, colorings[coloring._BLOCK])
    monkeypatch.setattr(coloring, "_colorings", lambda g: iter(colorings))
    with pytest.raises(ImproperColoring, match=f"^{message}$"):
        _exact_pass(cp, g)


def _to_mv_by_row(g, s):
    """``coloring_to_mv`` through ``_Plan``: the coloring's row checked by
    ``_Plan.colors`` and its image read off its crossing edges' steps."""
    plan = coloring._Plan(g)
    return plan.to_mv(plan.colors(s))


def _copied_first(g):
    """``g`` with a reversed copy of its first crossing edge listed first,
    so that crease's two edges take opposite steps."""
    e = next(e for e in g.edges.values() if e.directed)
    eid = g.add_edge(e.v, e.u, directed=True, crease=e.crease)
    g.edges = {eid: g.edges.pop(eid), **g.edges}
    return g


@pytest.mark.parametrize("make", [lambda: tile(miura(3, 3)), lambda: tile(snake(3, 3)),
                                  lambda: tile(triangle_twist(1)), lambda: tile(triangle_twist(2)),
                                  lambda: _copied_first(tile(miura(3, 3)))],
                         ids=["miura-3x3", "snake-3x3", "twists-1", "twists-2", "miura-3x3-copied"])
def test_coloring_to_mv_matches_the_column_read(make):
    # the one pass over the edges gives each coloring the assignment that
    # the read of its checked row gives, in the same crease order; a crease
    # crossed twice takes its last crossing edge's step
    g = make()
    for s in enumerate_colorings(g):
        got, want = coloring_to_mv(g, s), _to_mv_by_row(g, s)
        assert got == want and list(got) == list(want)


@pytest.mark.parametrize("how", ["domain", "missing-root", "root", "range", "improper",
                                 "bool-improper"])
def test_coloring_to_mv_refuses_as_the_column_read(how):
    # each planted refusal raises the ImproperColoring of the checked row
    # read (``_Plan.colors``), message included; a bool color is named as
    # the byte it reads as, 0 or 1, not as False or True
    g = tile(miura(3, 3))
    s = first_coloring(g)
    v = next(v for v in sorted(g.vertices) if v != g.root)
    if how == "domain":
        s[max(g.vertices) + 1] = 0
    elif how == "missing-root":
        g.root = max(g.vertices) + 1
    elif how == "root":
        s = {u: (c + 1) % 3 for u, c in s.items()}
    elif how == "range":
        s[v] = 3
    else:
        if how == "bool-improper":
            s = {u: bool(c) for u, c in s.items()}
        e = list(g.edges.values())[len(g.edges) // 2]
        s[e.v] = s[e.u]
    with pytest.raises(ImproperColoring) as want:
        _to_mv_by_row(g, s)
    with pytest.raises(ImproperColoring, match=f"^{re.escape(str(want.value))}$"):
        coloring_to_mv(g, s)
    if how == "bool-improper":
        e = next(e for e in g.edges.values() if s[e.u] == s[e.v])
        assert str(want.value) == f"edge {e.id} endpoints share color {1 if s[e.u] else 0}"


def test_mv_round_trip_on_twist():
    cp = triangle_twist(1)
    g = tile(cp)
    for s in enumerate_colorings(g):
        mv = coloring_to_mv(g, s)
        assert mv_to_coloring(g, mv) == s


def test_mv_to_coloring_rejects_unreachable():
    g = single_vertex_saw(cone(180, 180))
    ca, cb = [e.crease for e in g.edges.values() if e.directed]
    with pytest.raises(NoCompletion):
        mv_to_coloring(g, {ca: 1, cb: -1})  # inconsistent pair
    with pytest.raises(NoCompletion):
        mv_to_coloring(g, {ca: 1, cb: 0})   # not an MV value


def test_mv_to_coloring_refuses_a_missing_crease():
    g = tile(miura(2, 2))
    with pytest.raises(NoCompletion, match="has value None, not 1 or -1"):
        mv_to_coloring(g, {})


def test_crane_witnesses_lift_and_round_trip():
    # propagation alone leaves most of the crane's SAW graph uncolored; the
    # completion search must still find each witness's single coloring
    cp = crane()
    g = tile(cp)
    report = enumerate_locally_valid(cp, cap=200)
    assert len(report.witnesses) == 200
    for mv in report.witnesses:
        s = mv_to_coloring(g, mv)
        assert coloring_to_mv(g, s) == mv


def test_mv_to_coloring_ambiguous():
    # a pendant vertex hung on the root by an undirected edge takes 1 or 2
    g = path_graph(2)
    with pytest.raises(AmbiguousCompletion):
        mv_to_coloring(g, {})


def test_mv_to_coloring_ambiguous_on_a_disconnected_graph():
    # c touches nothing, so when propagation stalls the search branches on a
    # vertex with no colored neighbour and finds three completions
    g = SawGraph()
    a, b, _ = g.add_vertex(), g.add_vertex(), g.add_vertex()
    g.add_edge(a, b, directed=True, crease="k")
    with pytest.raises(AmbiguousCompletion,
                       match="^the assignment lifts to more than one coloring$"):
        mv_to_coloring(g, {"k": 1})


def test_mv_to_coloring_no_completion_after_search():
    # the root hangs on a K4, which has no proper 3-coloring; propagation
    # stalls at once, so only the search can tell
    g = path_graph(2)
    for _ in range(3):
        g.add_vertex()
    for u, v in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        g.add_edge(u, v)
    with pytest.raises(NoCompletion):
        mv_to_coloring(g, {})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6))
def test_translation_round_trips(kind, m, n, seed):
    cp = small_pattern(kind, m, n, seed)
    assume(kind == "twists" or len(cp.creases) <= 20)
    g = tile(cp)
    for s in enumerate_colorings(g):
        assert mv_to_coloring(g, coloring_to_mv(g, s)) == s
    for mv in enumerate_locally_valid(cp, cap=10 ** 6).witnesses:
        assert coloring_to_mv(g, mv_to_coloring(g, mv)) == mv


def test_verify_bijection_passes_on_families():
    from flatfold.generators import modified_miura, snake
    zoo = [
        miura(2, 2), miura(2, 3), miura(3, 3), miura(1, 4),
        modified_miura(2, 3, (True, False)), modified_miura(3, 2, (True,)),
        snake(2, 4), snake(3, 3),
        triangle_twist(1),
    ]
    for cp in zoo:
        assert len(cp.creases) <= 20
        g = tile(cp)
        report = verify_bijection(cp, g)
        assert report.ok, (len(cp.creases), report)


@st.composite
def lift_cases(draw):
    """(graph, steps): a tiled Miura, modified Miura, snake, joined twists
    or the crane, perhaps with one crossing edge reversed, one more
    crossing edge over its crease, its crease left uncrossed, or the root
    removed; and a row of steps drawn at random, taken from a random color
    list (the crossing edges agree wherever its colors differ, the
    undirected edges may not), taken from a proper coloring (a random color
    list where the edit leaves none), or taken from one of the pattern's
    first 20 locally-valid assignments (without an edit, these two lift)."""
    kind = draw(st.sampled_from(["miura", "modified-miura", "snake", "twists", "crane"]))
    if kind == "crane":
        cp = crane()
    elif kind == "miura":
        cp = miura(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    elif kind == "snake":
        cp = snake(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    else:
        cp = small_pattern(kind, draw(st.integers(2, 4)), draw(st.integers(2, 4)),
                           draw(st.integers(0, 10 ** 6)))
    g = tile(cp)
    ids = sorted(g.vertices)
    e = draw(st.sampled_from([e for e in g.edges.values() if e.directed]))
    edit = draw(st.sampled_from(["none", "reverse", "extra", "uncross", "no-root"]))
    if edit == "reverse":
        e.u, e.v = e.v, e.u
    elif edit == "extra":
        u, v = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
        g.add_edge(u, v, directed=True, crease=e.crease)
    elif edit == "uncross":
        e.directed = False
    elif edit == "no-root":
        g.root = ids[-1] + 1
    directed = [e for e in g.edges.values() if e.directed]
    witnesses = enumerate_locally_valid(cp, cap=20).witnesses

    def row():
        how = draw(st.sampled_from(["random", "colors", "proper", "witness"]))
        if how == "witness":
            mv = draw(st.sampled_from(witnesses))
            return [STEP_OF_MV[mv[e.crease]] for e in directed]
        if how == "random":
            return draw(st.lists(st.sampled_from([1, 2]), min_size=len(directed),
                                 max_size=len(directed)))
        s = None
        if how == "proper" and edit != "no-root":
            try:
                s = first_coloring(g)
            except ValueError:      # the extra edge left no proper coloring
                pass
        if s is None:
            s = dict(zip(ids, draw(st.lists(st.integers(0, 2), min_size=len(ids),
                                            max_size=len(ids)))))
            s[g.root] = 0
        return [(s[e.v] - s[e.u]) % 3 or 1 for e in directed]

    return g, row()


def _lifted(lift, *args):
    """A lift's color list, or the type of the error it raised."""
    try:
        return lift(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(lift_cases())
def test_lift_matches_reference(case):
    # on every graph, whether or not its crossing edges from the root span
    # it, the lift gives the propagate-and-search lift's colors, or raises
    # the same type of error
    g, steps = case
    assert _lifted(coloring._Plan(g).lift, steps) == _lifted(reference_lift, g, steps)


def test_lift_refuses_a_graph_with_no_proper_coloring():
    # one more crossing edge between two vertices that every proper
    # coloring of joined twists 1 colors alike leaves no proper coloring:
    # both lifts raise NoCompletion on the steps of a locally-valid
    # assignment
    cp = triangle_twist(1)
    mv = enumerate_locally_valid(cp, cap=1).witnesses[0]

    def with_edge(u, v):
        g = tile(cp)
        e = next(e for e in g.edges.values() if e.directed)
        g.add_edge(u, v, directed=True, crease=e.crease)
        return g

    g = next(g for g in starmap(with_edge, combinations(sorted(tile(cp).vertices), 2))
             if count_colorings(g) == 0)
    steps = [STEP_OF_MV[mv[e.crease]] for e in g.edges.values() if e.directed]
    assert _lifted(coloring._Plan(g).lift, steps) is NoCompletion
    assert _lifted(reference_lift, g, steps) is NoCompletion


def test_crane_lifts_stall_and_match_the_reference():
    # the crane's first 20 witnesses, the lifts of the verify benchmark's
    # crane-lift op: the propagation from the root leaves each with an
    # uncolored vertex, so each lift searches, and it gives the reference
    # lift's colors
    g = tile(crane())
    plan = coloring._Plan(g)
    directed = [e for e in g.edges.values() if e.directed]
    witnesses = enumerate_locally_valid(crane(), cap=20).witnesses
    assert len(witnesses) == 20
    for mv in witnesses:
        steps = [STEP_OF_MV[mv[e.crease]] for e in directed]
        colors = [-1] * len(plan.vertices)
        colors[plan.root] = 0
        assert plan._propagate(colors, [0] * len(colors), plan.root, steps) is None
        assert -1 in colors
        assert plan.lift(steps) == reference_lift(g, steps)


def test_plan_spans_where_crossing_edges_reach_every_vertex():
    # the crossing edges from the root reach every vertex of the Miura,
    # modified-Miura and snake graphs; the crane and joined twists have
    # several crossing components, and a graph without its root spans none
    for cp, spans in [(miura(4, 4), True), (small_pattern("modified-miura", 4, 4, 1), True),
                      (snake(4, 4), True), (triangle_twist(3), False), (crane(), False)]:
        assert coloring._Plan(tile(cp)).spans == spans
    g = tile(miura(2, 2))
    g.root = max(g.vertices) + 1
    assert not coloring._Plan(g).spans


def _sample_steps(g: SawGraph) -> list[bytes]:
    """The crossing edges' steps, as ``_Plan.lift`` takes them, of the
    first ``_LIFTS`` colorings of ``_colorings(g)``: the lift sample of a
    certified graph."""
    plan = coloring._Plan(g)
    rows = [plan.steps_of(plan.colors(s)) for s in islice(coloring._colorings(g), coloring._LIFTS)]
    return [bytes([steps[k] for _, k in plan.directed]) for steps in rows]


def _recorded_lifts(monkeypatch) -> list[bytes]:
    """The steps of every later call of ``_Plan.lift``."""
    lifted: list[bytes] = []
    lift = coloring._Plan.lift
    monkeypatch.setattr(coloring._Plan, "lift",
                        lambda plan, steps: lifted.append(bytes(steps)) or lift(plan, steps))
    return lifted


@pytest.mark.parametrize("make, count, lifts", [(lambda: miura(3, 3), 82, 0),
                                                (lambda: triangle_twist(2), 170, coloring._LIFTS)],
                         ids=["miura", "twists-2"])
def test_verify_bijection_lifts_each_assignment_once(monkeypatch, make, count, lifts):
    # a certified graph lifts its first _LIFTS colorings once each, though
    # joined twists 2 has 170; where the crossing edges span the graph, as
    # on Miura 3x3, it reads the round trip off their steps and lifts none
    cp = make()
    lifted = _recorded_lifts(monkeypatch)
    report = verify_bijection(cp, tile(cp))
    assert report.ok and report.count_mv == count
    assert len(lifted) == lifts


def test_verify_bijection_flags_bad_merge():
    cp, bad = invalid_joined_twist_saw()
    report = verify_bijection(cp, bad)
    assert not report.ok
    assert not report.counts_match
    assert report.count_mv == 170
    assert report.count_colorings == 110


def _exact_pass(cp, g, cap=200000):
    """verify_bijection's exact pass on the colorings of the
    coloring._colorings attribute, which the reference reads through
    enumerate_colorings, and the oracle's count of M."""
    return coloring._exact_pass(cp, coloring._Plan(g), coloring._colorings(g),
                                oracle._count(cp), cap)


def _outcome(verify, cp, g, cap):
    """A verify function's report, or the type and message it raised."""
    try:
        return verify(cp, g, cap=cap)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


@st.composite
def bijection_cases(draw):
    """(pattern, graph, cap): a tiled pattern or the invalid joined-twist
    merge, perhaps with one crossing edge reversed, two crease labels
    swapped, one edge given another's crease (so that crease is crossed
    twice and its own not at all; with "relabel-off" a third edge crosses
    a crease the pattern lacks, so no witness is lifted), one more edge
    across an existing crease (last in the edge order, or with
    "extra-first" first, so the crease still takes its own edge's step),
    its vertices listed in reverse order, or one crossing edge made
    undirected (its crease left uncrossed)."""
    kind = draw(st.sampled_from(["modified-miura", "snake", "twists", "bad-merge"]))
    if kind == "bad-merge":
        cp, g = invalid_joined_twist_saw()
    else:
        cp = small_pattern(kind, draw(st.integers(2, 4)), draw(st.integers(2, 4)),
                           draw(st.integers(0, 10 ** 6)))
        g = tile(cp)
    crossing = [e for e in g.edges.values() if e.directed]
    a, b, c = [crossing[k] for k in draw(st.lists(
        st.integers(0, len(crossing) - 1), min_size=3, max_size=3, unique=True))]
    edit = draw(st.sampled_from(["none", "reverse", "swap", "relabel", "relabel-off",
                                 "extra", "extra-first", "reorder", "uncross"]))
    if edit == "reverse":
        a.u, a.v = a.v, a.u
    elif edit == "swap":
        a.crease, b.crease = b.crease, a.crease
    elif edit.startswith("relabel"):
        a.crease = b.crease
        if edit == "relabel-off":
            c.crease = "elsewhere"
    elif edit.startswith("extra"):
        eid = g.add_edge(a.u, c.v if c.v != a.u else c.u, directed=True, crease=b.crease)
        if edit == "extra-first":
            g.edges = {eid: g.edges.pop(eid), **g.edges}
    elif edit == "reorder":
        g.vertices = dict(reversed(g.vertices.items()))
    elif edit == "uncross":
        a.directed, a.crease = False, None
    # a cap under the count of the bad merge's assignments (170), not of
    # its colorings (110), compares only a prefix of the assignments; one
    # under the pattern's count passes the oracle's cap, so the oracle's
    # count comes from its DP (verify counts the colorings before it
    # enumerates them at every cap, the reference never does)
    count = enumerate_locally_valid(cp, cap=0).count
    return cp, g, draw(st.sampled_from([200000, 200000, 120, count - 1]))


@settings(max_examples=100, deadline=None)
@given(bijection_cases())
def test_verify_bijection_matches_reference(case):
    # the streamed verify_bijection gives the list-based one's report:
    # every field, the counterexample's reason, and its detail where that
    # is a coloring or an assignment; or both raise the same error
    cp, g, cap = case
    want = _outcome(reference_verify_bijection, cp, g, cap)
    spans = coloring._Plan(g).spans
    with pytest.MonkeyPatch.context() as mp:
        listings = _recorded_listings(mp)
        lifted = _recorded_lifts(mp)
        got = _outcome(verify_bijection, cp, g, cap)
    # a passing graph is certified by its counts and never lists M; where
    # the crossing edges span the graph, it reads the round trips off their
    # steps and lifts nothing, and elsewhere it lifts at most its first
    # _LIFTS colorings. Any other report comes from the exact pass, which
    # lists M once, up to the cap, and only while every coloring's round
    # trip holds: all of it (up to the cap) if the round trips still hold
    # at the end, and surely when M has more assignments than S colorings
    # and the graph crosses only the pattern's creases
    if isinstance(got, BijectionReport):
        drawn = list(map(len, listings))
        assert len(drawn) <= (0 if got.ok else 1)
        if drawn and got.round_trip_ok:
            assert drawn == [min(cap, got.count_mv)]
        if drawn and not got.round_trip_ok:
            assert got.first_counterexample[0] not in ("mv_to_coloring failed",
                                                       "round trip mismatch")
        foreign = coloring._Plan(g).crossing.keys() - cp.creases.keys()
        if got.round_trip_ok and not foreign and got.count_mv > got.count_colorings:
            assert drawn == [min(cap, got.count_mv)]
    if isinstance(got, BijectionReport) and got.ok:
        assert len(lifted) <= (0 if spans else coloring._LIFTS)
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, BijectionReport)
    fields = ["count_mv", "count_colorings", "counts_match", "translation_valid",
              "injective", "round_trip_ok"]
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    if want.first_counterexample is None:
        assert got.first_counterexample is None
        return
    (reason, detail), (want_reason, want_detail) = \
        got.first_counterexample, want.first_counterexample
    assert reason == want_reason
    if isinstance(want_detail, dict):
        assert detail == want_detail


@settings(max_examples=100, deadline=None)
@given(bijection_cases())
def test_a_spanning_round_trip_count_proves_injectivity(case):
    # verify skips the pair count where the crossing edges span the graph
    # from the root and cross only the pattern's creases, once the round
    # trip count is |S|: on each such graph the pair count's DP gives |S|
    cp, g, _ = case
    plan = coloring._Plan(g)
    assume(plan.spans and plan.crossing.keys() <= cp.creases.keys())
    into_m, pairs = _certificates(cp, g, spans=False)
    if into_m == count_colorings(g):
        assert pairs == into_m
        assert _certificates(cp, g, spans=True) == (into_m, pairs)


@pytest.mark.parametrize("make, counts", [(lambda: miura(4, 4), 3), (lambda: triangle_twist(3), 4)],
                         ids=["miura-4x4", "twists-3"])
def test_verify_bijection_builds_one_plan(monkeypatch, make, counts):
    # one min-frontier order serves |S| and the certificates; past the
    # oracle's DP count and |S|, Miura 4x4 runs the round trip count only,
    # and joined twists 3, whose crossing edges do not span it, the pair
    # count too
    cp = make()
    g = tile(cp)
    calls = {"frontier_count": 0, "_min_frontier_order": 0}
    for module, name in [(coloring, "frontier_count"), (oracle, "frontier_count"),
                         (coloring, "_min_frontier_order")]:
        def counted(*args, f=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert verify_bijection(cp, g).ok
    assert calls == {"frontier_count": counts, "_min_frontier_order": 1}


@pytest.mark.parametrize("size, at", [((2, 3), 0), ((2, 3), -1),
                                      ((4, 4), coloring._BLOCK), ((4, 4), -1)])
@pytest.mark.parametrize("how", ["root", "improper", "domain"])
def test_verify_bijection_checks_each_coloring(monkeypatch, how, size, at):
    # a coloring that fails a check of coloring_to_mv raises its error, as
    # in the list-based reference; colorings reach both functions through
    # the coloring._colorings attribute. Miura 2x3's listing, one
    # too long, sends verify to its exact pass. Of Miura 4x4's 2,604
    # colorings, the bad one is coloring _BLOCK, or the last of all. A
    # graph certified past _BLOCK colorings lists none, so these go to the
    # exact pass directly
    cp = miura(*size)
    g = tile(cp)
    g.vertices = dict(reversed(g.vertices.items()))
    colorings = coloring._colorings

    def with_bad(g):
        out = list(colorings(g))
        s = out[at]
        if how == "root":       # the colors cycled: proper, but the root is 1
            bad = {v: (c + 1) % 3 for v, c in reversed(s.items())}
        elif how == "improper":     # an edge in the middle of the edge order
            edges = list(g.edges.values())
            e = edges[len(edges) // 2]
            bad = {**s, e.v: s[e.u]}
        else:                   # a vertex the graph lacks
            bad = {**s, max(s) + 1: 0}
        out.insert(at % (len(out) + 1), bad)
        return iter(out)

    monkeypatch.setattr(coloring, "_colorings", with_bad)
    want = _outcome(reference_verify_bijection, cp, g, 200000)
    assert want[0] is ImproperColoring
    verify = _exact_pass if size == (4, 4) else verify_bijection
    assert _outcome(verify, cp, g, 200000) == want


@pytest.mark.parametrize("how", ["repeat-earlier", "repeat-same", "outside",
                                 "lift-fails", "lift-differs"])
def test_verify_bijection_reports_a_later_block_as_the_reference(monkeypatch, how):
    # past the first _BLOCK colorings of Miura 4x4, a repeat of one of the
    # first colorings or of a recent one, or a coloring whose assignment
    # the oracle's search leaves out; past the first _BLOCK of joined
    # twists 3, whose crossing edges do not span it, so that each coloring
    # is lifted, one whose lift (patched) fails or gives other colors: the
    # exact pass checks each coloring in turn, and the report is the
    # list-based reference's, counterexample included. The oracle's count,
    # one short, sends verify to the exact pass; the planted colorings and
    # lifts of a graph certified past _BLOCK colorings are never listed or
    # lifted, so those go to the exact pass directly. The image left out
    # of M is left out of the oracle's witnesses, which the reference
    # lists, and fails one more cone test, which the exact pass reads
    cp = triangle_twist(3) if how.startswith("lift") else miura(4, 4)
    g = tile(cp)
    at = coloring._BLOCK + 44
    colorings = enumerate_colorings(g)
    if how.startswith("repeat"):
        colorings.insert(at, colorings[3 if how == "repeat-earlier" else at - 3])
    else:
        mv = coloring_to_mv(g, colorings[at])
    if how.startswith("lift"):
        target = bytes(STEP_OF_MV[mv[c]] for c, _ in coloring._Plan(g).directed)
        lift = coloring._Plan.lift

        def planted(plan, steps):
            colors = lift(plan, steps)
            if bytes(steps) != target:
                return colors
            if how == "lift-fails":
                raise NoCompletion("planted")
            return [-c % 3 for c in colors]     # colors 1 and 2 swapped

        monkeypatch.setattr(coloring._Plan, "lift", planted)
    elif how == "outside":
        witnesses, crimp_checks = oracle._witnesses, oracle._crimp_checks
        target = [STEP_OF_MV[v] for v in mv.values()]

        def other(vals, places):
            return [(vals[v] - vals[u]) % 3 for u, v in zip(places[::2], places[1::2])] != target

        def with_other(cones, places_of):
            places = [k for c in mv for k in places_of(c)]
            return crimp_checks(cones, places_of) + [(places, other)]

        monkeypatch.setattr(oracle, "_witnesses", lambda cp: (m for m in witnesses(cp) if m != mv))
        monkeypatch.setattr(oracle, "_crimp_checks", with_other)
        count_mv = oracle._count
        monkeypatch.setattr(oracle, "_count", lambda cp: count_mv(cp) - 1)
    monkeypatch.setattr(coloring, "_colorings", lambda g: iter(colorings))
    want = reference_verify_bijection(cp, g)
    reason = {"outside": "coloring maps outside M", "lift-fails": "mv_to_coloring failed",
              "lift-differs": "round trip mismatch"}.get(how, "two colorings share an assignment")
    detail = "planted" if how == "lift-fails" else colorings[at]
    assert want.first_counterexample == (reason, detail)
    if how != "outside":
        assert _exact_pass(cp, g) == want
        return
    # every other assignment is an image, so M is not listed
    listings = _recorded_listings(monkeypatch)
    assert verify_bijection(cp, g) == want
    assert listings == []


@pytest.mark.parametrize("make, count", [(crane, 93_312), (lambda: miura(5, 5), 193_662)],
                         ids=["crane", "miura-5x5"])
def test_verify_bijection_certifies_large_graphs(make, count):
    # the crane's lift needs a search, and Miura 5x5 is near the cap: both
    # are certified by counts and a sample of lifts
    cp = make()
    report = verify_bijection(cp, tile(cp))
    assert report.ok and report.count_mv == report.count_colorings == count


def _miura_mutant(how: str):
    """Miura 4x4 and its graph with crossing edge 5 reversed, made
    undirected (its crease uncrossed), given edge 9's crease label in a
    swap, or copied reversed and listed first."""
    cp = miura(4, 4)
    g = tile(cp)
    a, b = [e for e in g.edges.values() if e.directed][5:10:4]
    if how == "reversed":
        a.u, a.v = a.v, a.u
    elif how == "uncrossed":
        a.directed, a.crease = False, None
    elif how == "swapped":
        a.crease, b.crease = b.crease, a.crease
    else:
        eid = g.add_edge(a.v, a.u, directed=True, crease=a.crease)
        g.edges = {eid: g.edges.pop(eid), **g.edges}
    return cp, g


@pytest.mark.parametrize("how", ["reversed", "uncrossed", "swapped", "copied"])
def test_verify_bijection_refuses_a_mutant_past_a_block(monkeypatch, how):
    # each mutant keeps Miura 4x4's 2,604 colorings and assignments, but
    # the first certificate falls short of them, so verify takes the exact
    # pass and gives the reference's report. Where every coloring lifts
    # back, the pass lists M and stops at its first witness, which fails
    # to; the copy's colorings fail their round trips, so M is not listed
    cp, g = _miura_mutant(how)
    assert count_colorings(g) == enumerate_locally_valid(cp, cap=0).count == 2604
    into_m, pairs = _certificates(cp, g, spans=True)
    assert into_m < 2604 and pairs == 2604
    listings = _recorded_listings(monkeypatch)
    report = verify_bijection(cp, g)
    assert list(map(len, listings)) == ([] if how == "copied" else [1])
    assert not report.ok and not report.round_trip_ok
    assert report == reference_verify_bijection(cp, g)


def test_verify_bijection_lifts_a_sample_past_a_block(monkeypatch):
    # joined twists 3 (1,112 colorings) is certified by counts, and its
    # lift is checked on its first _LIFTS colorings; a lift planted to fail
    # on the first of them sends verify to the exact pass, whose report is
    # the reference's. The pass lifts that coloring first, and once its
    # lift fails it lifts nothing more and lists no witness of M
    cp = triangle_twist(3)
    g = tile(cp)
    targets = _sample_steps(g)
    assert len(targets) == coloring._LIFTS
    with pytest.MonkeyPatch.context() as mp:
        lifted = _recorded_lifts(mp)
        assert verify_bijection(cp, g).ok
    assert lifted == targets
    lift = coloring._Plan.lift

    def planted(plan, steps):
        if bytes(steps) == targets[0]:
            raise NoCompletion("planted")
        return lift(plan, steps)

    monkeypatch.setattr(coloring._Plan, "lift", planted)
    listings = _recorded_listings(monkeypatch)
    lifted = _recorded_lifts(monkeypatch)
    report = verify_bijection(cp, g)
    assert listings == []
    assert lifted == targets[:1] * 2
    assert report.first_counterexample == ("mv_to_coloring failed", "planted")
    assert report == reference_verify_bijection(cp, g)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_bijection_lifts_the_first_colorings(monkeypatch, k):
    # joined twists 1, 2 and 3 (26, 170 and 1,112 colorings, their crossing
    # edges spanning none) are certified by counts and lift exactly their
    # first min(_LIFTS, |S|) colorings of _colorings, in sorted-id order
    cp = triangle_twist(k)
    g = tile(cp)
    lifted = _recorded_lifts(monkeypatch)
    assert verify_bijection(cp, g).ok
    assert lifted == _sample_steps(g)
    assert len(lifted) == min(coloring._LIFTS, count_colorings(g))


@pytest.mark.parametrize("k", [2, 3], ids=["twists-2", "twists-3"])
@pytest.mark.parametrize("how", ["lift-fails", "lift-differs"])
def test_verify_bijection_refuses_a_planted_lift_in_the_sample(monkeypatch, how, k):
    # a lift planted to fail, or to give other colors, on the last coloring
    # of the sample, on a graph of at most a block (joined twists 2) or
    # past one (joined twists 3): verify takes the exact pass and gives the
    # reference's report. The pass lifts the sample's colorings again, in
    # order, and after the planted one lifts nothing more and lists no
    # witness of M
    cp = triangle_twist(k)
    g = tile(cp)
    sample = _sample_steps(g)
    target = sample[-1]
    lift = coloring._Plan.lift

    def planted(plan, steps):
        colors = lift(plan, steps)
        if bytes(steps) != target:
            return colors
        if how == "lift-fails":
            raise NoCompletion("planted")
        return [-c % 3 for c in colors]     # colors 1 and 2 swapped

    monkeypatch.setattr(coloring._Plan, "lift", planted)
    listings = _recorded_listings(monkeypatch)
    lifted = _recorded_lifts(monkeypatch)
    report = verify_bijection(cp, g)
    assert listings == []
    assert lifted == sample * 2
    assert not report.ok and not report.round_trip_ok
    reason = "mv_to_coloring failed" if how == "lift-fails" else "round trip mismatch"
    assert report.first_counterexample[0] == reason
    assert report == reference_verify_bijection(cp, g)


def test_verify_bijection_raises_past_cap():
    cp = miura(3, 3)
    g = tile(cp)
    for cap in (0, 81):
        with pytest.raises(CapExceeded, match=f"more than {cap} colorings"):
            verify_bijection(cp, g, cap=cap)
    assert verify_bijection(cp, g, cap=82).ok


@pytest.mark.parametrize("cap", [32, 40, 60, 81, 82, 200_000])
def test_verify_bijection_decides_m_past_a_capped_listing(cap):
    # an undirected edge (0, 6) leaves Miura 3x3's graph 32 of its 82
    # colorings, each mapping into M. Under 82 the oracle lists M only up
    # to the cap, and an image it does not list is still found in M by the
    # crimp schedules, so every cap gives the same report
    cp = miura(3, 3)
    g = tile(cp)
    g.add_edge(0, 6)
    report = verify_bijection(cp, g, cap=cap)
    assert (report.count_mv, report.count_colorings) == (82, 32)
    assert report.translation_valid and report.injective and not report.round_trip_ok
    assert report == verify_bijection(cp, g) == reference_verify_bijection(cp, g, cap=cap)


@pytest.mark.parametrize("make", [crane, lambda: miura(3, 3)], ids=["crane", "miura-3x3"])
def test_the_exact_pass_decides_an_unlisted_key_as_the_oracle(make):
    # the exact pass decides an image's membership in M on the coloring's
    # row, by the cones' full tables, with no witness listed (a cap of 0):
    # on seeded colorings of the graph, of a mutant with its first crossing
    # edge reversed (every image flips one crease, so none is in M) and of
    # one with the creases of crossing edges 0 and 5 swapped (some images
    # are in M), it gives is_locally_valid's verdict on the coloring's image
    cp = make()
    count = oracle._count(cp)
    rng = random.Random(1)
    for how in ("none", "reversed", "swapped"):
        g = tile(cp)
        a, b = [e for e in g.edges.values() if e.directed][0:6:5]
        if how == "reversed":
            a.u, a.v = a.v, a.u
        elif how == "swapped":
            a.crease, b.crease = b.crease, a.crease
        plan = coloring._Plan(g)
        rows = list(islice(coloring._colorings(g), 3000))
        sample = rng.sample(rows, min(len(rows), 25))
        verdicts = [coloring._exact_pass(cp, plan, [s], count, 0).translation_valid for s in sample]
        assert verdicts == [oracle.is_locally_valid(cp, coloring_to_mv(g, s)) for s in sample]
        assert {"none": all(verdicts), "reversed": not any(verdicts),
                "swapped": any(verdicts) and not all(verdicts)}[how]


@pytest.mark.parametrize("make, cap", [(crane, 20), (lambda: miura(3, 3), 81)])
def test_verify_bijection_refuses_by_count(monkeypatch, make, cap):
    # count_colorings decides: no coloring is enumerated before the refusal
    def fail(g):
        raise AssertionError("a coloring search ran")

    cp = make()
    g = tile(cp)
    monkeypatch.setattr(coloring, "_colorings", fail)
    with pytest.raises(CapExceeded, match=f"^more than {cap} colorings$"):
        verify_bijection(cp, g, cap=cap)


def _wheel_graph(k: int) -> SawGraph:
    """Miura 3x3's graph with an undirected k x k grid hung off its last
    vertex and an odd wheel (a hub joined to a 5-cycle) hung off the
    grid's far corner: no proper coloring."""
    g = tile(miura(3, 3))
    last = max(g.vertices)
    grid = [[g.add_vertex() for _ in range(k)] for _ in range(k)]
    g.add_edge(last, grid[0][0])
    for i in range(k):
        for j in range(k):
            if i + 1 < k:
                g.add_edge(grid[i][j], grid[i + 1][j])
            if j + 1 < k:
                g.add_edge(grid[i][j], grid[i][j + 1])
    hub = g.add_vertex()
    g.add_edge(grid[-1][-1], hub)
    rim = [g.add_vertex() for _ in range(5)]
    for a, b in zip(rim, rim[1:] + rim[:1]):
        g.add_edge(a, b)
        g.add_edge(hub, a)
    return g


def test_verify_bijection_lists_no_colorings_when_it_counts_none(monkeypatch):
    # |S| = 0 is counted, so the exact pass gets an empty listing: the
    # listing's search over sorted ids, which opens every dead prefix of
    # the grid, never runs, and the report is the reference's
    cp = miura(3, 3)
    g = _wheel_graph(3)
    assert count_colorings(g) == 0
    want = reference_verify_bijection(cp, g)

    def fail(g):
        raise AssertionError("a coloring search ran")

    monkeypatch.setattr(coloring, "_colorings", fail)
    report = verify_bijection(cp, g)
    assert report == want
    assert (report.count_mv, report.count_colorings) == (82, 0)
    assert not report.counts_match


def test_lift_and_verify_end_on_the_wheel_graph():
    # no coloring of the grid survives the wheel, and the lift's search
    # remembers each dead state, so it does not reopen one once per way of
    # reaching it (k = 5 took 8.5 s so, k = 6 over 300 s): the lift of a
    # witness and verify's report each take under a second
    cp = miura(3, 3)
    g = _wheel_graph(6)
    mv = enumerate_locally_valid(cp, cap=1).witnesses[0]
    start = time.perf_counter()
    with pytest.raises(NoCompletion, match="^no coloring completes the assignment$"):
        mv_to_coloring(g, mv)
    lifted = time.perf_counter()
    report = verify_bijection(cp, g)
    done = time.perf_counter()
    assert (report.count_mv, report.count_colorings, report.counts_match) == (82, 0, False)
    assert report.first_counterexample == ("assignment does not lift",
                                           "no coloring completes the assignment")
    assert lifted - start < 1 and done - lifted < 1


def test_lift_searches_a_state_again_once_it_found_a_completion():
    # from the root, a and then b are branched on: either color of a
    # leaves b and c the same banned colors, and b takes 1 alone, since 2
    # would cross to c at the root's 0. A state whose branches found a
    # coloring is not dead, so both colors of a are searched
    g = SawGraph()
    root, a, b, c = (g.add_vertex() for _ in range(4))
    g.root = root
    for u, v in [(root, a), (root, b), (root, c)]:
        g.add_edge(u, v)
    g.add_edge(b, c, directed=True, crease="x")
    with pytest.raises(AmbiguousCompletion):
        mv_to_coloring(g, {"x": MV_OF_STEP[1]})
    assert _lifted(reference_lift, g, [1]) is AmbiguousCompletion


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_bijection_on_small_wheel_graphs_matches_reference(k):
    cp = miura(3, 3)
    assert verify_bijection(cp, _wheel_graph(k)) == reference_verify_bijection(cp, _wheel_graph(k))


def _hang(draw, g: SawGraph) -> None:
    """Hang an undirected gadget off ``g``: an edge from a random vertex of
    ``g`` to the gadget's first vertex, and perhaps one from another to its
    last. The gadget is a grid of up to 3 x 3 (its corners joined), an odd
    wheel, a hub joined to a 3-cycle (K4) or a 5-cycle, which has no proper
    coloring (the hub and a rim vertex joined), or a diamond, two triangles
    on a shared edge, whose tips every proper coloring colors alike (the
    tips joined)."""
    kind = draw(st.sampled_from(["grid", "wheel", "diamond"]))
    if kind == "grid":
        rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        new = [g.add_vertex() for _ in range(rows * cols)]
        edges = [(new[i], new[i + 1]) for i in range(len(new) - 1) if (i + 1) % cols]
        edges += [(new[i], new[i + cols]) for i in range(len(new) - cols)]
    elif kind == "wheel":
        new = [g.add_vertex() for _ in range(1 + draw(st.sampled_from([3, 5])))]
        ring = new[1:]
        edges = [(new[0], v) for v in ring] + list(zip(ring, ring[1:] + ring[:1]))
    else:
        new = [g.add_vertex() for _ in range(4)]
        edges = [(new[0], new[1]), (new[0], new[2]), (new[1], new[2]),
                 (new[1], new[3]), (new[2], new[3])]
    hosts = sorted(g.vertices.keys() - set(new))
    edges.append((draw(st.sampled_from(hosts)), new[0]))
    if draw(st.booleans()):
        edges.append((draw(st.sampled_from(hosts)), new[-1]))
    for u, v in edges:
        g.add_edge(u, v)


@st.composite
def hung_cases(draw):
    """(graph, mv): a tiled small pattern with up to two gadgets of
    ``_hang`` hung off it, the second perhaps off the first, and one of the
    pattern's first 5 locally-valid assignments."""
    cp = small_pattern(draw(st.sampled_from(["modified-miura", "snake", "twists"])),
                       draw(st.integers(2, 3)), draw(st.integers(2, 3)),
                       draw(st.integers(0, 10 ** 6)))
    g = tile(cp)
    for _ in range(draw(st.integers(0, 2))):
        _hang(draw, g)
    return g, draw(st.sampled_from(enumerate_locally_valid(cp, cap=5).witnesses))


@settings(max_examples=40, deadline=None)
@given(hung_cases())
def test_lift_of_hung_gadgets_matches_reference(case):
    # the lift's dead states change how long it searches, never what it
    # finds: the same colors as the reference lift, which remembers none,
    # or the same type of error
    g, mv = case
    steps = [STEP_OF_MV[mv[e.crease]] for e in g.edges.values() if e.directed]
    got = _lifted(mv_to_coloring, g, mv)
    if isinstance(got, dict):
        got = [got[v] for v in sorted(g.vertices)]
    assert got == _lifted(reference_lift, g, steps)


def test_verify_bijection_refuses_a_graph_past_the_cap(monkeypatch):
    # the oracle's search stays under the cap and the graph's colorings do
    # not: count_colorings refuses before any coloring is enumerated, so no
    # coloring dict is held (20,000 of them took 23 MB)
    def fail(g):
        raise AssertionError("a coloring search ran")

    g = tile(miura(5, 5))
    monkeypatch.setattr(coloring, "_colorings", fail)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="^more than 20000 colorings$"):
            verify_bijection(miura(2, 2), g, cap=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_verify_bijection_refusal_memory():
    # the refusal holds the oracle's byte keys, not cap + 1 coloring dicts
    # (20,001 coloring dicts of 25 entries take about 31 MB)
    cp = miura(5, 5)
    g = tile(cp)
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            verify_bijection(cp, g, cap=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_verify_bijection_exact_pass_memory():
    # the exact pass streams the colorings and keeps one byte key per
    # image, not a list of coloring dicts: Miura 4x4 with a crossing edge
    # reversed (2,604 colorings, each image outside M) peaked at 2.2 MB
    # when its colorings were listed, and about 0.3 MB streamed
    cp, g = _miura_mutant("reversed")
    tracemalloc.start()
    try:
        report = verify_bijection(cp, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert not report.translation_valid
    assert report == reference_verify_bijection(cp, g)


def test_verify_bijection_stops_the_search_at_cap(monkeypatch):
    # as in test_oracle's test_capped_search_stops_at_cap: the oracle
    # counts M without walking it, before the colorings pass the cap; its
    # vertex checks are the count plan's cone tests
    calls = _count_checks(monkeypatch)
    cp = crane()
    with pytest.raises(CapExceeded):
        verify_bijection(cp, tile(cp), cap=20)
    assert 0 < calls[0] < 5_000


def test_verify_bijection_skips_witness_lifts_off_the_pattern(monkeypatch):
    # a graph that crosses a crease the pattern lacks lifts only what its
    # colorings map to; the witness pass is skipped
    lifted = _recorded_lifts(monkeypatch)
    cp = miura(2, 3)
    g = tile(cp)
    next(e for e in g.edges.values() if e.directed).crease = "elsewhere"
    report = verify_bijection(cp, g)
    assert not report.translation_valid
    assert len(lifted) == report.count_colorings


def test_verify_bijection_flags_an_uncrossed_crease():
    # a pattern crease no edge crosses keys as None, which no assignment has
    cp = miura(2, 3)
    g = tile(cp)
    next(e for e in g.edges.values() if e.directed).directed = False
    report = verify_bijection(cp, g)
    want = reference_verify_bijection(cp, g)
    assert not report.translation_valid and not want.translation_valid
    assert report.first_counterexample == want.first_counterexample
    assert report.round_trip_ok == want.round_trip_ok


def _recorded_listings(monkeypatch) -> list[list]:
    """The witnesses drawn from each later call of ``oracle._witnesses``,
    one list per call."""
    listings: list[list] = []
    witnesses = oracle._witnesses

    def recorded(cp):
        drawn: list = []
        listings.append(drawn)
        return (drawn.append(m) or m for m in witnesses(cp))

    monkeypatch.setattr(oracle, "_witnesses", recorded)
    return listings


@pytest.mark.parametrize("make", [
    lambda: miura(4, 4), lambda: small_pattern("modified-miura", 4, 4, 1),
    lambda: snake(4, 4), lambda: triangle_twist(1), lambda: triangle_twist(2),
    lambda: triangle_twist(3)],
    ids=["miura", "modified-miura", "snake", "twists-1", "twists-2", "twists-3"])
def test_verify_bijection_certifies_without_enumerating_m(monkeypatch, make):
    # a passing graph is certified by counts: the oracle's search keeps no
    # assignment (its count from the DP)
    cp = make()
    g = tile(cp)
    listings = _recorded_listings(monkeypatch)
    report = verify_bijection(cp, g)
    assert listings == []
    assert report.ok
    assert report == reference_verify_bijection(cp, g)


def _miura_reversed(k: int):
    """Miura 3x3 and its graph with crossing edge k reversed."""
    cp = miura(3, 3)
    g = tile(cp)
    e = [e for e in g.edges.values() if e.directed][k]
    e.u, e.v = e.v, e.u
    return cp, g


@pytest.mark.parametrize("make", [invalid_joined_twist_saw] +
                         [lambda k=k: _miura_reversed(k) for k in range(12)],
                         ids=["bad-merge"] + [f"miura-reversed-{k}" for k in range(12)])
def test_verify_bijection_lists_m_when_an_assignment_is_unmapped(monkeypatch, make):
    # the bad merge's counts differ (170 and 110); a reversed edge of Miura
    # 3x3 keeps both counts at 82 and every coloring's lift, so only the
    # first certificate sees that its images leave M. Either way the exact
    # pass lists M, every coloring having lifted back, and stops at the
    # first witness that fails to lift back: the bad merge's fourth, a
    # reversed edge's first. The report is the reference's
    cp, g = make()
    listings = _recorded_listings(monkeypatch)
    report = verify_bijection(cp, g)
    assert list(map(len, listings)) == [4 if make is invalid_joined_twist_saw else 1]
    assert not report.ok and not report.round_trip_ok
    if make is not invalid_joined_twist_saw:
        assert report.count_mv == report.count_colorings == 82
        assert not report.translation_valid
    assert report == reference_verify_bijection(cp, g)


@pytest.mark.parametrize("k", range(12))
def test_verify_bijection_sees_a_crossing_edge_against_its_crease(k):
    # a reversed copy of Miura 3x3's crossing edge k, listed first, keeps
    # every coloring and every image (its crease takes its last crossing
    # edge's step), but no coloring takes the crease's step on the copy:
    # only the round trip, read off the crossing edges' steps, sees it
    cp = miura(3, 3)
    g = tile(cp)
    e = [e for e in g.edges.values() if e.directed][k]
    eid = g.add_edge(e.v, e.u, directed=True, crease=e.crease)
    g.edges = {eid: g.edges.pop(eid), **g.edges}
    report = verify_bijection(cp, g)
    assert report.count_mv == report.count_colorings == 82
    assert report.translation_valid and report.injective
    assert not report.round_trip_ok
    assert report == reference_verify_bijection(cp, g)


def test_verify_bijection_certifies_only_the_patterns_creases(monkeypatch):
    # an edge beside a crossing edge, across a crease the pattern lacks,
    # keeps every coloring, image and lift: the graph passes and every
    # assignment is an image, so M is never listed
    cp = miura(3, 3)
    g = tile(cp)
    e = next(e for e in g.edges.values() if e.directed)
    g.add_edge(e.u, e.v, directed=True, crease="elsewhere")
    listings = _recorded_listings(monkeypatch)
    report = verify_bijection(cp, g)
    assert listings == []
    assert report.ok
    assert report == reference_verify_bijection(cp, g)


@pytest.mark.parametrize("make", [lambda: miura(4, 4), lambda: triangle_twist(3)],
                         ids=["miura-4x4", "twists-3"])
def test_verify_bijection_certifies_a_foreign_crease_past_a_block(monkeypatch, make):
    # past a block, a copy of a crossing edge across a crease the pattern
    # lacks passes without listing M: as on any certified graph, its first
    # _LIFTS colorings, in sorted-id order, must lift back (joined twists
    # 3's crossing edges do not span it, so each lifts)
    cp = make()
    g = tile(cp)
    e = next(e for e in g.edges.values() if e.directed)
    g.add_edge(e.u, e.v, directed=True, crease="elsewhere")
    listings = _recorded_listings(monkeypatch)
    lifted = _recorded_lifts(monkeypatch)
    report = verify_bijection(cp, g)
    assert listings == []
    assert report.ok and report.count_colorings > coloring._BLOCK
    assert lifted == ([] if coloring._Plan(g).spans else _sample_steps(g))
    assert report == reference_verify_bijection(cp, g)


def test_verify_bijection_sees_a_repeated_image(monkeypatch):
    # a coloring repeated in place of another keeps the count, and each
    # coloring still lifts back to itself: only the exact pass's set of
    # images sees two colorings share an assignment
    cp = miura(4, 4)
    g = tile(cp)
    colorings = enumerate_colorings(g)
    colorings[coloring._BLOCK + 44] = colorings[3]
    monkeypatch.setattr(coloring, "_colorings", lambda g: iter(colorings))
    want = reference_verify_bijection(cp, g)
    assert want.counts_match and not want.injective
    assert _exact_pass(cp, g) == want


def test_verify_bijection_past_the_table_degree(monkeypatch):
    # one interior vertex of degree 10: the first certificate reads its
    # crimp schedule as it reads any other, so the graph is certified
    # without listing M, and the report is the reference's
    cp = star_pattern((10, 20, 30, 40, 80) * 2)
    g = tile(cp)
    listings = _recorded_listings(monkeypatch)
    report = verify_bijection(cp, g)
    assert listings == []
    assert report.ok and report.count_mv == 32
    assert report == reference_verify_bijection(cp, g)
