import tracemalloc
from itertools import product

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
from flatfold.tiling import tile

from .conftest import cone
from .helpers import (
    first_coloring,
    grid_saw,
    invalid_joined_twist_saw,
    reference_lift,
    reference_verify_bijection,
    small_pattern,
)


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
    assert count_colorings(tile(miura(10, 10))) == 169_426_507_164_530_254_380


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


@pytest.mark.parametrize("color", [3, 4, -1, 256, 1.5])
def test_coloring_to_mv_rejects_a_color_out_of_range(color):
    # colors are packed a byte per edge end, so any other value is refused
    # before it could pass for a color (3 for 0, 4 for a step of 1)
    g = tile(miura(2, 3))
    s = enumerate_colorings(g)[0]
    v = next(v for v in sorted(g.vertices) if v != g.root)
    with pytest.raises(ImproperColoring, match=f"^vertex {v} has color {color!r}, not 0, 1 or 2$"):
        coloring_to_mv(g, {**s, v: color})


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
    removed; and steps drawn at random, taken from a random color list (the
    crossing edges agree wherever its colors differ, the undirected edges
    may not), or taken from a proper coloring (the lift succeeds)."""
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
    how = draw(st.sampled_from(["random", "colors", "proper"]))
    if how == "random":
        return g, draw(st.lists(st.sampled_from([1, 2]), min_size=len(directed),
                                max_size=len(directed)))
    if how == "proper" and edit != "no-root":
        s = first_coloring(g)
    else:
        s = dict(zip(ids, draw(st.lists(st.integers(0, 2), min_size=len(ids),
                                        max_size=len(ids)))))
        s[g.root] = 0
    return g, [(s[e.v] - s[e.u]) % 3 or 1 for e in directed]


def _lifted(lift, *args):
    """A lift's color list, or the type of the error it raised."""
    try:
        return lift(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(lift_cases())
def test_lift_matches_reference(case):
    # the tree lift (graphs whose crossing edges from the root span them)
    # and the worklist lift (the others) give the propagate-and-search
    # lift's colors, or raise the same type of error
    g, steps = case
    assert _lifted(coloring._Plan(g).lift, steps) == _lifted(reference_lift, g, steps)


def test_lift_takes_the_tree_where_crossing_edges_span():
    # the Miura, modified-Miura and snake graphs lift along a tree; the
    # crane and joined twists, with several crossing components, do not
    for cp, spans in [(miura(4, 4), True), (small_pattern("modified-miura", 4, 4, 1), True),
                      (snake(4, 4), True), (triangle_twist(3), False), (crane(), False)]:
        assert (coloring._Plan(tile(cp))._tree is not None) == spans


def test_verify_bijection_lifts_each_assignment_once(monkeypatch):
    from flatfold import coloring
    lifted = []
    real = coloring._Plan.lift
    monkeypatch.setattr(coloring._Plan, "lift",
                        lambda plan, mv: lifted.append(mv) or real(plan, mv))
    cp = miura(3, 3)
    report = verify_bijection(cp, tile(cp))
    assert report.ok and report.count_mv == 82
    # the coloring pass lifts every assignment a coloring maps to, so the
    # witness pass has none left to lift (it lifted all 82 again before)
    assert len(lifted) == 82


def test_verify_bijection_flags_bad_merge():
    cp, bad = invalid_joined_twist_saw()
    report = verify_bijection(cp, bad)
    assert not report.ok
    assert not report.counts_match
    assert report.count_mv == 170
    assert report.count_colorings == 110


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
    across an existing crease, or its vertices listed in reverse order."""
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
                                 "extra", "reorder"]))
    if edit == "reverse":
        a.u, a.v = a.v, a.u
    elif edit == "swap":
        a.crease, b.crease = b.crease, a.crease
    elif edit.startswith("relabel"):
        a.crease = b.crease
        if edit == "relabel-off":
            c.crease = "elsewhere"
    elif edit == "extra":
        g.add_edge(a.u, c.v if c.v != a.u else c.u, directed=True, crease=b.crease)
    elif edit == "reorder":
        g.vertices = dict(reversed(g.vertices.items()))
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
    got = _outcome(verify_bijection, cp, g, cap)
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


@pytest.mark.parametrize("at", [0, -1])
@pytest.mark.parametrize("how", ["root", "improper", "domain"])
def test_verify_bijection_checks_each_coloring(monkeypatch, how, at):
    # a coloring that fails a check of coloring_to_mv raises its error, as
    # in the list-based reference; colorings reach both functions through
    # the coloring.enumerate_colorings attribute
    cp = miura(2, 3)
    g = tile(cp)
    g.vertices = dict(reversed(g.vertices.items()))
    enumerate_colorings = coloring.enumerate_colorings

    def with_bad(g, cap):
        out = enumerate_colorings(g, cap)
        s = out[at]
        if how == "root":       # the colors cycled: proper, but the root is 1
            bad = {v: (c + 1) % 3 for v, c in reversed(s.items())}
        elif how == "improper":
            e = next(iter(g.edges.values()))
            bad = {**s, e.v: s[e.u]}
        else:                   # a vertex the graph lacks
            bad = {**s, max(s) + 1: 0}
        out.insert(at % (len(out) + 1), bad)
        return out

    monkeypatch.setattr(coloring, "enumerate_colorings", with_bad)
    want = _outcome(reference_verify_bijection, cp, g, 200000)
    assert want[0] is ImproperColoring
    assert _outcome(verify_bijection, cp, g, 200000) == want


def test_verify_bijection_raises_past_cap():
    cp = miura(3, 3)
    g = tile(cp)
    for cap in (0, 81):
        with pytest.raises(CapExceeded, match=f"more than {cap} colorings"):
            verify_bijection(cp, g, cap=cap)
    assert verify_bijection(cp, g, cap=82).ok


@pytest.mark.parametrize("make, cap", [(crane, 20), (lambda: miura(3, 3), 81)])
def test_verify_bijection_refuses_by_count(monkeypatch, make, cap):
    # count_colorings decides: no coloring is enumerated before the refusal
    def fail(g, cap):
        raise AssertionError("enumerate_colorings ran")

    cp = make()
    g = tile(cp)
    monkeypatch.setattr(coloring, "enumerate_colorings", fail)
    with pytest.raises(CapExceeded, match=f"^more than {cap} colorings$"):
        verify_bijection(cp, g, cap=cap)


def test_verify_bijection_refuses_a_graph_past_the_cap(monkeypatch):
    # the oracle's search stays under the cap and the graph's colorings do
    # not: count_colorings refuses before any coloring is enumerated, so no
    # coloring dict is held (20,000 of them took 23 MB)
    def fail(g, cap):
        raise AssertionError("enumerate_colorings ran")

    g = tile(miura(5, 5))
    monkeypatch.setattr(coloring, "enumerate_colorings", fail)
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


def test_verify_bijection_stops_the_search_at_cap(monkeypatch):
    # as in test_oracle's test_capped_search_stops_at_cap: the oracle's
    # search stops at assignment cap + 1 before the colorings pass the cap
    calls = [0]
    check_values = oracle._check_values

    def counting(*args):
        calls[0] += 1
        return check_values(*args)

    monkeypatch.setattr(oracle, "_check_values", counting)
    cp = crane()
    with pytest.raises(CapExceeded):
        verify_bijection(cp, tile(cp), cap=20)
    assert 0 < calls[0] < 5_000


def test_verify_bijection_skips_witness_lifts_off_the_pattern(monkeypatch):
    # a graph that crosses a crease the pattern lacks lifts only what its
    # colorings map to; the witness pass is skipped
    lifted = []
    real = coloring._Plan.lift
    monkeypatch.setattr(coloring._Plan, "lift",
                        lambda plan, steps: lifted.append(steps) or real(plan, steps))
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
