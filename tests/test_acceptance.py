"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Tolerances are exact equalities; time budgets are asserted where the
criteria state them.

Criterion 9 asserts the stated target 93,313 and is an expected failure:
that value is odd, while the pre-colored 3-coloring count of any graph
with at least one edge is even (swapping two colors is a fixed-point-free
involution), and the locally-valid MV count of any pattern with at least
one crease is even (negating an assignment is one too). The computed truth
is 93,312, confirmed independently by the brute-force oracle and pinned in
test_crane_truth below.
"""

import random
import time
from itertools import product

import pytest

from flatfold import (
    baby_gadget,
    coloring_to_mv,
    count_colorings,
    count_locally_valid,
    count_single_vertex_mv,
    deg4_saw,
    enumerate_colorings,
    enumerate_single_vertex_mv,
    insert_prism,
    insert_triangle,
    mv_to_coloring,
    single_vertex_saw,
    tile,
    verify_bijection,
)
from flatfold.generators import crane, miura, modified_miura, snake, triangle_twist
from flatfold.saw import _REFUSALS

from .conftest import brute_force_count, cone, random_kawasaki_cone
from .helpers import grid_saw, invalid_joined_twist_saw


def report(n, ok, detail=""):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_degree4_catalog():
    expected = {(45, 30, 75, 90): 4, (60, 60, 120, 120): 6, (90, 90, 90, 90): 8}
    times = []
    for angles, want in expected.items():
        best = float("inf")
        for _ in range(5):
            c = cone(*angles, ids=tuple(f"t{i}{angles[0]}" for i in range(4)))
            t0 = time.perf_counter()
            got = count_single_vertex_mv(c)
            best = min(best, time.perf_counter() - t0)
        assert got == want, (angles, got)
        times.append(best)
    report(1, all(t < 0.001 for t in times),
           f"counts 4/6/8; max runtime {max(times) * 1000:.3f} ms")


def test_criterion_2_baby_gadgets():
    s1 = count_colorings(baby_gadget(1).graph)
    s3 = count_colorings(baby_gadget(3).graph)
    # on attachment the j=2 gadget closes into a 4-cycle
    s2 = count_colorings(baby_gadget(2).graph)
    report(2, (s1, s2, s3) == (2, 6, 6), f"|S| = {s1}, {s2}, {s3}")


def test_criterion_3_single_vertex_oracle_equivalence():
    rng = random.Random(20260401)
    t0 = time.time()
    checked = 0
    for _ in range(500):
        c = random_kawasaki_cone(rng, max_half_degree=5)
        assert count_single_vertex_mv(c) == brute_force_count(c), c
        checked += 1
    took = time.time() - t0
    report(3, checked == 500 and took < 10.0,
           f"{checked} cones agree with brute force in {took:.1f}s")


def test_criterion_4_saw_bijection_on_supported_vertices():
    rng = random.Random(20260402)
    t0 = time.time()
    checked = 0
    trials = 0
    while checked < 500 and trials < 5000:
        trials += 1
        c = random_kawasaki_cone(rng, max_half_degree=5)
        try:
            g = single_vertex_saw(c)
        except _REFUSALS:
            continue
        n_m = count_single_vertex_mv(c)
        assert count_colorings(g) == n_m, c
        valid = {tuple(sorted(m.items())) for m in enumerate_single_vertex_mv(c)}
        seen = set()
        for s in enumerate_colorings(g):
            mv = coloring_to_mv(g, s)
            key = tuple(sorted(mv.items()))
            assert key in valid and key not in seen, c
            seen.add(key)
            assert mv_to_coloring(g, mv) == s, c
        assert seen == valid
        checked += 1
    took = time.time() - t0
    report(4, checked == 500 and took < 60.0,
           f"{checked} supported vertices biject in {took:.1f}s")


def test_criterion_5_gadget_invariance():
    rng = random.Random(20260403)
    applications = 0
    while applications < 200:
        c = random_kawasaki_cone(rng, max_half_degree=4)
        try:
            g = single_vertex_saw(c)
        except _REFUSALS:
            continue
        base = count_colorings(g)
        walk_directed = [e for _, e in g.walk if g.edges[e].directed]
        g2 = g.copy()
        insert_triangle(g2, rng.choice(walk_directed))
        assert count_colorings(g2) == base
        applications += 1
        if applications >= 200:
            break
        # prism the undirected edge the triangle just left on the walk
        walk = g2.walk
        i = next(i for i, (_, e) in enumerate(walk) if not g2.edges[e].directed)
        nbrs = [walk[i - 1][1], walk[(i + 1) % len(walk)][1]]
        partner = next(e for e in nbrs if g2.edges[e].directed)
        g3 = g2.copy()
        insert_prism(g3, partner, walk[i][1])
        assert count_colorings(g3) == base
        applications += 1
    report(5, True, f"{applications} surgeries preserved counts exactly")


def test_criterion_6_miura_equivalence():
    t0 = time.time()
    pairs = [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
    for m, n in pairs:
        cp = miura(m, n)
        oracle = count_locally_valid(cp)
        grid = count_colorings(grid_saw(m, n))
        tiled = count_colorings(tile(cp))
        assert oracle == grid == tiled, (m, n, oracle, grid, tiled)
    took = time.time() - t0
    report(6, took < 300.0, f"{len(pairs)} sizes agree (oracle = grid = tiled) in {took:.1f}s")


def test_criterion_7_modified_miura_and_snake():
    for m in range(1, 4):
        for n in range(1, 4):
            base = count_locally_valid(miura(m, n))
            for mask in product([False, True], repeat=max(n - 1, 0)):
                assert count_locally_valid(modified_miura(m, n, mask)) == base, (m, n, mask)
            assert count_locally_valid(snake(m, n)) == base, (m, n)
    report(7, True, "all masks (m, n <= 3) and snakes match the standard Miura")


def test_criterion_8_triangle_twists():
    t0 = time.time()
    cp = triangle_twist(2)
    oracle = count_locally_valid(cp)
    assert oracle == 170, oracle
    good = tile(cp)
    assert count_colorings(good) == 170
    cp_bad, bad = invalid_joined_twist_saw()
    bad_count = count_colorings(bad)
    assert bad_count == 110, bad_count
    rep = verify_bijection(cp_bad, bad)
    assert not rep.ok and not rep.counts_match
    took = time.time() - t0
    report(8, took < 30.0,
           f"joined twists: 170; invalid merge counts {bad_count} and is flagged "
           f"({took:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="93,313 is odd, but |S| of any graph with an edge is even "
    "(color-swap involution) and |M| of any pattern with a crease is even "
    "(negation involution); the stated figure cannot be attained by a "
    "correct construction. Computed truth: 93,312 (tiled SAW count and "
    "brute-force oracle agree; see test_crane_truth).")
def test_criterion_9_crane():
    t0 = time.time()
    n = count_colorings(tile(crane()))
    ok = n == 93313 and time.time() - t0 < 120.0
    report(9, ok, f"count_colorings(tile(crane())) = {n}, required value 93,313")


def test_crane_truth():
    """Regression pin for the crane: two independent routes agree on 93,312."""
    t0 = time.time()
    cp = crane()
    tiled = count_colorings(tile(cp))
    oracle = count_locally_valid(cp)
    took = time.time() - t0
    assert tiled == oracle == 93312, (tiled, oracle)
    assert took < 120.0
    print(f"crane truth: tiled = oracle = 93312 in {took:.1f}s "
          "(the 93,313 target is off by one; parity forbids odd counts)")


def test_criterion_10_root_independence():
    rng = random.Random(20260404)
    graphs = []
    while len(graphs) < 47:
        c = random_kawasaki_cone(rng, max_half_degree=4)
        try:
            graphs.append(single_vertex_saw(c))
        except _REFUSALS:
            pass
    graphs.append(tile(miura(2, 3)))
    graphs.append(tile(triangle_twist(1)))
    graphs.append(tile(snake(2, 4)))
    for g in graphs:
        counts = set()
        for r in sorted(g.vertices):
            g.root = r
            counts.add(count_colorings(g))
        assert len(counts) == 1, counts
    report(10, len(graphs) == 50, f"{len(graphs)} graphs root-independent")
