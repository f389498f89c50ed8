import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatfold import (
    count_colorings,
    count_locally_valid,
    count_single_vertex_mv,
    enumerate_colorings,
    enumerate_locally_valid,
    is_locally_valid,
)
from flatfold import oracle, patternio
from flatfold.cp import MV_OF_STEP, cone_at
from flatfold.errors import KawasakiViolation, LimitExceeded
from flatfold.generators import PatternSpec, crane, miura, snake, triangle_twist
from flatfold.search import depth_first, frontier_count, frontier_width
from flatfold.single_vertex import _check_values, _schedule
from flatfold.tiling import tile

from .helpers import (grid_saw, joined_star_pattern, oracle_plan, reference_search_plan,
                      replayed_width, small_pattern, star_pattern, swap_counted, sweep_order,
                      vertex_id_order)
from .test_tiling import strip_of_units, x_and_chords


def test_single_vertex_pattern_matches_recursion():
    cp = miura(2, 2)  # one bird's-foot vertex
    report = enumerate_locally_valid(cp)
    assert report.count == 6
    v = cp.interior_vertex_ids()[0]
    assert count_locally_valid(cp) == count_single_vertex_mv(cone_at(cp, v))


def test_is_locally_valid_refuses_a_missing_crease():
    with pytest.raises(ValueError, match=r"assignment values must be \+-1"):
        is_locally_valid(miura(2, 2), {})


def test_joined_twists_count():
    assert count_locally_valid(triangle_twist(2)) == 170


def test_single_twist_count_frozen():
    # regression fixture computed by this oracle (2^9 assignments)
    assert count_locally_valid(triangle_twist(1)) == 26


def test_1x2_miura_is_two():
    # one boundary-to-boundary crease: matches the 1x2 grid graph
    assert count_locally_valid(miura(1, 2)) == 2
    from flatfold.coloring import count_colorings
    assert count_colorings(grid_saw(1, 2)) == 2


def test_2x2_miura_is_six():
    assert count_locally_valid(miura(2, 2)) == 6


def test_witnesses_restrict_to_valid_vertices():
    cp = triangle_twist(1)
    report = enumerate_locally_valid(cp, cap=30)
    assert report.count == 26
    for m in report.witnesses:
        assert is_locally_valid(cp, m)
    # shared creases only constrain: count <= product of per-vertex counts
    prod = 1
    for v in cp.interior_vertex_ids():
        prod *= count_single_vertex_mv(cone_at(cp, v))
    assert report.count <= prod


def test_cap_truncates_witnesses_only():
    cp = miura(2, 3)
    report = enumerate_locally_valid(cp, cap=5)
    assert report.count == 18
    assert len(report.witnesses) == 5
    assert report.cap_exceeded


def test_search_order_independence(rng):
    cp = triangle_twist(1)
    base = count_locally_valid(cp)
    order = sorted(cp.creases)
    for _ in range(5):
        rng.shuffle(order)
        assert frontier_count(oracle_plan(cp, order)) == base


def test_miura_5x5_at_default_limit():
    assert count_locally_valid(miura(5, 5)) == 193_662


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6))
def test_counters_agree_with_plain_searches(kind, m, n, seed):
    cp = small_pattern(kind, m, n, seed)
    g = tile(cp)
    count = count_colorings(g)
    assert count == len(enumerate_colorings(g))
    assert count == count_locally_valid(cp) == enumerate_locally_valid(cp).count
    assert count % 2 == 0
    order = sorted(cp.creases)
    random.Random(seed).shuffle(order)
    assert frontier_count(oracle_plan(cp, order)) == count


@pytest.mark.parametrize("n, count", [(8, 13_574_876_544_396),
                                      (10, 169_426_507_164_530_254_380)])
def test_sweep_matches_colorings_on_large_miura(n, count):
    # the vertex sweep's frontier holds 9 and 11 creases here, so both
    # counts take well under a second
    cp = miura(n, n)
    assert count_locally_valid(cp, limit=len(cp.creases)) == count
    assert count_colorings(tile(cp)) == count


@pytest.mark.parametrize("make, width", [(crane, 7), (lambda: miura(5, 5), 6),
                                         (lambda: snake(6, 6), 8),
                                         (lambda: miura(10, 10), 11)],
                         ids=["crane", "miura-5x5", "snake-6x6", "miura-10x10"])
def test_sweep_plan_widths(make, width):
    cp = make()
    plan = oracle._plan(cp, True)[1]
    assert frontier_width(plan) == replayed_width(plan) == width
    old = oracle_plan(cp, vertex_id_order(cp))
    assert replayed_width(old) > width


def test_sweep_takes_the_narrower_axis():
    # Miura 10x10: the x sweep is 18 wide, the y sweep 11; the crane ties
    # at 7, and a tie goes to x
    cp = miura(10, 10)
    widths = [replayed_width(oracle_plan(cp, sweep_order(cp, axis)))
              for axis in (0, 1)]
    assert widths == [18, 11]
    assert oracle._plan(cp, True)[0] == sweep_order(cp, 1)
    cp = crane()
    assert oracle._plan(cp, True)[0] == sweep_order(cp, 0)
    assert replayed_width(oracle_plan(cp, sweep_order(cp, 1))) == 7


def test_sweep_axis_chosen_by_reads_keeps_the_full_plans_choice():
    # the axis is chosen by the width of its plan's reads: the order, the
    # reads and the count are those of choosing between both axes' full
    # plans as the reference builds them
    patterns = [crane()] + [triangle_twist(k) for k in (1, 2, 3)]
    patterns += [make(m, n) for make in (miura, snake) for m, n in [(1, 4), (3, 3), (2, 7), (7, 2)]]
    patterns += [small_pattern("modified-miura", m, n, seed)
                 for m, n in [(3, 5), (5, 3), (6, 6)] for seed in range(3)]
    for cp in patterns:
        order, plan, _ = oracle._plan(cp, True)
        want_order, want_plan = reference_search_plan(cp)
        assert order == want_order
        assert [reads for reads, _ in plan] == [reads for reads, _ in want_plan]
        assert frontier_count(plan) == frontier_count(want_plan)


def test_sweep_sorts_the_integer_lattice_as_the_coordinates():
    # the sweep sorts the build's integer copies of the coordinates: the
    # orders and reads are the reference's, which sorts the Fractions, on
    # every pattern of the benchmark's decks (read back from their files)
    # and on seeded modified-Miura masks
    specs = [PatternSpec("crane")] + [PatternSpec("joined-twists", count=k) for k in (1, 2, 3)]
    rng = random.Random(5)
    for m, n in [(3, 3), (3, 4), (4, 3), (4, 4), (4, 5), (5, 4), (5, 5)]:
        mask = tuple(rng.random() < 0.5 for _ in range(n - 1))
        specs += [PatternSpec("miura", m, n), PatternSpec("snake", m, n),
                  PatternSpec("modified-miura", m, n, mask)]
    patterns = [patternio.load_text(patternio.emit(spec.build()))[0] for spec in specs]
    patterns += [small_pattern("modified-miura", m, n, seed)
                 for m, n in [(2, 6), (6, 2), (7, 7)] for seed in range(10)]
    for cp in patterns:
        assert all(type(c) is int for p in cp.lattice.values() for c in p)
        order, plan, _ = oracle._plan(cp, True)
        want_order, want_plan = reference_search_plan(cp)
        assert order == want_order
        assert [reads for reads, _ in plan] == [reads for reads, _ in want_plan]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(2, 8), st.integers(2, 8), st.integers(0, 10 ** 6))
def test_sweep_count_matches_colorings_and_old_order(kind, m, n, seed):
    # counts only; the vertex-id order is too wide to run past 5x5
    cp = small_pattern(kind, m, n, seed)
    count = count_locally_valid(cp, limit=len(cp.creases))
    assert count == count_colorings(tile(cp))
    if kind == "twists" or max(m, n) <= 5:
        assert count == frontier_count(oracle_plan(cp, vertex_id_order(cp)))


def _count_plan_count(cp, seed: int = 0, shuffled: bool = True) -> int:
    """``oracle._count(cp)``, once the count plan has been checked: one
    position per crease with two interior ends, sigma-equivariant with its
    repeats as multisets, and the same count as the listing plan's DP and
    as, with ``shuffled``, the plain DP over a shuffled vertex order (the
    vertices in a seeded random order, each one's creases in turn, then
    the rest; a random crease order is too wide to count on the crane)."""
    count = oracle._count(cp)
    order, plan, factor = oracle._plan(cp, False)
    inner = [c for c, ends in cp.creases.items() if set(ends) <= cp.vertices.keys()]
    assert sorted(order) == sorted(inner) and len(plan) == len(inner)
    assert factor * swap_counted(plan) == count
    assert count == frontier_count(oracle._plan(cp, True)[1], swap=True)
    if shuffled:
        vertices = sorted(cp.vertices)
        random.Random(seed).shuffle(vertices)
        crease_order = [c for v in vertices for c in cp.ccw_creases[v]]
        crease_order = list(dict.fromkeys(crease_order + sorted(cp.creases)))
        assert count == frontier_count(oracle_plan(cp, crease_order))
    return count


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_plan_without_a_position(n):
    # a snake one cell high has no interior vertex: every crease runs from
    # boundary to boundary and only doubles the factor
    cp = snake(1, n)
    assert oracle._plan(cp, False)[1:] == ([], 2 ** (n - 1))
    assert _count_plan_count(cp) == 2 ** (n - 1)


@pytest.mark.parametrize("case, count", [(((1,), (3,), 4), 16), (((1, 5), (), 6), 64),
                                         (((1, 5), (3,), 6), 128)])
def test_count_plan_of_lone_cones_and_chords(case, count):
    # X's sharing no crease: each cone has no placed crease and multiplies
    # the factor by its count, and each chord doubles it
    cp = x_and_chords(*case)
    assert oracle._plan(cp, False)[1:] == ([], count)
    assert _count_plan_count(cp) == count


@pytest.mark.parametrize("make, count", [
    (lambda: strip_of_units("dx", "mjfio"), 2_048), (crane, 93_312),
    (lambda: triangle_twist(1), 26), (lambda: triangle_twist(2), 170),
    (lambda: triangle_twist(3), 1_112), (lambda: miura(1, 2), 2)],
    ids=["strip-dx", "crane", "twists-1", "twists-2", "twists-3", "miura-1x2"])
def test_count_plan_matches_the_listing_plan(make, count):
    assert _count_plan_count(make()) == count


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(2, 8), st.integers(2, 8), st.integers(0, 10 ** 6))
def test_count_plan_matches_the_listing_plan_on_seeded_patterns(kind, m, n, seed):
    # a shuffled vertex order is too wide to count past 5x5
    cp = small_pattern(kind, m, n, seed)
    _count_plan_count(cp, seed, shuffled=kind == "twists" or max(m, n) <= 5)


@pytest.mark.parametrize("make", [crane, lambda: miura(5, 5), lambda: snake(6, 6),
                                  lambda: miura(10, 10)],
                         ids=["crane", "miura-5x5", "snake-6x6", "miura-10x10"])
def test_count_plan_is_no_wider_than_the_listing_plan(make):
    cp = make()
    plan = oracle._plan(cp, False)[1]
    assert frontier_width(plan) == replayed_width(plan)
    assert frontier_width(plan) <= frontier_width(oracle._plan(cp, True)[1])


def test_count_plan_takes_a_cone_without_a_position_in_closed_form(monkeypatch):
    # a lone all-equal vertex of degree 16 has no crease with two interior
    # ends: its count, 2 * C(16, 7), comes from the crimp schedule, and no
    # table is lifted over no placed crease to count its rows
    idxs = []
    table = oracle._table
    monkeypatch.setattr(oracle, "_table", lambda scaled, idx: idxs.append(idx) or table(scaled, idx))
    cp = star_pattern([Fraction(45, 2)] * 16)
    assert oracle._plan(cp, False)[1:] == ([], 22_880)
    assert count_locally_valid(cp) == 22_880
    assert () not in idxs


def test_the_cone_test_reads_steps_and_colors_as_the_crimp_schedule():
    # every cone shape of these patterns (degrees 4 and 6, and a degree-10
    # star with runs of several lengths), on every step tuple: the cone
    # test on the steps at one place each, on colors whose head - tail
    # differences are those steps at two places each, and the crimp
    # schedule walk on the matching signs give one answer; a full table
    # reads 1 at each valid assignment's steps, so its reads over every
    # step tuple sum to the cone's count, and 0 at a tuple holding a step
    # 0: here a valid tuple with two steps made 0, which the walk alone
    # would read as values 0 and often pass
    patterns = [crane(), miura(3, 3), snake(3, 3)] + [triangle_twist(k) for k in (1, 2, 3)]
    patterns += [small_pattern("modified-miura", m, n, seed)
                 for m, n in [(3, 4), (4, 5)] for seed in range(4)]
    patterns.append(star_pattern((10, 20, 30, 40, 80) * 2))
    shapes = {cone.scaled: cone for cp in patterns for cone in oracle._cones(cp).values()}
    rng = random.Random(7)
    for scaled, cone in shapes.items():
        d = cone.degree
        table = oracle._table(scaled, tuple(range(d)))
        assert sum(map(table, product((1, 2), repeat=d))) == count_single_vertex_mv(cone)
        valid = next(steps for steps in product((1, 2), repeat=d) if table(steps))
        for i, j in combinations(range(d), 2):
            zeroed = tuple(0 if k in (i, j) else s for k, s in enumerate(valid))
            assert table(zeroed) == 0, (scaled, zeroed)
        at = {c: i for i, c in enumerate(cone.crease_ids)}
        [(places, by_step)] = oracle._crimp_checks({"v": cone}, lambda c: (at[c],))
        [(pairs, by_color)] = oracle._crimp_checks({"v": cone}, lambda c: (2 * at[c], 2 * at[c] + 1))
        assert places == list(range(d)) and pairs == list(range(2 * d))
        for steps in product((1, 2), repeat=d):
            tails = [rng.randrange(3) for _ in steps]
            colors = tuple(c for t, s in zip(tails, steps) for c in (t, (t + s) % 3))
            want = _check_values(_schedule(scaled), [MV_OF_STEP[s] for s in steps])
            assert by_step(steps, places) == by_color(colors, pairs) == int(want), (scaled, steps)


def test_limit_exceeded():
    with pytest.raises(LimitExceeded):
        count_locally_valid(miura(3, 3), limit=5)


def test_limit_env_override(monkeypatch):
    monkeypatch.setenv("FLATFOLD_BRUTE_LIMIT", "5")
    with pytest.raises(LimitExceeded):
        count_locally_valid(miura(3, 3))


def test_kawasaki_violation_reported():
    from flatfold import build_crease_pattern
    cp = build_crease_pattern(
        vertices={"v0": (2, 2)},
        creases={"c0": ("v0", "b0"), "c1": ("v0", "b1"),
                 "c2": ("v0", "b2"), "c3": ("v0", "b3")},
        region=[(0, 0), (4, 0), (4, 4), (0, 4)],
        boundary_points={"b0": (4, 2), "b1": (2, 4), "b2": (0, 2), "b3": (2, 0)},
        declared_angles={"v0": (100, 80, 90, 90)},
    )
    with pytest.raises(KawasakiViolation):
        count_locally_valid(cp)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(2, 4), st.integers(2, 4), st.integers(0, 10 ** 6), st.data())
def test_capped_witnesses_are_a_prefix(kind, m, n, seed, data):
    cp = small_pattern(kind, m, n, seed)
    assume(kind == "twists" or len(cp.creases) <= 20)
    count = count_locally_valid(cp)
    full = enumerate_locally_valid(cp, cap=count)
    assert full.count == count and not full.cap_exceeded
    assert len(full.witnesses) == count
    cap = data.draw(st.one_of(st.sampled_from([0, count - 1, count, count + 1]),
                              st.integers(0, count + 2)))
    report = enumerate_locally_valid(cp, cap=cap)
    assert report.witnesses == full.witnesses[:cap]
    assert report.count == count
    assert report.cap_exceeded == (count > cap)


@pytest.mark.parametrize("make, cap, digest", [
    (crane, 20, "49cf790f59a58272"),
    (lambda: miura(4, 4), 3000, "f2aaacdd305ea469"),
    (lambda: triangle_twist(3), 3000, "92f1a58998f1f7c1"),
], ids=["crane", "miura-4x4", "twists-3"])
def test_witness_order_is_pinned(make, cap, digest):
    # fixed digests of (count, cap_exceeded, witnesses): the witnesses'
    # order is the vertex sweep's depth-first order, 1 before -1, and any
    # change to the sweep, the values or their order changes the digest
    report = enumerate_locally_valid(make(), cap=cap)
    text = repr((report.count, report.cap_exceeded,
                 [sorted(m.items()) for m in report.witnesses]))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _count_checks(monkeypatch):
    """The vertex checks the oracle makes from here on: each call of its
    one cone test (``_cone_test``), in the listing plan, the count plan and
    the checks it lends (``_crimp_checks``)."""
    calls = [0]

    def counting(*args, check=oracle._cone_test):
        calls[0] += 1
        return check(*args)

    monkeypatch.setattr(oracle, "_cone_test", counting)
    return calls


def test_capped_search_stops_at_cap(monkeypatch):
    # the DFS stops at witness cap + 1 and the count comes from the DP;
    # without a cap the DFS checks each vertex once per distinct value of
    # the creases it reads: 224 vertex checks walk all 93,312 crane
    # assignments
    calls = _count_checks(monkeypatch)
    report = enumerate_locally_valid(crane(), cap=20)
    assert report.count == 93_312
    assert len(report.witnesses) == 20 and report.cap_exceeded
    assert calls[0] < 5_000


def test_a_capped_listing_judges_a_whole_cone_by_its_walk():
    # a lone all-equal vertex of degree 20 has 335,920 valid assignments:
    # its full table, once built by lifting them all, peaked at 146 MB of
    # traced memory to list 10 witnesses; judged by the crimp schedule walk
    # per step tuple asked, it keeps 1,280 verdicts
    cp = star_pattern([Fraction(18)] * 20)
    tracemalloc.start()
    try:
        report = enumerate_locally_valid(cp, cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert len(report.witnesses) == 10 and report.cap_exceeded
    assert report.count == 335_920 == count_single_vertex_mv(cone_at(cp, "v0"))
    assert all(map(is_locally_valid, [cp] * 10, report.witnesses))
    table = oracle._table(cone_at(cp, "v0").scaled, tuple(range(20)))
    assert table.cache_info().currsize < 5_000


def test_a_count_sums_a_cone_out_by_its_walk():
    # the degree-20 star joined by c0 to a degree-2 vertex: c0 is placed,
    # so the star's table sums its 19 other creases out; counted by the
    # crimp schedule walk per step of c0, not over the 335,920 lifted rows
    # (a table of them peaked at 72 MB of traced memory)
    cp = joined_star_pattern()
    tracemalloc.start()
    try:
        count = count_locally_valid(cp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 335_920 == count_single_vertex_mv(cone_at(cp, "v0"))
    assert peak < 8 * 2 ** 20
    report = enumerate_locally_valid(cp, cap=10)
    assert len(report.witnesses) == 10 and report.cap_exceeded
    assert report.count == 335_920
    assert all(map(is_locally_valid, [cp] * 10, report.witnesses))


@pytest.mark.parametrize("cap", [0, -1])
def test_a_capped_listing_of_none_builds_no_listing_plan(monkeypatch, cap):
    # at a cap of 0 or less the count comes from the count plan alone: the
    # listing plan, which places every crease, is never built
    plans = []

    def recorded(cp, every, plan=oracle._plan):
        plans.append(every)
        return plan(cp, every)

    monkeypatch.setattr(oracle, "_plan", recorded)
    report = enumerate_locally_valid(crane(), cap=cap)
    assert (report.count, report.witnesses, report.cap_exceeded) == (93_312, [], True)
    assert plans == [False]
    plans.clear()
    assert len(enumerate_locally_valid(crane(), cap=1).witnesses) == 1
    assert plans == [True, False]


def test_enumeration_checks_no_more_than_the_count(monkeypatch):
    # both searches ask a crease's rule once per distinct read value, and
    # a full enumeration reads no value the plain DP does not; the count's
    # DP, over the count plan's 24 creases with two interior ends and
    # quotiented by the mountain-valley flip, tests a cone for one read
    # value of each flipped pair; every test reads the cone's table
    calls = _count_checks(monkeypatch)
    assert count_locally_valid(miura(4, 4)) == 2_604
    assert calls[0] == 50
    calls[0] = 0
    assert frontier_count(oracle._plan(miura(4, 4), True)[1]) == 2_604
    counted = calls[0]
    calls[0] = 0
    report = enumerate_locally_valid(miura(4, 4), cap=10 ** 6)
    assert report.count == 2_604 and not report.cap_exceeded
    assert counted == 144 and calls[0] <= counted


@pytest.mark.parametrize("make", [lambda: miura(2, 3), lambda: miura(3, 3),
                                  lambda: snake(2, 3), lambda: triangle_twist(1)],
                         ids=["miura-2x3", "miura-3x3", "snake-2x3", "twist-1"])
def test_brute_force_matches_both_searches(make):
    # independent reference: every +-1 assignment through is_locally_valid,
    # sharing no search plan with the DP or the DFS
    cp = make()
    ids = sorted(cp.creases)
    assert len(ids) <= 12
    valid = [vals for vals in product((1, -1), repeat=len(ids))
             if is_locally_valid(cp, dict(zip(ids, vals)))]
    assert count_locally_valid(cp) == len(valid)
    report = enumerate_locally_valid(cp, cap=len(valid))
    assert not report.cap_exceeded
    assert sorted(tuple(m[c] for c in ids) for m in report.witnesses) == sorted(valid)
    # over the sorted crease order the depth-first search gives the
    # assignments in product order, each crease trying 1 before -1
    found = [tuple(MV_OF_STEP[v] for v in a) for a in depth_first(oracle_plan(cp, ids))]
    assert found == valid
