import hashlib
import random
from itertools import product

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
from flatfold import oracle
from flatfold.cp import MV_OF_STEP, cone_at
from flatfold.errors import KawasakiViolation, LimitExceeded
from flatfold.generators import crane, miura, snake, triangle_twist
from flatfold.search import depth_first, frontier_count, frontier_width
from flatfold.tiling import tile

from .helpers import (grid_saw, oracle_plan, replayed_width, small_pattern,
                      sweep_order, vertex_id_order)


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
    plan = oracle._search_plan(cp)[1]
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
    assert oracle._search_plan(cp)[0] == sweep_order(cp, 1)
    cp = crane()
    assert oracle._search_plan(cp)[0] == sweep_order(cp, 0)
    assert replayed_width(oracle_plan(cp, sweep_order(cp, 1))) == 7


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
    calls = [0]
    check_values = oracle._check_values

    def counting(*args):
        calls[0] += 1
        return check_values(*args)

    monkeypatch.setattr(oracle, "_check_values", counting)
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


def test_enumeration_checks_no_more_than_the_count(monkeypatch):
    # both searches ask a crease's rule once per distinct read value, and
    # a full enumeration reads no value the DP does not
    calls = _count_checks(monkeypatch)
    assert count_locally_valid(miura(4, 4)) == 2_604
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
