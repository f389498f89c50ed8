import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatfold import (
    ALL_EQUAL,
    blb_condition,
    count_single_vertex_mv,
    crimp,
    enumerate_single_vertex_mv,
    find_min_runs,
    is_valid_single_vertex,
    kawasaki_check,
    maekawa_check,
    niceness,
)
from flatfold.cp import cone_at
from flatfold.errors import AllAnglesEqual, InvalidRun, KawasakiViolation
from flatfold.generators import miura
from flatfold.oracle import count_locally_valid
from flatfold.single_vertex import MinRun, _schedule

from .conftest import brute_force_count, cone, random_kawasaki_cone


def test_kawasaki_examples():
    assert kawasaki_check(cone(90, 90, 90, 90))
    assert kawasaki_check(cone(60, 60, 120, 120))
    assert not kawasaki_check(cone(90, 90, 90))  # odd count
    assert kawasaki_check(cone(45, 30, 75, 90))  # cones with total != 360 allowed
    assert not kawasaki_check(cone(100, 60, 80, 121))


def test_maekawa_examples():
    assert maekawa_check([1, 1, 1, -1])
    assert not maekawa_check([1, 1, -1, -1])
    assert not maekawa_check([1, 1, 1, 1, 1, -1])


def test_blb_examples():
    assert blb_condition(1, [1, -1])
    assert blb_condition(2, [1, 1, -1])
    assert not blb_condition(3, [1, 1, 1, -1])
    with pytest.raises(ValueError):
        blb_condition(2, [1, 1])


@given(st.integers(1, 6), st.data())
def test_blb_matches_sum_rule(j, data):
    vals = data.draw(st.lists(st.sampled_from([1, -1]), min_size=j + 1, max_size=j + 1))
    expect = sum(vals) == 0 if j % 2 == 1 else abs(sum(vals)) == 1
    assert blb_condition(j, vals) == expect


def test_find_min_runs_examples():
    runs = find_min_runs(cone(60, 60, 120, 120))
    assert [(r.start, r.j) for r in runs] == [(0, 2)]
    runs = find_min_runs(cone(45, 30, 75, 90))
    assert [(r.start, r.j) for r in runs] == [(1, 1)]
    runs = find_min_runs(cone(30, 50, 30, 50))
    assert [(r.start, r.j) for r in runs] == [(0, 1), (2, 1)]
    with pytest.raises(AllAnglesEqual):
        find_min_runs(cone(90, 90, 90, 90))


def test_find_min_runs_wrapping():
    # run of equal angles straddling the index-0 seam
    runs = find_min_runs(cone(20, 80, 50, 20))
    assert [(r.start, r.j) for r in runs] == [(3, 2)]


def test_crimp_odd_run():
    c = cone(45, 30, 75, 90)
    out = crimp(c, find_min_runs(c)[0])
    assert out.angles == (Fraction(90), Fraction(90))
    assert set(out.crease_ids) == {"c0", "c3"}
    assert out.cone_total == 180


def test_crimp_even_run_keeps_first_crease():
    c = cone(60, 60, 120, 120)
    out = crimp(c, find_min_runs(c)[0])
    assert sorted(out.crease_ids) == ["c0", "c3"]
    assert out.angles == (Fraction(120), Fraction(120))


def test_crimp_j3_uses_merge_formula():
    # prev - run + next: 60 - 30 + 90 = 120 (checked against brute force below)
    c = cone(30, 30, 30, 90, 120, 60)
    run = find_min_runs(c)[0]
    assert run.j == 3
    out = crimp(c, run)
    assert sorted(str(a) for a in out.angles) == ["120", "120"]
    assert count_single_vertex_mv(c) == brute_force_count(c) == 12


def test_crimp_j3_on_non_kawasaki_cone_follows_formula():
    # crimp only needs a valid run, not Kawasaki; the merge formula gives
    # prev - run + next = 105 - 30 + 90 = 165 and cone total drops by 4*30
    c = cone(30, 30, 30, 90, 45, 105)
    run = find_min_runs(c)[0]
    assert (run.start, run.j) == (0, 3)
    out = crimp(c, run)
    assert sorted(str(a) for a in out.angles) == ["165", "45"]
    assert sorted(out.crease_ids) == ["c4", "c5"]
    assert out.cone_total == c.cone_total - 4 * 30


def test_crimp_rejects_foreign_run():
    c = cone(45, 30, 75, 90)
    with pytest.raises(InvalidRun):
        crimp(c, MinRun(start=0, j=2, creases=("c0", "c1", "c2")))


def test_is_valid_examples():
    c = cone(90, 90, 90, 90)
    assert is_valid_single_vertex(c, dict(zip(c.crease_ids, (1, 1, 1, -1))))
    c = cone(45, 30, 75, 90)
    assert not is_valid_single_vertex(c, dict(zip(c.crease_ids, (1, 1, 1, -1))))
    c = cone(60, 60, 120, 120)
    assert is_valid_single_vertex(c, dict(zip(c.crease_ids, (-1, 1, 1, 1))))
    assert brute_force_count(c) == 6


def test_is_valid_requires_kawasaki():
    c = cone(90, 90, 100, 80)
    with pytest.raises(KawasakiViolation):
        is_valid_single_vertex(c, dict(zip(c.crease_ids, (1, 1, 1, -1))))


def test_count_examples():
    assert count_single_vertex_mv(cone(45, 30, 75, 90)) == 4
    assert count_single_vertex_mv(cone(60, 60, 120, 120)) == 6
    assert count_single_vertex_mv(cone(90, 90, 90, 90)) == 8
    assert count_single_vertex_mv(cone(*([60] * 6))) == 30  # 2 * C(6, 2)


def test_enumerate_examples():
    assert enumerate_single_vertex_mv(cone(180, 180)) == [
        {"c0": -1, "c1": -1},
        {"c0": 1, "c1": 1},
    ]
    out = enumerate_single_vertex_mv(cone(45, 30, 75, 90))
    assert len(out) == 4
    assert all(m["c1"] != m["c2"] for m in out)
    out = enumerate_single_vertex_mv(cone(90, 90, 90, 90))
    assert len(out) == 8
    assert all(abs(sum(m.values())) == 2 for m in out)


def test_enumerate_cap():
    from flatfold.errors import CapExceeded
    with pytest.raises(CapExceeded):
        enumerate_single_vertex_mv(cone(90, 90, 90, 90), cap=7)


def test_niceness_examples():
    assert niceness(cone(45, 30, 75, 90)) == 1
    assert niceness(cone(60, 60, 120, 120)) == 2
    assert niceness(cone(90, 90, 90, 90)) is ALL_EQUAL
    assert niceness(cone(30, 30, 30, 30, 90, 90)) == 4


def test_count_matches_brute_force_randomized(rng):
    for _ in range(120):
        c = random_kawasaki_cone(rng)
        assert count_single_vertex_mv(c) == brute_force_count(c)


def test_count_rotation_and_reflection_invariant(rng):
    for _ in range(40):
        c = random_kawasaki_cone(rng, max_half_degree=4)
        n0 = count_single_vertex_mv(c)
        for k in range(c.degree):
            assert count_single_vertex_mv(c.rotated(k)) == n0
        assert count_single_vertex_mv(c.reflected()) == n0


def test_count_invariant_under_run_choice():
    # force each possible first run by rotating so it comes first
    c = cone(30, 45, 30, 55, 50, 60, 70, 20)
    assert kawasaki_check(c)
    runs = find_min_runs(c)
    assert len(runs) >= 3
    counts = {count_single_vertex_mv(c.rotated(r.start)) for r in runs}
    assert counts == {count_single_vertex_mv(c)}


def test_validity_implies_maekawa(rng):
    for _ in range(30):
        c = random_kawasaki_cone(rng, max_half_degree=3)
        for m in enumerate_single_vertex_mv(c, cap=1 << 12):
            assert maekawa_check(m.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_enumerate_agrees_with_validity(half_degree, seed):
    rng = random.Random(seed)
    c = random_kawasaki_cone(rng, max_half_degree=half_degree)
    got = {tuple(sorted(m.items())) for m in enumerate_single_vertex_mv(c, cap=1 << 14)}
    want = set()
    for vals in product((1, -1), repeat=c.degree):
        m = dict(zip(c.crease_ids, vals))
        if is_valid_single_vertex(c, m):
            want.add(tuple(sorted(m.items())))
    assert got == want


def test_validity_schedule_is_cached_per_angle_tuple():
    # the schedule holds positions, so vertices that differ only in crease
    # names share one entry
    cp = miura(6, 6)
    angle_tuples = {cone_at(cp, v).angles for v in cp.interior_vertex_ids()}
    _schedule.cache_clear()
    assert count_locally_valid(cp, limit=len(cp.creases)) == 33865632
    assert _schedule.cache_info().misses <= len(angle_tuples)
    assert len(angle_tuples) < len(cp.interior_vertex_ids())
