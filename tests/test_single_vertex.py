import random
from collections import Counter
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
    crimp_trace,
    enumerate_single_vertex_mv,
    find_min_runs,
    is_locally_valid,
    is_valid_single_vertex,
    kawasaki_check,
    maekawa_check,
    niceness,
)
from flatfold.cp import ConeVertex, cone_at
from flatfold.errors import AllAnglesEqual, FlatfoldError, InvalidRun, KawasakiViolation
from flatfold.generators import crane, miura, snake, triangle_twist
from flatfold.oracle import count_locally_valid
from flatfold.saw import single_vertex_saw
from flatfold.single_vertex import CrimpTrace, MinRun, _check_values, _lift, _schedule

from .conftest import brute_force_count, cone, random_kawasaki_cone
from .helpers import (
    random_rational_cone,
    reference_crimp_trace,
    reference_find_min_runs,
    reference_kawasaki_check,
    small_pattern,
    star_pattern,
)


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


def test_crimp_refuses_a_run_whose_neighbours_coincide():
    c = cone(10, 10, 10, 50)
    (run,) = find_min_runs(c)
    with pytest.raises(InvalidRun, match="^run neighbours coincide; cone is not flat-foldable$"):
        crimp(c, run)


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


def test_niceness_and_count_refuse_a_non_kawasaki_cone():
    c = cone(10, 20, 30, 300)
    with pytest.raises(KawasakiViolation, match="^niceness needs a Kawasaki-valid cone$"):
        niceness(c)
    with pytest.raises(KawasakiViolation, match="^cone fails the Kawasaki test$"):
        count_single_vertex_mv(c)


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


def test_the_walk_counts_the_completions_of_the_given_values():
    # the crimp schedule walk reads a value 0 as a crease summed out: on
    # every cone shape of these patterns it counts the lifted rows that
    # agree with the given values, for every +-1/0 vector up to degree 6
    # and seeded ones above, and the all-zero vector counts the cone
    patterns = [crane(), miura(3, 3), snake(3, 3)] + [triangle_twist(k) for k in (1, 2, 3)]
    patterns += [small_pattern("modified-miura", m, n, seed)
                 for m, n in [(3, 4), (4, 5)] for seed in range(4)]
    patterns += [star_pattern(angles) for angles in [(90,) * 4, (80, 90, 100, 90), (60,) * 6,
                                                     (10, 20, 30, 40, 80) * 2,
                                                     [Fraction(45, 2)] * 16]]
    cones = {c.scaled: c for c in [cone_at(cp, v) for cp in patterns
                                   for v in cp.interior_vertex_ids()]}
    assert {c.degree for c in cones.values()} == {4, 6, 10, 16}
    rng = random.Random(50)
    for scaled, c in cones.items():
        sched, d = _schedule(scaled), c.degree
        rows = _lift(sched, d)
        assert _check_values(sched, [0] * d) == count_single_vertex_mv(c) == len(rows)
        # a row as the bit mask of its +1 creases
        masks = [sum(1 << i for i, v in enumerate(row) if v == 1) for row in rows]
        if d <= 6:
            vectors = list(product((1, 0, -1), repeat=d))
        else:
            vectors = [[rng.choice((1, -1)) if rng.random() < p else 0 for _ in range(d)]
                       for p in [rng.random() for _ in range(200)]]
        for vals in vectors:
            given = sum(1 << i for i, v in enumerate(vals) if v)
            plus = sum(1 << i for i, v in enumerate(vals) if v == 1)
            want = sum(m & given == plus for m in masks)
            assert _check_values(sched, list(vals)) == want, (scaled, vals)


def test_validity_schedule_is_cached_per_angle_tuple():
    # the schedule holds positions, so vertices that differ only in crease
    # names share one entry
    cp = miura(6, 6)
    angle_tuples = {cone_at(cp, v).angles for v in cp.interior_vertex_ids()}
    _schedule.cache_clear()
    assert count_locally_valid(cp, limit=len(cp.creases)) == 33865632
    assert _schedule.cache_info().misses <= len(angle_tuples)
    assert len(angle_tuples) < len(cp.interior_vertex_ids())


def _outcome(f, *args):
    """f's result, or the type and message of the library error it raised."""
    try:
        return f(*args)
    except FlatfoldError as exc:
        return type(exc), str(exc)


def test_single_vertex_layer_matches_its_fraction_reference():
    # the layer reads integer-scaled angles; on seeded rational cones it
    # gives the results, and raises the errors, of its Fraction bodies
    rng = random.Random(20261019)
    seen = Counter()
    for k in range(3000):
        c = random_kawasaki_cone(rng, 6) if k % 4 == 0 else random_rational_cone(rng)
        kawasaki = kawasaki_check(c)
        assert kawasaki == reference_kawasaki_check(c), c
        runs = _outcome(find_min_runs, c)
        assert runs == _outcome(reference_find_min_runs, c), c
        trace = _outcome(crimp_trace, c)
        assert trace == _outcome(reference_crimp_trace, c), c
        seen.update({f"degree {c.degree}", f"kawasaki {kawasaki}",
                     f"denominator {max(a.denominator for a in c.angles)}"})
        seen.update(x[0].__name__ for x in (runs, trace) if isinstance(x, tuple))
        if isinstance(runs, list):
            seen.update("wrapping run" for r in runs if r.start + r.j > c.degree)
    assert {f"degree {n}" for n in range(2, 13)} <= seen.keys()
    assert {f"denominator {d}" for d in range(1, 13)} <= seen.keys()
    # all-equal cones (find_min_runs refuses) and crimps whose neighbours
    # coincide (crimp_trace refuses) occur as well
    assert min(seen[k] for k in ("kawasaki True", "kawasaki False", "wrapping run",
                                 "AllAnglesEqual", "InvalidRun")) >= 100


def test_single_vertex_layer_is_scale_invariant():
    # a uniform positive scale changes no equality, order or zero sum, so
    # Kawasaki's test, the runs, the schedule and the SAW graph all stay
    rng = random.Random(4417)
    for k in range(600):
        c = random_kawasaki_cone(rng, 5) if k % 2 else random_rational_cone(rng)
        r = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        big = ConeVertex(tuple(a * r for a in c.angles), c.crease_ids)
        assert kawasaki_check(big) == kawasaki_check(c)
        runs = _outcome(find_min_runs, c)
        if isinstance(runs, list):
            runs = [(run.start, run.j) for run in runs]
            assert [(run.start, run.j) for run in find_min_runs(big)] == runs
        else:
            assert _outcome(find_min_runs, big) == runs
        if kawasaki_check(c):
            assert _schedule(big.scaled) == _schedule(c.scaled)
            assert _outcome(single_vertex_saw, big) == _outcome(single_vertex_saw, c)


def test_crimp_trace_angles_are_fractions():
    # the layer computes on ints, but every angle it hands out is a
    # Fraction: on computed (crane) and declared (Miura) cones alike
    angles = [a for cp in (crane(), miura(3, 3)) for v in cp.interior_vertex_ids()
              for step in crimp_trace(cone_at(cp, v)).steps for a in step.result.angles]
    assert len(angles) >= 20
    assert all(type(a) is Fraction for a in angles)


def test_the_crimp_schedule_is_the_position_named_crimp_trace():
    # one record of the recursion: on every cone shape of these patterns
    # the cached schedule is the cone's crimp trace, each crease id
    # replaced by its position in the cone
    patterns = [crane(), miura(3, 3), snake(3, 3)] + [triangle_twist(k) for k in (1, 2, 3)]
    patterns += [small_pattern("modified-miura", m, n, seed)
                 for m, n in [(3, 4), (4, 5), (5, 5)] for seed in range(4)]
    patterns += [star_pattern(angles) for angles in [(90,) * 4, (80, 90, 100, 90), (60,) * 6,
                                                     (40, 80, 60, 60, 80, 40),
                                                     (10, 20, 30, 40, 80) * 2,
                                                     (50, 20, 20, 50, 40, 30, 30, 40, 40, 40),
                                                     [Fraction(45, 2)] * 16]]
    cones = {c.scaled: c for c in [cone_at(cp, v) for cp in patterns
                                   for v in cp.interior_vertex_ids()]}
    assert {c.degree for c in cones.values()} == {4, 6, 10, 16}
    js = set()
    for c in cones.values():
        pos = {cid: i for i, cid in enumerate(c.crease_ids)}
        trace, sched = crimp_trace(c), _schedule(c.scaled)
        assert type(sched) is CrimpTrace
        assert [(s.run.start, s.run.j, s.run.creases) for s in sched.steps] == [
            (s.run.start, s.run.j, tuple(pos[cid] for cid in s.run.creases)) for s in trace.steps]
        assert sched.terminal.crease_ids == tuple(pos[cid] for cid in trace.terminal.crease_ids)
        js.update(s.run.j for s in sched.steps)
    assert {1, 2} <= js


def test_an_even_run_keeps_its_survivor_and_an_odd_run_none():
    # the survivor is an even run's first bordering crease, and the crimp
    # keeps that crease of the run's creases and no other
    rng = random.Random(51)
    seen = Counter()
    for _ in range(400):
        c = random_kawasaki_cone(rng, 6)
        if rng.random() < 0.5:
            # k equal angles below every other, planted: both alternating
            # sums grow alike for even k, so the cone stays Kawasaki-valid
            k, at = rng.choice((2, 4)), rng.randrange(c.degree)
            small = (min(c.angles) / rng.randint(2, 5),) * k
            c = ConeVertex(c.angles[:at] + small + c.angles[at:],
                           tuple(f"c{i}" for i in range(c.degree + k)))
        try:
            trace = crimp_trace(c)
        except InvalidRun:
            continue
        for step in trace.steps:
            run = step.run
            assert run.survivor == (None if run.j % 2 else run.creases[0])
            kept = set(run.creases) & set(step.result.crease_ids)
            assert kept == ({run.survivor} - {None}), (c, run)
            seen[run.j % 2] += 1
    assert min(seen.values()) >= 20 and len(seen) == 2


def test_a_malformed_assignment_raises_a_library_error():
    # a missing crease, a value other than +-1 and a run given the wrong
    # number of values are the caller's error, typed as the library's
    c = cone(90, 90, 90, 90)
    with pytest.raises(FlatfoldError, match=r"^assignment values must be \+-1$"):
        is_locally_valid(miura(2, 2), {})
    with pytest.raises(FlatfoldError, match=r"^assignment values must be \+-1$"):
        is_valid_single_vertex(c, dict(zip(c.crease_ids, (1, 1, -1, 0))))
    with pytest.raises(FlatfoldError, match="^expected 3 values, got 2$"):
        blb_condition(2, [1, 1])
