"""Ground truth over whole crease patterns, independent of SAW graphs.

The oracle builds its plans of ``search`` in one place, ``_plan``, over a
vertex sweep (interior vertices sorted by exact coordinate along the axis
that gives the narrower frontier, each vertex's creases
counterclockwise). A value is a color step (``cp.STEP_OF_MV``): 1 for
mountain, 2 for valley. Each cone is checked at its last placed crease
by one test, ``_cone_test``, which reads the cone's table (``_table``)
at the steps of its placed creases: how many valid assignments of the
cone give its placed creases those steps, by the crimp schedule walk of
``is_valid_single_vertex`` with the cone's other creases summed out,
kept per cone shape, placed creases and step tuple once asked. So no
table lists a cone's valid assignments.

* The *listing plan* (``_plan(cp, every=True)``) places every crease, so
  each table reads 1 or 0 and a cone's test passes once or not at all.
  ``_witnesses`` runs it through ``search.depth_first`` and yields each
  assignment as a witness dict; ``enumerate_locally_valid`` and
  ``coloring._exact_pass`` take as many as they need.
* The *count plan* (``_plan(cp, every=False)``) places only the creases
  with two interior ends. A crease with one interior end is constrained
  by that vertex alone, so it is summed out of the vertex's table: the
  crease that completes a vertex's placed creases takes each value once
  per valid completion, a repeat ``search.frontier_count`` counts as
  often. A crease with no interior end doubles the count, and a vertex
  with no placed crease multiplies it by its single-vertex count.

``_crimp_checks`` puts the same test, over each cone's walk, to other
plans and rows: a crease's step is read at its one place, or as the
color difference at its two (``coloring._certificates`` and the
membership rule of ``coloring._exact_pass``). ``count_locally_valid``,
and ``enumerate_locally_valid`` at a cap of 0 or less (which builds no
listing plan) or once the cap is passed, count by the frontier DP over
the count plan, so the cost follows the frontier width, not the count;
the mountain-valley flip maps M onto itself, so the DP keeps one state
for each frontier and its flip. ``coloring.verify_bijection`` reads the
count (``_count``). Counts are exact Python ints (arbitrary precision).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice

from .cp import MV_OF_STEP, ConeVertex, CreasePattern, MVAssignment, cone_at
from .errors import KawasakiViolation, LimitExceeded
from .single_vertex import (_check_values, _schedule, count_single_vertex_mv,
                            is_valid_single_vertex, kawasaki_check)
from .search import checked, depth_first, frontier_count, frontier_width

DEFAULT_BRUTE_LIMIT = 40


def _brute_limit(override: int | None) -> int:
    if override is not None:
        return override
    env = os.environ.get("FLATFOLD_BRUTE_LIMIT")
    try:
        return int(env) if env else DEFAULT_BRUTE_LIMIT
    except ValueError:
        raise LimitExceeded(
            f"FLATFOLD_BRUTE_LIMIT must be an integer, not {env!r}") from None


@dataclass
class LocalValidityReport:
    count: int
    witnesses: list[MVAssignment]
    cap_exceeded: bool = False


def _cones(cp: CreasePattern) -> dict[str, ConeVertex]:
    """Each interior vertex's cone by id, each checked by Kawasaki's test."""
    cones = {}
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not kawasaki_check(cone):
            raise KawasakiViolation(vertex=v)
        cones[v] = cone
    return cones


def _plan(cp: CreasePattern, every: bool):
    """The crease order of a vertex sweep, its plan of ``search`` and the
    factor the plan's count is multiplied by: the listing plan if
    ``every``, which places every crease, else the count plan, which
    places only the creases with two interior ends (module docstring).

    Each placed crease takes step 1 or 2. A cone is checked at its last
    placed crease by ``_cone_test`` of its table (``_table``, shared per
    cone shape and placed creases): a cone with every crease placed passes
    once or not at all, by its crimp schedule walk, any other once per
    valid completion of its other creases, each of which has this cone as
    its only interior end. A cone with no placed crease multiplies the
    factor by its single-vertex count, and an unplaced crease with no
    interior end by 2. The sweep's axis is chosen by the plan's own
    frontier width (``_narrower_sweep``)."""
    cones = _cones(cp)
    placed = {c for c, (a, b) in cp.creases.items() if every or a in cones and b in cones}
    factor = 2 ** sum(a not in cones and b not in cones
                      for c, (a, b) in cp.creases.items() if c not in placed)
    tables = []
    for cone in cones.values():
        idx = tuple([i for i, c in enumerate(cone.crease_ids) if c in placed])
        if idx:
            tables.append(([cone.crease_ids[i] for i in idx], _table(cone.scaled, idx)))
        else:
            factor *= count_single_vertex_mv(cone)

    def plan_of(order):
        pos = {c: i for i, c in enumerate(order)}
        checks = [([pos[c] for c in ids], partial(_cone_test, table, 1)) for ids, table in tables]
        return checked([([], _either_step)] * len(order), checks)

    return *_narrower_sweep(cp, cones, plan_of, placed), factor


def _narrower_sweep(cp: CreasePattern, cones: dict[str, ConeVertex], plan_of, placed: set[str]):
    """The crease order of a vertex sweep and its plan ``plan_of(order)``,
    on the axis whose plan has the smaller ``search.frontier_width``, x on
    a tie. The sweep takes the vertices of ``cones`` by exact coordinate
    (their integer copies, ``CreasePattern.lattice``, which sort as the
    Fractions do), x then y or y then x, and each vertex's creases in
    ``placed`` in turn, counterclockwise. The order lists each crease of
    ``placed`` once: the swept ones, then those no vertex holds in id
    order."""
    at = cp.lattice
    sweeps = []
    for key in (at.__getitem__, lambda v: at[v][::-1]):   # x then y, y then x
        swept = [c for v in sorted(cones, key=key) for c in cones[v].crease_ids if c in placed]
        order = list(dict.fromkeys(swept))
        order += sorted(placed.difference(order))
        sweeps.append((order, plan_of(order)))
    return min(sweeps, key=lambda sweep: frontier_width(sweep[1]))


def _either_step(vals) -> tuple[int, int]:
    """Step 1 or 2, whatever is read."""
    return (1, 2)


@lru_cache(maxsize=4096)
def _table(scaled: tuple[int, ...], idx: tuple[int, ...]):
    """The table of a cone with these scaled angles and its creases at
    ``idx`` placed: a function from a tuple of their steps to how many
    valid assignments of the cone give them those steps. It is the crimp
    schedule walk (``single_vertex._check_values``), each unplaced crease
    reading the step 0 put after the tuple, so the value 0, which the
    walk sums out; kept per tuple once asked. With every crease placed it
    is 1 or 0, the rule of ``is_valid_single_vertex``. A tuple holding a
    step 0 reads 0. So no table lists a cone's valid assignments. Cached
    per angle tuple and ``idx``, like ``_schedule``, so every caller
    shares it."""
    sched = _schedule(scaled)
    at = [idx.index(i) if i in idx else len(idx) for i in range(len(scaled))]
    return lru_cache(maxsize=None)(lambda key: 0 if 0 in key else _check_values(
        sched, [MV_OF_STEP[(key + (0,))[k]] for k in at]))


def _cone_test(table, width: int, vals, places: list[int]) -> int:
    """A test of ``search.checked``: the cone's ``table`` (``_table``) read
    at the steps at ``places`` of ``vals``. A crease's step is the value
    at its one place (``width`` 1), or the difference (head - tail) mod 3
    of the colors at its two."""
    if width == 1:
        key = tuple([vals[k] for k in places])
    else:
        key = tuple([(vals[v] - vals[u]) % 3 for u, v in zip(places[::2], places[1::2])])
    return table(key)


def _crimp_checks(cones: dict[str, ConeVertex], places_of) -> list:
    """Each cone of ``cones`` as a check of ``search.checked``: the places
    of its creases in turn, ``places_of(crease)`` each, and ``_cone_test``
    of its table with every crease placed, the crimp schedule walk, which
    passes once or not at all. A crease has one place, which holds its
    step, or two, which hold the colors at the tail and head of a crossing
    edge; a color difference of 0 fails the test."""
    checks = []
    for cone in cones.values():
        places = [k for c in cone.crease_ids for k in places_of(c)]
        table = _table(cone.scaled, tuple(range(cone.degree)))
        checks.append((places, partial(_cone_test, table, len(places) // cone.degree)))
    return checks


def _witnesses(cp: CreasePattern):
    """M(cp) as witness dicts, one at a time: the listing plan's
    depth-first search, each assignment reading its steps (1 = mountain,
    2 = valley) through ``cp.MV_OF_STEP`` in the plan's crease order. The
    plan is built at the first witness asked for."""
    order, plan, _ = _plan(cp, True)
    for vals in depth_first(plan):
        yield {c: MV_OF_STEP[v] for c, v in zip(order, vals)}


def _count(cp: CreasePattern) -> int:
    """|M(cp)|: the count plan's factor times its frontier DP's count,
    with one state for each frontier and its flip."""
    _, plan, factor = _plan(cp, False)
    return factor * frontier_count(plan, swap=True)


def enumerate_locally_valid(cp: CreasePattern, cap: int = 10000) -> LocalValidityReport:
    """Exact count plus the first ``cap`` witness assignments.

    Witnesses come in depth-first order over the vertex sweep of the
    listing plan (``_plan``), each crease trying step 1 (mountain, +1)
    before step 2 (valley, -1): those of ``_witnesses``. The search
    stops once it finds assignment ``cap + 1``; then ``cap_exceeded`` is
    set and ``count`` comes from the frontier DP of ``count_locally_valid``
    (without its crease limit), as it does at a cap of 0 or less, where
    no listing plan is built. Otherwise ``count`` is the number found.
    """
    witnesses = list(islice(_witnesses(cp), cap + 1)) if cap > 0 else []
    count = len(witnesses) if 0 < cap and len(witnesses) <= cap else _count(cp)
    del witnesses[cap:]
    return LocalValidityReport(count, witnesses, cap_exceeded=count > max(cap, 0))


def count_locally_valid(cp: CreasePattern, limit: int | None = None) -> int:
    """Exact |M(cp)| without materializing witnesses, by the frontier DP
    of ``search.frontier_count``. Raises LimitExceeded above the crease
    limit (``limit``, else ``FLATFOLD_BRUTE_LIMIT``, else 40), or when
    ``FLATFOLD_BRUTE_LIMIT`` is not an integer."""
    n = len(cp.creases)
    lim = _brute_limit(limit)
    if n > lim:
        raise LimitExceeded(f"{n} creases exceed the brute-force limit {lim}")
    return _count(cp)


def is_locally_valid(cp: CreasePattern, mv: MVAssignment) -> bool:
    """Restriction of the assignment to every vertex folds flat."""
    return all(is_valid_single_vertex(cone_at(cp, v), mv) for v in cp.interior_vertex_ids())
