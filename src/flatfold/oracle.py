"""Ground truth over whole crease patterns, independent of SAW graphs.

The crease search is a plan of ``search``: creases are assigned in one
order, a vertex sweep (``_search_plan``), and the crease that completes an
interior vertex reads that vertex's other creases and takes only the
values that pass its single-vertex crimp schedule. A value is a color
step (``cp.STEP_OF_MV``): 1 for mountain, 2 for valley.
``count_locally_valid`` runs the plan through the frontier DP
``search.frontier_count``, so its cost follows the frontier width, not
the count; the mountain-valley flip maps M onto itself, so the DP keeps
one state for each frontier and its flip. ``_first_assignments`` runs it
through ``search.depth_first`` and stops past its cap, leaving the count
to the DP; it keeps each assignment as ``bytes``, one step per crease in
search order.
``enumerate_locally_valid`` turns those keys into witness dicts, and
``coloring._exact_pass`` uses them as its assignment keys as they are;
``coloring.verify_bijection`` reads only the count. Counts are exact
Python ints (arbitrary precision).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .cp import MV_OF_STEP, ConeVertex, CreasePattern, MVAssignment, cone_at
from .errors import KawasakiViolation, LimitExceeded
from .single_vertex import _check_values, _schedule, kawasaki_check
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


def _search_plan(cp: CreasePattern):
    """The crease search as a plan of ``search``: the crease order and its
    plan (``_crease_plan``).

    The order is a vertex sweep: the interior vertices sorted by exact
    coordinate (their integer copies, ``CreasePattern.lattice``, which sort
    as the Fractions do), x then y or y then x, each vertex's
    ``ccw_creases`` in turn, then the creases no vertex has. Of the two
    axes' plans, the one with the smaller ``search.frontier_width`` wins,
    x on a tie, so the frontier is one row of vertices across the
    narrower side of the pattern."""
    cones = _cones(cp)
    at = cp.lattice
    sweeps = []
    for key in (at.__getitem__, lambda v: at[v][::-1]):   # x then y, y then x
        swept = sorted(cones, key=key)
        order = list(dict.fromkeys([c for v in swept for c in cones[v].crease_ids]
                                   + sorted(cp.creases)))
        sweeps.append((order, _crease_plan(cones, order)))
    return min(sweeps, key=lambda sweep: frontier_width(sweep[1]))


def _crease_plan(cones: dict[str, ConeVertex], order: list[str]) -> list:
    """The plan over ``order``, which lists every crease once: each crease
    takes step 1 or 2, checked by the crimp check of each cone of
    ``cones`` that it completes (``_crimp_checks``)."""
    pos = {c: i for i, c in enumerate(order)}
    return checked([([], lambda vals: (1, 2))] * len(order), _crimp_checks(cones, lambda c: (pos[c],)))


def _crimp_checks(cones: dict[str, ConeVertex], places_of) -> list:
    """Each cone of ``cones`` as a check of ``search.checked``: the places
    of its creases in turn, ``places_of(crease)`` each, and ``_crimp`` of
    its crimp schedule. A crease has one place, which holds its step, or
    two, which hold the colors at the tail and head of a crossing edge."""
    checks = []
    for cone in cones.values():
        places = [k for c in cone.crease_ids for k in places_of(c)]
        checks.append((places, partial(_crimp, _schedule(cone.scaled), len(places) // cone.degree)))
    return checks


def _crimp(sched, width: int, vals, places: list[int]) -> bool:
    """Whether the steps at ``places`` of ``vals`` pass the crimp schedule
    ``sched``: a crease's step is the value at its one place (``width``
    1), or the difference (head - tail) mod 3 of the colors at its two."""
    if width == 1:
        signs = [MV_OF_STEP[vals[k]] for k in places]
    else:
        signs = [MV_OF_STEP[(vals[v] - vals[u]) % 3] for u, v in zip(places[::2], places[1::2])]
    return _check_values(sched, signs)


def _first_assignments(cp: CreasePattern, cap: int):
    """The search plan's crease order; the first ``cap`` assignments of
    its depth-first search, which stops at assignment ``cap + 1`` (none
    runs at a cap of 0 or less), each as ``bytes`` with one step per crease
    in that order (1 = mountain, 2 = valley); and the count, from the
    frontier DP once the cap is passed, which it is exactly when the count
    exceeds ``max(cap, 0)``."""
    order, plan = _search_plan(cp)
    if cap <= 0:
        return order, [], frontier_count(plan, swap=True)
    found = list(map(bytes, islice(depth_first(plan), cap + 1)))
    count = len(found) if len(found) <= cap else frontier_count(plan, swap=True)
    del found[cap:]
    return order, found, count


def enumerate_locally_valid(cp: CreasePattern, cap: int = 10000) -> LocalValidityReport:
    """Exact count plus the first ``cap`` witness assignments.

    Witnesses come in depth-first order over the vertex sweep of
    ``_search_plan``, each crease trying step 1 (mountain, +1) before
    step 2 (valley, -1): one dict per assignment key of
    ``_first_assignments``, the keys ``coloring._exact_pass`` uses too,
    its steps read through ``cp.MV_OF_STEP``. The search stops once it finds
    assignment ``cap + 1``; then ``cap_exceeded`` is set and ``count``
    comes from the frontier DP of ``count_locally_valid`` (without its
    crease limit). Otherwise ``count`` is the number of witnesses found.
    """
    order, found, count = _first_assignments(cp, cap)
    witnesses = [{c: MV_OF_STEP[v] for c, v in zip(order, key)} for key in found]
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
    return frontier_count(_search_plan(cp)[1], swap=True)


def is_locally_valid(cp: CreasePattern, mv: MVAssignment) -> bool:
    """Restriction of the assignment to every vertex folds flat."""
    from .single_vertex import is_valid_single_vertex
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not is_valid_single_vertex(cone, mv):
            return False
    return True
