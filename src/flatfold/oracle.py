"""Ground truth over whole crease patterns, independent of SAW graphs.

The crease search is a plan of ``search``: creases are assigned in one
order, a vertex sweep (``_search_plan``), and the crease that completes an
interior vertex reads that vertex's other creases and takes only the
values that pass its single-vertex crimp schedule. ``count_locally_valid``
runs the plan through the frontier DP ``search.frontier_count``, so its
cost follows the frontier width, not the count. ``_first_assignments``
runs the same plan through the depth-first generator
``search.depth_first`` and stops past its cap, leaving the count to the
DP; it keeps each assignment as ``bytes``, one value per crease in search
order (0 = mountain, 1 = valley). ``enumerate_locally_valid`` turns those
keys into witness dicts, and ``coloring.verify_bijection`` uses them as
its assignment keys as they are. Counts are exact Python ints (arbitrary
precision).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .cp import CreasePattern, MVAssignment, cone_at
from .errors import KawasakiViolation, LimitExceeded
from .single_vertex import _check_values, _schedule, kawasaki_check
from .search import depth_first, frontier_count, frontier_width

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


def _search_plan(cp: CreasePattern, crease_order: list[str] | None = None):
    """The crease search as a plan of ``search``: the crease order and the
    plan (a crease reads the other creases of the vertices it completes).

    Unless ``crease_order`` is given, the order is a vertex sweep: the
    interior vertices sorted by exact coordinate, x then y or y then x,
    each vertex's ``ccw_creases`` in turn, then the creases no vertex has.
    Of the two axes, the one whose plan has the smaller
    ``search.frontier_width`` wins, x on a tie, so the frontier is one
    row of vertices across the narrower side of the pattern."""
    cones = {}
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not kawasaki_check(cone):
            raise KawasakiViolation(vertex=v)
        cones[v] = cone
    vertex_checks = [(_schedule(cone.angles), cone.crease_ids) for cone in cones.values()]

    if crease_order is not None:
        order = list(crease_order)
        if sorted(order) != sorted(cp.creases):
            raise ValueError("crease_order must be a permutation of the creases")
        return order, _plan(vertex_checks, order)
    plans = []
    for axis in (0, 1):
        swept = sorted(cones, key=lambda v: (cp.vertices[v][axis], cp.vertices[v][1 - axis]))
        order = list(dict.fromkeys([c for v in swept for c in cones[v].crease_ids]
                                   + sorted(cp.creases)))
        plans.append((order, _plan(vertex_checks, order)))
    return min(plans, key=lambda op: frontier_width(op[1]))


def _plan(vertex_checks: list, order: list[str]) -> list:
    """The plan over ``order``: the crease that completes a vertex checks
    it against the vertex's crimp schedule, reading the vertex's other
    creases. ``vertex_checks`` pairs each vertex's schedule with its
    creases."""
    pos = {c: i for i, c in enumerate(order)}
    checks_at: list[list] = [[] for _ in order]
    for sched, creases in vertex_checks:
        idxs = [pos[c] for c in creases]
        checks_at[max(idxs)].append((sched, idxs))
    plan = []
    for i, checks in enumerate(checks_at):
        reads = sorted({k for _, idxs in checks for k in idxs} - {i})
        place = {k: j for j, k in enumerate(reads + [i])}
        checks = [(sched, [place[k] for k in idxs]) for sched, idxs in checks]
        plan.append((reads, partial(_crease_values, checks)))
    return plan


def _crease_values(checks: list, vals: tuple[int, ...]) -> list[int]:
    """The ``allowed`` rule of a crease that completes the vertices of
    ``checks``: value 0 (mountain, +1) or 1 (valley, -1), whichever passes
    each vertex's crimp schedule. A check lists the places of its vertex's
    creases in ``vals`` followed by the crease's own value."""
    signs = [1 - 2 * v for v in vals]
    out = []
    for x, sign in ((0, 1), (1, -1)):
        signs.append(sign)
        for sched, places in checks:
            if not _check_values(sched, [signs[j] for j in places]):
                break
        else:
            out.append(x)
        signs.pop()
    return out


def _first_assignments(cp: CreasePattern, cap: int,
                       crease_order: list[str] | None = None):
    """The search plan's crease order; the first ``cap`` assignments of
    its depth-first search, which stops at assignment ``cap + 1``, each as
    ``bytes`` with one value per crease in that order (0 = mountain, 1 =
    valley); the count (then from the frontier DP); and whether the cap
    was passed."""
    order, plan = _search_plan(cp, crease_order)
    cap = max(cap, 0)
    found = list(map(bytes, islice(depth_first(plan), cap + 1)))
    capped = len(found) > cap
    if capped:
        found.pop()
    return order, found, frontier_count(plan) if capped else len(found), capped


def enumerate_locally_valid(cp: CreasePattern, cap: int = 10000,
                            crease_order: list[str] | None = None) -> LocalValidityReport:
    """Exact count plus the first ``cap`` witness assignments.

    Witnesses come in depth-first order over the search plan's crease
    order, the vertex sweep of ``_search_plan`` unless ``crease_order`` is
    given, each crease trying 1 before -1: one dict per assignment key of
    ``_first_assignments``, the search ``verify_bijection`` keys by too.
    The search stops once it finds assignment ``cap + 1``; then
    ``cap_exceeded`` is set and ``count`` comes from the frontier DP of
    ``count_locally_valid`` (without its crease limit). Otherwise ``count``
    is the number of witnesses found.
    """
    order, found, count, capped = _first_assignments(cp, cap, crease_order)
    witnesses = [{c: 1 - 2 * v for c, v in zip(order, key)} for key in found]
    return LocalValidityReport(count=count, witnesses=witnesses, cap_exceeded=capped)


def count_locally_valid(cp: CreasePattern, limit: int | None = None,
                        crease_order: list[str] | None = None) -> int:
    """Exact |M(cp)| without materializing witnesses, by the frontier DP
    of ``search.frontier_count``. Raises LimitExceeded above the crease
    limit (``limit``, else ``FLATFOLD_BRUTE_LIMIT``, else 40), or when
    ``FLATFOLD_BRUTE_LIMIT`` is not an integer."""
    n = len(cp.creases)
    lim = _brute_limit(limit)
    if n > lim:
        raise LimitExceeded(f"{n} creases exceed the brute-force limit {lim}")
    return frontier_count(_search_plan(cp, crease_order)[1])


def is_locally_valid(cp: CreasePattern, mv: MVAssignment) -> bool:
    """Restriction of the assignment to every vertex folds flat."""
    from .single_vertex import is_valid_single_vertex
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not is_valid_single_vertex(cone, mv):
            return False
    return True
