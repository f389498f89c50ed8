"""Ground truth over whole crease patterns, independent of SAW graphs.

The crease search is a plan of ``search``: creases are assigned in one
order, a vertex sweep (``_search_plan``), and the crease that completes an
interior vertex reads that vertex's other creases and takes only the
values that pass its single-vertex crimp schedule. A value is a color
step (``cp.STEP_OF_MV``): 1 for mountain, 2 for valley.
``count_locally_valid`` runs the plan through the frontier DP
``search.frontier_count``, so its cost follows the frontier width, not
the count. ``_first_assignments`` runs it through ``search.depth_first``
and stops past its cap, leaving the count to the DP; it keeps each
assignment as ``bytes``, one step per crease in search order.
``enumerate_locally_valid`` turns those keys into witness dicts, and
``coloring.verify_bijection`` uses them as its assignment keys as they
are. Counts are exact Python ints (arbitrary precision).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import islice

from .cp import MV_OF_STEP, ConeVertex, CreasePattern, MVAssignment, cone_at
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
    """The crease search as a plan of ``search``: the crease order and the
    plan (a crease reads the other creases of the vertices it completes).

    The order is a vertex sweep: the interior vertices sorted by exact
    coordinate, x then y or y then x, each vertex's ``ccw_creases`` in
    turn, then the creases no vertex has. Of the two axes, the one whose
    plan has the smaller ``search.frontier_width`` wins, x on a tie, so
    the frontier is one row of vertices across the narrower side of the
    pattern."""
    cones = _cones(cp)
    plans = []
    for axis in (0, 1):
        swept = sorted(cones, key=lambda v: (cp.vertices[v][axis], cp.vertices[v][1 - axis]))
        order = list(dict.fromkeys([c for v in swept for c in cones[v].crease_ids]
                                   + sorted(cp.creases)))
        plans.append((order, _plan(cones, order)))
    return min(plans, key=lambda op: frontier_width(op[1]))


def _plan(cones: dict[str, ConeVertex], order: list[str]) -> list:
    """The plan over ``order``, which lists every crease once: the crease
    that completes a vertex of ``cones`` checks it against the vertex's
    crimp schedule, reading the vertex's other creases."""
    pos = {c: i for i, c in enumerate(order)}
    checks_at: list[list] = [[] for _ in order]
    for cone in cones.values():
        idxs = [pos[c] for c in cone.crease_ids]
        checks_at[max(idxs)].append((_schedule(cone.angles), idxs))
    plan = []
    for i, checks in enumerate(checks_at):
        reads = sorted({k for _, idxs in checks for k in idxs} - {i})
        place = {k: j for j, k in enumerate(reads + [i])}
        checks = [(sched, [place[k] for k in idxs]) for sched, idxs in checks]
        plan.append((reads, partial(_crease_values, checks)))
    return plan


def _crease_values(checks: list, vals: tuple[int, ...]) -> list[int]:
    """The ``allowed`` rule of a crease that completes the vertices of
    ``checks``: step 1 (mountain) or 2 (valley), whichever passes each
    vertex's crimp schedule. A check lists the places of its vertex's
    creases in ``vals`` followed by the crease's own step."""
    signs = [MV_OF_STEP[v] for v in vals]
    out = []
    for step in (1, 2):
        signs.append(MV_OF_STEP[step])
        for sched, places in checks:
            if not _check_values(sched, [signs[j] for j in places]):
                break
        else:
            out.append(step)
        signs.pop()
    return out


def _first_assignments(cp: CreasePattern, cap: int):
    """The search plan's crease order; the first ``cap`` assignments of
    its depth-first search, which stops at assignment ``cap + 1``, each as
    ``bytes`` with one step per crease in that order (1 = mountain, 2 =
    valley); and the count, from the frontier DP once the cap is passed.
    The cap is passed exactly when the count exceeds ``max(cap, 0)``."""
    order, plan = _search_plan(cp)
    cap = max(cap, 0)
    found = list(map(bytes, islice(depth_first(plan), cap + 1)))
    count = len(found) if len(found) <= cap else frontier_count(plan)
    del found[cap:]
    return order, found, count


def enumerate_locally_valid(cp: CreasePattern, cap: int = 10000) -> LocalValidityReport:
    """Exact count plus the first ``cap`` witness assignments.

    Witnesses come in depth-first order over the vertex sweep of
    ``_search_plan``, each crease trying step 1 (mountain, +1) before
    step 2 (valley, -1): one dict per assignment key of
    ``_first_assignments``, the keys ``verify_bijection`` uses too, its
    steps read through ``cp.MV_OF_STEP``. The search stops once it finds
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
    return frontier_count(_search_plan(cp)[1])


def is_locally_valid(cp: CreasePattern, mv: MVAssignment) -> bool:
    """Restriction of the assignment to every vertex folds flat."""
    from .single_vertex import is_valid_single_vertex
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not is_valid_single_vertex(cone, mv):
            return False
    return True
