"""Ground truth over whole crease patterns, independent of SAW graphs.

The crease search is a plan of ``search``: creases are assigned in a
vertex-clustered order, and the crease that completes an interior vertex
reads that vertex's other creases and takes only the values that pass its
single-vertex crimp schedule. ``count_locally_valid`` runs the plan through
the frontier DP ``search.frontier_count``, so its cost follows the frontier
width, not the count; ``enumerate_locally_valid`` runs it through the
depth-first generator ``search.depth_first``, materializes witnesses and
stops past its cap, leaving the count to the same DP. Counts are exact
Python ints (arbitrary precision).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

from .cp import CreasePattern, MVAssignment, cone_at
from .errors import KawasakiViolation, LimitExceeded
from .single_vertex import (
    _check_values,
    _schedule,
    count_single_vertex_mv,
    kawasaki_check,
)
from .search import depth_first, frontier_count

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
    per_vertex_counts: dict[str, int]
    cap_exceeded: bool = False


def _search_plan(cp: CreasePattern, crease_order: list[str] | None = None):
    """The crease search as a plan of ``search``: the crease order, the
    plan (a crease reads the other creases of the vertices it completes),
    and the cone of each interior vertex."""
    cones = {}
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not kawasaki_check(cone):
            raise KawasakiViolation(vertex=v)
        cones[v] = cone

    if crease_order is None:
        # each vertex's creases in turn, then the creases no vertex has
        order = list(dict.fromkeys([c for cone in cones.values() for c in cone.crease_ids]
                                   + sorted(cp.creases)))
    else:
        order = list(crease_order)
        if sorted(order) != sorted(cp.creases):
            raise ValueError("crease_order must be a permutation of the creases")

    pos = {c: i for i, c in enumerate(order)}
    checks_at: list[list] = [[] for _ in order]
    for cone in cones.values():
        idxs = [pos[c] for c in cone.crease_ids]
        checks_at[max(idxs)].append((_schedule(cone.angles), idxs))
    plan = []
    for i, checks in enumerate(checks_at):
        reads = sorted({k for _, idxs in checks for k in idxs} - {i})
        plan.append((reads, partial(_crease_values, checks, reads + [i])))
    return order, plan, cones


def _crease_values(checks: list, at: list[int], vals: tuple[int, ...]) -> list[int]:
    """The ``allowed`` rule of a crease that completes the vertices of
    ``checks``: value 0 (mountain, +1) or 1 (valley, -1), whichever passes
    each vertex's crimp schedule. ``at`` lists the positions of the read
    creases, then the crease's own."""
    out = []
    for x in (0, 1):
        mv = {k: 1 - 2 * v for k, v in zip(at, vals + (x,))}
        if all(_check_values(sched, [mv[k] for k in idxs]) for sched, idxs in checks):
            out.append(x)
    return out


def enumerate_locally_valid(cp: CreasePattern, cap: int = 10000,
                            crease_order: list[str] | None = None) -> LocalValidityReport:
    """Exact count plus the first ``cap`` witness assignments.

    Witnesses come in depth-first order over the search plan's crease
    order, each crease trying 1 before -1, from ``search.depth_first``.
    The search stops once it finds assignment ``cap + 1``; then
    ``cap_exceeded`` is set and ``count`` comes from the frontier DP of
    ``count_locally_valid`` (without its crease limit). Otherwise ``count``
    is the number of witnesses found.
    """
    order, plan, cones = _search_plan(cp, crease_order)
    witnesses: list[MVAssignment] = []
    capped = False
    for vals in depth_first(plan):
        if len(witnesses) >= cap:
            capped = True
            break
        witnesses.append({c: 1 - 2 * v for c, v in zip(order, vals)})
    count = frontier_count(plan) if capped else len(witnesses)
    per_vertex = {v: count_single_vertex_mv(c) for v, c in cones.items()}
    return LocalValidityReport(count=count, witnesses=witnesses,
                               per_vertex_counts=per_vertex, cap_exceeded=capped)


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
