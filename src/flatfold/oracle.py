"""Ground truth over whole crease patterns, independent of SAW graphs.

Both searches assign crease values in a vertex-clustered order and check an
interior vertex with its single-vertex crimp schedule once all its creases
are assigned. ``count_locally_valid`` is a frontier DP that keeps only the
values of creases an unchecked vertex still needs, so its cost follows the
frontier width, not the count; ``enumerate_locally_valid`` is a depth-first
search that materializes witnesses and stops past its cap, leaving the count
to the same DP. Counts are exact Python ints (arbitrary precision).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .cp import CreasePattern, MVAssignment, cone_at
from .errors import KawasakiViolation, LimitExceeded
from .single_vertex import (
    _check_values,
    _schedule,
    count_single_vertex_mv,
    kawasaki_check,
)

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
    """Crease assignment order plus per-position vertex-completion checks."""
    cones = {}
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not kawasaki_check(cone):
            raise KawasakiViolation(vertex=v)
        cones[v] = cone

    if crease_order is None:
        order: list[str] = []
        placed = set()
        for v in cp.interior_vertex_ids():
            for c in cones[v].crease_ids:
                if c not in placed:
                    placed.add(c)
                    order.append(c)
        for c in sorted(cp.creases):
            if c not in placed:
                placed.add(c)
                order.append(c)
    else:
        order = list(crease_order)
        if sorted(order) != sorted(cp.creases):
            raise ValueError("crease_order must be a permutation of the creases")

    pos = {c: i for i, c in enumerate(order)}
    checks_at: list[list] = [[] for _ in order]
    for v, cone in cones.items():
        sched = _schedule(cone.angles, cone.crease_ids)
        idxs = [pos[c] for c in cone.crease_ids]
        checks_at[max(idxs)].append((sched, idxs))
    return order, checks_at, cones


def enumerate_locally_valid(cp: CreasePattern, cap: int = 10000,
                            crease_order: list[str] | None = None) -> LocalValidityReport:
    """Exact count plus the first ``cap`` witness assignments.

    Witnesses come in depth-first order over the search plan's crease
    order, each crease trying 1 before -1. The search runs on an explicit
    stack and stops once it finds assignment ``cap + 1``; then
    ``cap_exceeded`` is set and ``count`` comes from the frontier DP of
    ``count_locally_valid`` (without its crease limit). Otherwise ``count``
    is the number of witnesses found.
    """
    order, checks_at, cones = _search_plan(cp, crease_order)
    n = len(order)
    count = 0
    witnesses: list[MVAssignment] = []
    capped = False
    if n == 0:
        count = 1
        witnesses = [{}]
    else:
        vals = [0] * n      # 0: position not tried yet
        i = 0
        while i >= 0:
            if vals[i] == -1:   # both values tried: back up
                vals[i] = 0
                i -= 1
                continue
            vals[i] = 1 if vals[i] == 0 else -1
            if all(_check_values(sched, [vals[k] for k in idxs])
                   for sched, idxs in checks_at[i]):
                if i + 1 < n:
                    i += 1
                elif count < cap:
                    count += 1
                    witnesses.append(dict(zip(order, vals)))
                else:
                    capped = True
                    break
        if capped:
            count = _frontier_count(checks_at)
    per_vertex = {v: count_single_vertex_mv(c) for v, c in cones.items()}
    return LocalValidityReport(count=count, witnesses=witnesses,
                               per_vertex_counts=per_vertex, cap_exceeded=capped)


def count_locally_valid(cp: CreasePattern, limit: int | None = None,
                        crease_order: list[str] | None = None) -> int:
    """Exact |M(cp)| without materializing witnesses, by the frontier DP
    of ``_frontier_count``. Raises LimitExceeded above the crease limit
    (``limit``, else ``FLATFOLD_BRUTE_LIMIT``, else 40), or when
    ``FLATFOLD_BRUTE_LIMIT`` is not an integer."""
    n = len(cp.creases)
    lim = _brute_limit(limit)
    if n > lim:
        raise LimitExceeded(f"{n} creases exceed the brute-force limit {lim}")
    _, checks_at, _ = _search_plan(cp, crease_order)
    return _frontier_count(checks_at)


def _frontier_count(checks_at: list[list]) -> int:
    """Number of assignments that pass every check of a search plan.

    Frontier DP over the plan's crease order: the state packs the values
    of the placed creases that some unchecked vertex still needs into an
    int, one bit per slot (set for valley), and maps to the number of
    assignments of the placed creases that pass every completed vertex and
    leave the frontier so. A crease's slot is freed after its last vertex
    check.
    """
    n = len(checks_at)
    # position of each checked crease's last check
    last = {k: i for i, checks in enumerate(checks_at) for _, idxs in checks for k in idxs}
    slot: dict[int, int] = {}   # frontier crease position -> bit shift
    free: list[int] = []
    states = {0: 1}
    for i in range(n):
        if i not in last:
            continue            # no vertex constrains it: counted at the end
        slot[i] = free.pop() if free else len(slot)
        bit = 1 << slot[i]
        # a vertex's verdict depends only on its creases' bits: memoize on them
        checks = [(sched, [slot[k] for k in idxs], sum(1 << slot[k] for k in idxs), {})
                  for sched, idxs in checks_at[i]]
        keep = -1
        for k in [k for k in slot if last[k] == i]:
            keep &= ~(1 << slot[k])
            free.append(slot.pop(k))
        new: dict[int, int] = {}
        for s, c in states.items():
            for t in (s, s | bit):
                for sched, shifts, mask, verdict in checks:
                    ok = verdict.get(t & mask)
                    if ok is None:
                        ok = verdict[t & mask] = _check_values(
                            sched, [-1 if t >> x & 1 else 1 for x in shifts])
                    if not ok:
                        break
                else:
                    new[t & keep] = new.get(t & keep, 0) + c
        states = new
    return sum(states.values()) << (n - len(last))


def is_locally_valid(cp: CreasePattern, mv: MVAssignment) -> bool:
    """Restriction of the assignment to every vertex folds flat."""
    from .single_vertex import is_valid_single_vertex
    for v in cp.interior_vertex_ids():
        cone = cone_at(cp, v)
        if not is_valid_single_vertex(cone, mv):
            return False
    return True
