"""Single-vertex flat-foldability: Kawasaki, Maekawa, the big-little-big
condition, the crimp recursion, validity checking, counting and enumeration.

Conventions (used consistently across the library):

* ``j`` is the number of equal angles in a local-minimum run; the run is
  bordered by ``j + 1`` creases.
* For even ``j`` the crimp keeps the first bordering crease as the
  survivor; its value in the smaller cone is the majority value of the
  run creases.
* The recursion never re-checks Kawasaki after a crimp; the initial test
  is inherited through the cone states.
* The validity check, the count, the enumeration and niceness all read
  the crimp schedule (``_schedule``, cached per angle tuple); only the
  SAW construction walks the intermediate cones of ``crimp_trace``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb

from .cp import Angle, ConeVertex, MVAssignment
from .errors import (
    AllAnglesEqual,
    CapExceeded,
    InvalidRun,
    KawasakiViolation,
)

#: marker returned by niceness() for cones whose angles are all equal
ALL_EQUAL = "all-equal"


@dataclass(frozen=True)
class MinRun:
    """A maximal run of equal sector angles strictly below both neighbours."""

    start: int                 # index into the cyclic angle list
    j: int                     # number of equal angles
    creases: tuple[str, ...]   # the j+1 bordering crease ids


@dataclass(frozen=True)
class CrimpStep:
    run: MinRun
    result: ConeVertex


@dataclass(frozen=True)
class CrimpTrace:
    """The deterministic crimp recursion of a cone down to its all-equal base."""

    start: ConeVertex
    steps: tuple[CrimpStep, ...]

    @property
    def terminal(self) -> ConeVertex:
        return self.steps[-1].result if self.steps else self.start

    @property
    def max_j(self) -> int | None:
        return max((s.run.j for s in self.steps), default=None)


def kawasaki_check(cone: ConeVertex) -> bool:
    """Even degree and alternating angle sum exactly zero."""
    n = cone.degree
    if n % 2 != 0:
        return False
    s = Fraction(0)
    for i, a in enumerate(cone.angles):
        s += a if i % 2 == 0 else -a
    return s == 0


def maekawa_check(mv_values) -> bool:
    """Sum of +-1 values is +2 or -2."""
    return abs(sum(mv_values)) == 2


def blb_condition(j: int, mv_values) -> bool:
    """Validity of the j+1 crease values around a run of j equal angles.

    Sum zero when j is odd (even crease count), +-1 when j is even.
    """
    if len(mv_values) != j + 1:
        raise ValueError(f"expected {j + 1} values, got {len(mv_values)}")
    s = sum(mv_values)
    return s == 0 if j % 2 == 1 else abs(s) == 1


def find_min_runs(cone: ConeVertex) -> list[MinRun]:
    """All maximal runs of equal angles strictly smaller than both neighbours."""
    angles = cone.angles
    n = cone.degree
    if len(set(angles)) == 1:
        raise AllAnglesEqual("all sector angles are equal")
    runs = []
    i = 0
    # walk maximal equal runs starting from a position where a run begins
    start0 = 0
    while angles[start0 - 1] == angles[start0]:
        start0 -= 1  # negative indexing walks back over a wrapping run
    start0 %= n
    i = start0
    seen = 0
    while seen < n:
        j = 1
        while angles[(i + j) % n] == angles[i % n] and j < n:
            j += 1
        prev = angles[(i - 1) % n]
        nxt = angles[(i + j) % n]
        if prev > angles[i % n] and nxt > angles[i % n]:
            creases = tuple(cone.crease_ids[(i + k) % n] for k in range(j + 1))
            runs.append(MinRun(start=i % n, j=j, creases=creases))
        i += j
        seen += j
    runs.sort(key=lambda r: r.start)
    return runs


def crimp(cone: ConeVertex, run: MinRun) -> ConeVertex:
    """Fold away a local-minimum run, producing the smaller cone.

    Odd j: the run and both neighbours merge into prev - run + next and all
    j+1 bordering creases disappear. Even j: the run angles and the last j
    bordering creases disappear; the first bordering crease survives
    between the unchanged neighbours.
    """
    n = cone.degree
    runs = find_min_runs(cone)
    if run not in runs:
        raise InvalidRun(f"{run} is not a minimal run of this cone")
    if run.j >= n - 1:
        raise InvalidRun("run neighbours coincide; cone is not flat-foldable")
    # rotate so the run starts at index 1; then nothing wraps
    rot = cone.rotated((run.start - 1) % n)
    angles = list(rot.angles)
    ids = list(rot.crease_ids)
    j = run.j
    if j % 2 == 1:
        merged = angles[0] - angles[1] + angles[j + 1]
        new_angles = [merged] + angles[j + 2:]
        new_ids = [ids[0]] + ids[j + 2:]
    else:
        new_angles = [angles[0]] + angles[j + 1:]
        new_ids = ids[:2] + ids[j + 2:]
    return ConeVertex(tuple(new_angles), tuple(new_ids))


def crimp_trace(cone: ConeVertex) -> CrimpTrace:
    """Run the deterministic recursion (first MinRun each time) to the base."""
    steps = []
    cur = cone
    while len(set(cur.angles)) > 1:
        run = find_min_runs(cur)[0]
        cur = crimp(cur, run)
        steps.append(CrimpStep(run=run, result=cur))
    return CrimpTrace(start=cone, steps=tuple(steps))


def niceness(cone: ConeVertex):
    """Largest run length in the crimp schedule, or ALL_EQUAL.

    A vertex is 3-nice iff the returned value is an int <= 3.
    """
    if not kawasaki_check(cone):
        raise KawasakiViolation(message="niceness needs a Kawasaki-valid cone")
    if len(set(cone.angles)) == 1:
        return ALL_EQUAL
    return max(j for _, j, _ in _schedule(cone.angles).steps)


# -- fast validity schedule ---------------------------------------------------

@dataclass(frozen=True)
class _Schedule:
    """Positions, per crimp step, into the original crease tuple.

    Checking one assignment is O(degree) integer work. Positions do not
    depend on crease names, so the schedule is cached per angle tuple and
    brute-force loops stay fast.
    """

    steps: tuple[tuple[tuple[int, ...], int, int | None], ...]
    terminal_idx: tuple[int, ...]


@lru_cache(maxsize=4096)
def _schedule(angles: tuple[Angle, ...]) -> _Schedule:
    # the positions themselves serve as crease labels
    trace = crimp_trace(ConeVertex(angles, tuple(range(len(angles)))))
    steps = []
    for st in trace.steps:
        run = st.run
        steps.append((run.creases, run.j, run.creases[0] if run.j % 2 == 0 else None))
    return _Schedule(steps=tuple(steps), terminal_idx=trace.terminal.crease_ids)


def _check_values(sched: _Schedule, vals: list[int]) -> bool:
    for idxs, j, survivor in sched.steps:
        s = 0
        for i in idxs:
            s += vals[i]
        if j % 2 == 1:
            if s != 0:
                return False
        else:
            if s not in (1, -1):
                return False
            vals[survivor] = s
    t = 0
    for i in sched.terminal_idx:
        t += vals[i]
    return abs(t) == 2


def is_valid_single_vertex(cone: ConeVertex, mv: MVAssignment) -> bool:
    """Does the assignment fold this vertex flat?

    Recursion: check the big-little-big condition at the first minimal run,
    write the majority onto the survivor for even runs, crimp, repeat; the
    all-equal base is Maekawa's theorem.
    """
    if not kawasaki_check(cone):
        raise KawasakiViolation(message="cone fails the Kawasaki test")
    sched = _schedule(cone.angles)
    vals = [mv.get(c) for c in cone.crease_ids]
    if any(v not in (1, -1) for v in vals):
        raise ValueError("assignment values must be +-1")
    return _check_values(sched, vals)


def count_single_vertex_mv(cone: ConeVertex) -> int:
    """|M(cone)| in linear time, read off the crimp schedule.

    The all-equal base of degree n2 contributes 2*C(n2, n2/2 - 1); each
    crimp of a run of j equal angles multiplies by C(j+1, (j+1)//2), the
    number of its crease vectors summing to 0 (odd j) or to a given +-1
    (even j).
    """
    if not kawasaki_check(cone):
        raise KawasakiViolation(message="cone fails the Kawasaki test")
    sched = _schedule(cone.angles)
    n2 = len(sched.terminal_idx)
    total = 2 * comb(n2, n2 // 2 - 1)
    for _, j, _ in sched.steps:
        total *= comb(j + 1, (j + 1) // 2)
    return total


def enumerate_single_vertex_mv(cone: ConeVertex, cap: int = 1 << 20) -> list[MVAssignment]:
    """Materialize the valid assignments, sorted by their values in
    sorted crease-id order.

    Lifts the base Maekawa vectors back through the crimp schedule: each
    run's j+1 positions take every +-1 vector summing to 0 (odd j) or to
    the survivor's value (even j), so |result| always equals
    count_single_vertex_mv.
    """
    total = count_single_vertex_mv(cone)
    if total > cap:
        raise CapExceeded(f"{total} assignments exceed cap {cap}")
    sched = _schedule(cone.angles)
    rows = [[0] * cone.degree]
    # the base's Maekawa vectors first, then the runs, last crimp first
    lifts = [(sched.terminal_idx, None, (2, -2))]
    lifts += [(idxs, survivor, None) for idxs, _, survivor in reversed(sched.steps)]
    for idxs, survivor, sums in lifts:
        lifted = []
        for row in rows:
            want = sums or (0 if survivor is None else row[survivor],)
            for vals in product((1, -1), repeat=len(idxs)):
                if sum(vals) in want:
                    new = row.copy()
                    for i, v in zip(idxs, vals):
                        new[i] = v
                    lifted.append(new)
        rows = lifted
    ids = cone.crease_ids
    by_id = sorted(range(cone.degree), key=ids.__getitem__)
    rows.sort(key=lambda row: [row[i] for i in by_id])
    return [dict(zip(ids, row)) for row in rows]
