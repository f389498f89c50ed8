"""Single-vertex flat-foldability: Kawasaki, Maekawa, the big-little-big
condition, the crimp recursion, validity checking, counting and enumeration.

Conventions (used consistently across the library):

* ``j`` is the number of equal angles in a local-minimum run; the run is
  bordered by ``j + 1`` creases.
* For even ``j`` the crimp keeps one bordering crease, the run's
  ``MinRun.survivor`` (its first); its value in the smaller cone is the
  majority value of the run creases.
* The recursion never re-checks Kawasaki after a crimp; the initial test
  is inherited through the cone states.
* The crimp schedule (``_schedule``, cached per scaled angle tuple) is
  the crimp trace of the cone's angle shape with its creases named by
  position, so one record of the recursion serves every reader: the
  validity check, the count, the enumeration and niceness read its runs
  and terminal, and the SAW construction walks the intermediate cones of
  a named cone's ``crimp_trace``.
  The validity check's walk (``_check_values``) counts the completions
  of the values it is given, a value 0 being summed out, so the oracle's
  tables read it for whole cones and for cones with creases summed out
  alike; only the enumeration, whose output is its rows, lifts through
  the schedule (``_lift``).
* Kawasaki's test, the minimal runs and the crimp recursion read each
  cone's integer-scaled angles (``ConeVertex.scaled``): its angles times
  the lcm of their denominators, a crimped cone keeping the scale of the
  cone it came from. A uniform positive scale keeps every equality, order
  and zero sum, so the answers are those of the exact Fractions. The
  Fractions stay the public values: a crimped cone's Fraction angles are
  computed alongside its ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, gcd

from .cp import ConeVertex, MVAssignment
from .errors import (
    AllAnglesEqual,
    CapExceeded,
    InvalidAssignment,
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

    @property
    def survivor(self) -> str | None:
        """The crease the crimp keeps: an even run's first bordering
        crease, else None (an odd run's crimp keeps none)."""
        return None if self.j % 2 else self.creases[0]


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
    a = cone.scaled
    return len(a) % 2 == 0 and sum(a[::2]) == sum(a[1::2])


def maekawa_check(mv_values) -> bool:
    """Sum of +-1 values is +2 or -2."""
    return abs(sum(mv_values)) == 2


def blb_condition(j: int, mv_values) -> bool:
    """Validity of the j+1 crease values around a run of j equal angles.

    Sum zero when j is odd (even crease count), +-1 when j is even.
    """
    if len(mv_values) != j + 1:
        raise InvalidAssignment(f"expected {j + 1} values, got {len(mv_values)}")
    s = sum(mv_values)
    return s == 0 if j % 2 == 1 else abs(s) == 1


def find_min_runs(cone: ConeVertex) -> list[MinRun]:
    """All maximal runs of equal angles strictly smaller than both neighbours."""
    if len(set(cone.scaled)) == 1:
        raise AllAnglesEqual("all sector angles are equal")
    return [_run(cone, start, j) for start, j in _min_runs(cone.scaled)]


def _min_runs(a: tuple[int, ...]) -> list[tuple[int, int]]:
    """(start, j) of each minimal run of the angles a, not all equal, by start."""
    n = len(a)
    i = 0
    while a[i - 1] == a[i]:
        i -= 1  # negative indexing walks back over a wrapping run
    runs = []
    end = i + n
    while i < end:
        x = a[i % n]
        j = 1
        while a[(i + j) % n] == x:
            j += 1
        if a[(i - 1) % n] > x < a[(i + j) % n]:
            runs.append((i % n, j))
        i += j
    runs.sort()
    return runs


def _run(cone: ConeVertex, start: int, j: int) -> MinRun:
    """The run of j angles from ``start``, with its j + 1 bordering creases."""
    ids = cone.crease_ids
    n = len(ids)
    return MinRun(start=start, j=j, creases=tuple(ids[(start + k) % n] for k in range(j + 1)))


def _crimp(cone: ConeVertex, run: MinRun) -> ConeVertex:
    """The smaller cone once the run is folded away (see ``crimp``); the
    same steps give its Fraction angles and its scaled angles."""
    j = run.j
    if j >= cone.degree - 1:
        raise InvalidRun("run neighbours coincide; cone is not flat-foldable")
    k = (run.start - 1) % cone.degree  # rotated so the run starts at 1
    angles, scaled, ids = (t[k:] + t[:k] for t in (cone.angles, cone.scaled, cone.crease_ids))
    if j % 2 == 1:
        return ConeVertex._of((angles[0] - angles[1] + angles[j + 1],) + angles[j + 2:],
                              ids[:1] + ids[j + 2:],
                              (scaled[0] - scaled[1] + scaled[j + 1],) + scaled[j + 2:])
    return ConeVertex._of(angles[:1] + angles[j + 1:], ids[:2] + ids[j + 2:],
                          scaled[:1] + scaled[j + 1:])


def crimp(cone: ConeVertex, run: MinRun) -> ConeVertex:
    """Fold away a local-minimum run, producing the smaller cone.

    Odd j: the run and both neighbours merge into prev - run + next and all
    j+1 bordering creases disappear. Even j: the run angles and the last j
    bordering creases disappear; the first bordering crease survives
    between the unchanged neighbours.
    """
    if run not in find_min_runs(cone):
        raise InvalidRun(f"{run} is not a minimal run of this cone")
    return _crimp(cone, run)


def crimp_trace(cone: ConeVertex) -> CrimpTrace:
    """Run the deterministic recursion (first MinRun each time) to the base."""
    steps = []
    cur = cone
    while len(set(cur.scaled)) > 1:
        run = _run(cur, *_min_runs(cur.scaled)[0])
        cur = _crimp(cur, run)
        steps.append(CrimpStep(run=run, result=cur))
    return CrimpTrace(start=cone, steps=tuple(steps))


def niceness(cone: ConeVertex):
    """Largest run length in the crimp schedule, or ALL_EQUAL.

    A vertex is 3-nice iff the returned value is an int <= 3.
    """
    if not kawasaki_check(cone):
        raise KawasakiViolation(message="niceness needs a Kawasaki-valid cone")
    j = _schedule(cone.scaled).max_j
    return ALL_EQUAL if j is None else j


# -- the crimp schedule -------------------------------------------------------

@lru_cache(maxsize=4096)
def _schedule(scaled: tuple[int, ...]) -> CrimpTrace:
    """The crimp trace of the cone with angles ``scaled`` over their gcd
    and its creases named by position (0, 1, ...), so each run's and the
    terminal's creases are positions into the original crease tuple.

    The recursion depends on the angles only up to a uniform scale and not
    on crease names, so proportional cones share one trace and the cache
    per scaled angle tuple keeps brute-force loops fast: checking one
    assignment is then O(degree) integer work."""
    g = gcd(*scaled)
    return crimp_trace(ConeVertex(tuple([a // g for a in scaled]), tuple(range(len(scaled)))))


def _check_values(sched: CrimpTrace, vals: list[int]) -> int:
    """How many ways the creases whose value is 0 in ``vals`` (+-1 or 0 per
    crease, in crease order) can take +-1 values that pass the crimp
    schedule ``sched``: 1 or 0 when every value is given.

    A run's creases must sum to 0 (odd j) or to +-1 (even j), and the
    terminal's, walked as a last step of j = 0, to +-2. Where a step's
    given values sum to s, its f free creases meet a sum t in
    C(f, (f + t - s)/2) ways. An even run writes its sum onto its
    ``survivor``, so the walk branches on that sum, copying ``vals``, only
    where a free crease leaves it open; otherwise ``vals`` is written to."""
    branches = [(vals, 1)]
    steps = [(s.run.creases, s.run.j, s.run.survivor) for s in sched.steps]
    for idxs, j, survivor in steps + [(sched.terminal.crease_ids, 0, None)]:
        out = []
        for vals, n in branches:
            got = [vals[i] for i in idxs]
            s, free = sum(got), got.count(0)
            for t in (2, -2) if not j else (0,) if survivor is None else (1, -1):
                h, odd = divmod(free + t - s, 2)
                if not odd and h >= 0 and (k := comb(free, h)):
                    if survivor is not None:
                        vals = vals.copy() if free else vals
                        vals[survivor] = t
                    out.append((vals, n * k))
        branches = out
    return sum(n for _, n in branches)


def is_valid_single_vertex(cone: ConeVertex, mv: MVAssignment) -> bool:
    """Does the assignment fold this vertex flat?

    Recursion: check the big-little-big condition at the first minimal run,
    write the majority onto the survivor for even runs, crimp, repeat; the
    all-equal base is Maekawa's theorem.
    """
    if not kawasaki_check(cone):
        raise KawasakiViolation(message="cone fails the Kawasaki test")
    sched = _schedule(cone.scaled)
    vals = [mv.get(c) for c in cone.crease_ids]
    if any(v not in (1, -1) for v in vals):
        raise InvalidAssignment("assignment values must be +-1")
    return bool(_check_values(sched, vals))


def count_single_vertex_mv(cone: ConeVertex) -> int:
    """|M(cone)| in linear time, read off the crimp schedule.

    The all-equal base of degree n2 contributes 2*C(n2, n2/2 - 1); each
    crimp of a run of j equal angles multiplies by C(j+1, (j+1)//2), the
    number of its crease vectors summing to 0 (odd j) or to a given +-1
    (even j).
    """
    if not kawasaki_check(cone):
        raise KawasakiViolation(message="cone fails the Kawasaki test")
    sched = _schedule(cone.scaled)
    n2 = sched.terminal.degree
    total = 2 * comb(n2, n2 // 2 - 1)
    for step in sched.steps:
        total *= comb(step.run.j + 1, (step.run.j + 1) // 2)
    return total


def _lift(sched: CrimpTrace, degree: int) -> list[list[int]]:
    """Every valid assignment of a cone of ``degree`` creases with crimp
    schedule ``sched``, as a list of +-1 values in crease order.

    Lifts the base Maekawa vectors back through the crimp schedule: each
    run's j+1 creases take every +-1 vector summing to 0 (odd j) or to
    the value of its ``survivor`` (even j), so there are always
    count_single_vertex_mv rows.
    """
    rows = [[0] * degree]
    # the base's Maekawa vectors first, then the runs, last crimp first
    lifts = [(sched.terminal.crease_ids, None, (2, -2))]
    lifts += [(s.run.creases, s.run.survivor, None) for s in reversed(sched.steps)]
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
    return rows


def enumerate_single_vertex_mv(cone: ConeVertex, cap: int = 1 << 20) -> list[MVAssignment]:
    """Materialize the valid assignments, sorted by their values in
    sorted crease-id order.

    The rows are ``_lift``'s, so |result| always equals
    count_single_vertex_mv.
    """
    total = count_single_vertex_mv(cone)
    if total > cap:
        raise CapExceeded(f"{total} assignments exceed cap {cap}")
    rows = _lift(_schedule(cone.scaled), cone.degree)
    ids = cone.crease_ids
    by_id = sorted(range(cone.degree), key=ids.__getitem__)
    rows.sort(key=lambda row: [row[i] for i in by_id])
    return [dict(zip(ids, row)) for row in rows]
