"""One search engine for both of flatfold's search problems.

A *plan* is a list of positions in assignment order. Position i is a pair
``(reads, allowed)``: ``reads`` lists earlier positions, and
``allowed(vals)`` returns, in increasing order, the values that position
i may take when the positions in ``reads`` hold the tuple ``vals`` (0..3,
or wider in ``frontier_count``). A SAW-graph vertex reads its earlier
neighbours (``coloring``); a crease reads the other creases of the
vertices it completes (``oracle``). Both functions call ``allowed`` at most
once per position and distinct ``vals``. ``checked`` adds local tests to a
plan, each at the last place it reads, which then also reads the test's
other places. The oracle's one cone test (``oracle._cone_test``), which
reads a cone's table at its steps (the crimp schedule walk, which sums
the cone's unplaced creases out), is attached so to both crease plans
and to the round-trip certificate (``coloring._certificates``), with
that certificate's equal-step checks.

``allowed`` may list a value k times: ``frontier_count`` then counts the
assignments through it k times, as if each repeat were a value of its
own. The oracle's count plan does so, listing a crease's step once per
valid completion of the creases it sums out (a test of ``checked`` that
returns a count). ``depth_first`` is for plans without repeats, so it
never runs the count plan; it would list each such assignment k times.

Both of those plans are equivariant under sigma, the exchange of the
values 1 and 2 (0 and 3 stay): ``allowed`` of the sigma-image of ``vals``
is the sigma-image of ``allowed(vals)``. For colorings sigma swaps the
colors 1 and 2 and keeps the root's 0; for creases it is the
mountain-valley flip, under which every crimp schedule is symmetric. On a
wider value sigma acts on each 2-bit field, as on the two fields of a
pair of colorings (``coloring._certificates``).
``frontier_count(plan, swap=True)`` counts such a plan with one DP state
for each pair of states {s, sigma(s)}, as every count the library makes
does; ``swap=False`` is the plain reference. With repeats, the lists are
compared as multisets: the sigma-image of ``vals`` must list each value's
sigma-image as many times as ``vals`` lists the value.

A coloring plan whose first position is its root is also equivariant
under rho, the rotation of the colors 0, 1, 2 to 1, 2, 0, at every
position after the first: only the root's pin to 0 breaks it, and the
round-trip certificate's checks keep it, as they read only color
differences.
On a wider value rho turns the low 2-bit field alone: a pair of
colorings (``coloring._certificates``) holds the first color there and
the offset of the second from it above, which rotating both colorings
keeps.
``frontier_count(plan, swap=True, rotate=True)`` counts such a plan with
one DP state for each class of states under all six color permutations,
by keeping one live slot's low field at 0; ``coloring`` counts its
colorings and both certificates so. The crease plans keep the swap alone.

``reach`` is the graph search, breadth first, that answers what a node
reaches: whether a SAW graph is connected, whether a coloring plan's
crossing edges span it, the components of the interior graph and the face
regions a tiling splices through, and whether the clip order's next
vertex is a cut vertex (``tiling._is_cut``).
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from functools import partial
from operator import itemgetter

Plan = Sequence[tuple[Sequence[int], Callable[[tuple[int, ...]], Sequence[int]]]]


def reach(start: Hashable, nbrs: Callable[[Hashable], Iterable[Hashable]]) -> Iterator:
    """Yield each node reachable from ``start`` once, breadth first, as it
    is first found: ``start`` first, then the new nodes of ``nbrs(start)``
    in their order, and so on. ``nbrs`` is called once per node, in the
    order the nodes are yielded and only after the node itself has been,
    so a caller that stops early has driven the search only that far."""
    seen = {start}
    queue = [start]
    yield start
    for x in queue:             # the queue grows as the search reaches
        for y in nbrs(x):
            if y not in seen:
                seen.add(y)
                queue.append(y)
                yield y


def frontier_count(plan: Plan, bits: int = 2, swap: bool = False, rotate: bool = False) -> int:
    """Number of complete assignments of ``plan``, by a frontier DP: the
    state packs the values of the assigned positions that a later position
    still reads into an int, ``bits`` bits per slot (a value that does not
    fit raises ValueError), and maps to the number of assignments that
    leave the frontier so. A slot is freed after its last reader, so the
    cost follows the frontier width, not the count. A value that
    ``allowed`` lists k times adds each state's number k times, so the
    count takes it k times.

    ``swap`` is for a sigma-equivariant plan (module docstring) with even
    ``bits``: sigma acts on each 2-bit field of a state, exchanging 01 and
    10 and keeping 00 (a free slot, or the value 0) and 11. Each new state
    t is stored as the larger of t and sigma(t), so a state stands for its
    pair, and ``allowed`` is asked only of one state of each pair. The
    count stays exact because sigma maps the successors of s onto those of
    sigma(s), so both states of a pair lead to each pair equally often. On
    a plan that is not equivariant the count is wrong. Without ``swap``
    no field is swapped: sigma(t) is 0, never the larger.

    ``rotate`` is for a plan whose values have a low 2-bit field of 0..2
    (others raise ValueError) and that is rho-equivariant at every
    position after the first (module docstring). One live position, the
    pin, holds 0 in its low field in every state. Whenever some slot is
    live and the pin's is not, the pin moves to the live position read
    last, so it moves rarely, and at that position only each new state has
    the low field of every live slot rotated, by rho or rho squared, so
    that the pin's holds 0 before the sigma step, which keeps 0. So a
    state stands for its class under rho (and sigma), and the count stays
    exact as under ``swap``: the assignments after a state and after its
    rho-image correspond one to one, every later position commuting with
    rho."""
    last = {k: i for i, (reads, _) in enumerate(plan) for k in reads}
    mask = (1 << bits) - 1
    span = f"{bits} bits with a low field of 0..2" if rotate else f"{bits} bits"
    unit = mask // 3 if swap else 0   # 01 in each 2-bit field of a slot
    lo = 0                            # unit in every slot taken so far
    slot: dict[int, int] = {}   # frontier position -> bit shift of its value
    free: list[int] = []
    pin = -1                    # the position held at 0, once one is live
    states = {0: 1}
    for i, (reads, allowed) in enumerate(plan):
        shifts = [slot[k] for k in reads]
        read_mask = sum(mask << t for t in shifts)
        keep = -1
        for k in reads:
            if last[k] == i:
                keep &= ~(mask << slot[k])
                free.append(slot.pop(k))
        sh = None
        if i in last:
            if free:
                sh = free.pop()
            else:
                sh = bits * len(slot)
                lo |= unit << sh
            slot[i] = sh
        repin = rotate and pin not in slot and len(slot) > 0
        if repin:
            pin = max(slot, key=last.__getitem__)
            at = slot[pin]
            live = sum(1 << t for t in slot.values())   # the low bit of each live slot
        codes_of: dict[int, list[int]] = {}   # read bits -> allowed value bits
        new: dict[int, int] = {}
        for s, n in states.items():
            r = s & read_mask
            codes = codes_of.get(r)
            if codes is None:
                vals = allowed(tuple([r >> t & mask for t in shifts]))
                if vals and not 0 <= min(vals) <= max(vals) <= mask \
                        or rotate and 3 in {v & 3 for v in vals}:
                    raise ValueError(f"position {i} allows a value outside {span}")
                codes = codes_of[r] = [0 if sh is None else v << sh for v in vals]
            base = s & keep
            for c in codes:
                t = base | c
                if repin and (p := t >> at & 3):
                    # rho maps 0, 1, 2 to 1, 2, 0 in every live low field
                    l, h = t & live, t >> 1 & live
                    zero = live & ~(l | h)
                    t = t & ~(live * 3) | (zero | l << 1 if p == 2 else zero << 1 | h)
                u = (t & lo) << 1 | (t >> 1) & lo
                if u > t:
                    t = u
                new[t] = new.get(t, 0) + n
        states = new
    return sum(states.values())


def frontier_width(plan: Plan) -> int:
    """The most slots ``frontier_count`` holds at once on ``plan``: a
    position takes a slot when a later position reads it and frees it
    after its last reader, so this is one pass over the reads."""
    last = {k: i for i, (reads, _) in enumerate(plan) for k in reads}
    live = width = 0
    for i, (reads, _) in enumerate(plan):
        live -= sum(last[k] == i for k in reads)
        if i in last:
            live += 1
            width = max(width, live)
    return width


def checked(plan: Plan, checks: Sequence[tuple[Sequence[int], Callable]]) -> list:
    """``plan`` with each check ``(places, test)`` attached at its last
    place, ``max(places)``: that position also reads the check's other
    places, and its ``allowed`` keeps only the values v for which every
    test attached there passes. A test is called as ``test(vals, places)``,
    ``vals`` being the position's read tuple with v appended and ``places``
    the check's places translated into it; the tests run in the order of
    ``checks`` and stop at the first that fails. A test may return a count
    instead of a bool: v is then listed the product of the tests' results
    times (a repeat, module docstring), and 0 fails."""
    at: list[list] = [[] for _ in plan]
    for places, test in checks:
        at[max(places)].append((places, test))
    out = []
    for i, ((reads, allowed), attached) in enumerate(zip(plan, at)):
        if attached:
            wide = sorted({k for places, _ in attached for k in places} - {i} | set(reads))
            place = {k: j for j, k in enumerate(wide + [i])}
            tests = [(test, [place[k] for k in places]) for places, test in attached]
            reads, allowed = wide, partial(_passing, [place[k] for k in reads], allowed, tests)
        out.append((reads, allowed))
    return out


def _passing(own: list[int], allowed: Callable, tests: list, vals: tuple[int, ...]) -> list[int]:
    """The values ``allowed`` gives ``own`` of ``vals``, each listed the
    product of ``tests``' results on it times: once if every test passes
    (``True``), not at all if one fails, k times for a count k."""
    out = []
    for v in allowed(tuple([vals[k] for k in own])):
        full = vals + (v,)
        times = 1
        for test, places in tests:
            times *= test(full, places)
            if not times:
                break
        else:
            out += [v] * times
    return out


def _reader(reads: Sequence[int]) -> Callable[[list[int]], tuple[int, ...]]:
    """A function that reads the values at ``reads`` out of a value list as
    a tuple: one ``itemgetter`` call, or a one-element closure where
    ``itemgetter`` would not give a tuple."""
    if len(reads) > 1:
        return itemgetter(*reads)
    if reads:
        k = reads[0]
        return lambda vals: (vals[k],)
    return lambda vals: ()


def depth_first(plan: Plan) -> Iterator[tuple[int, ...]]:
    """Yield every complete assignment of ``plan``, a plan without repeats
    (module docstring), in lexicographic order, by a depth-first search
    without recursion (``its[i]`` iterates over the values position i may
    still take), so any number of positions fits.
    Each position reads its key with one ``_reader`` call and keeps its
    ``allowed`` results as tuples, one per distinct key; the last
    position's values are yielded directly, with no iterator."""
    n = len(plan)
    if not n:
        yield ()
        return
    positions = [(_reader(reads), allowed, {}) for reads, allowed in plan]
    vals = [0] * n
    its: list[Iterator[int]] = [iter(())] * n
    last = n - 1
    i = 0   # the position to open next
    while True:
        read, allowed, memo = positions[i]
        key = read(vals)
        got = memo.get(key)
        if got is None:
            got = memo[key] = tuple(allowed(key))
        if i < last:
            its[i] = iter(got)
        else:
            head = tuple(vals[:last])
            for v in got:
                yield head + (v,)
            if not i:
                return
            i -= 1
        while (v := next(its[i], None)) is None:
            if not i:
                return
            i -= 1
        vals[i] = v
        i += 1
