"""One search engine for both of flatfold's search problems.

A *plan* is a list of positions in assignment order. Position i is a pair
``(reads, allowed)``: ``reads`` lists earlier positions, and
``allowed(vals)`` returns, in increasing order, the values in 0..3 that
position i may take when the positions in ``reads`` hold the tuple
``vals``. A SAW-graph vertex reads its earlier neighbours (``coloring``); a
crease reads the other creases of the vertices it completes (``oracle``).
Both functions call ``allowed`` once per position and distinct ``vals``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from operator import itemgetter

Plan = Sequence[tuple[Sequence[int], Callable[[tuple[int, ...]], Sequence[int]]]]


def frontier_count(plan: Plan) -> int:
    """Number of complete assignments of ``plan``, by a frontier DP: the
    state packs the values of the assigned positions that a later position
    still reads into an int, two bits per slot, and maps to the number of
    assignments that leave the frontier so. A slot is freed after its last
    reader, so the cost follows the frontier width, not the count."""
    last = {k: i for i, (reads, _) in enumerate(plan) for k in reads}
    slot: dict[int, int] = {}   # frontier position -> bit shift of its value
    free: list[int] = []
    states = {0: 1}
    for i, (reads, allowed) in enumerate(plan):
        shifts = [slot[k] for k in reads]
        read_mask = sum(3 << t for t in shifts)
        keep = -1
        for k in reads:
            if last[k] == i:
                keep &= ~(3 << slot[k])
                free.append(slot.pop(k))
        sh = None
        if i in last:
            sh = slot[i] = free.pop() if free else 2 * len(slot)
        codes_of: dict[int, list[int]] = {}   # read bits -> allowed value bits
        new: dict[int, int] = {}
        for s, n in states.items():
            r = s & read_mask
            codes = codes_of.get(r)
            if codes is None:
                vals = allowed(tuple([r >> t & 3 for t in shifts]))
                codes = codes_of[r] = [0 if sh is None else v << sh for v in vals]
            base = s & keep
            for c in codes:
                t = base | c
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
    """Yield every complete assignment of ``plan`` in lexicographic order,
    by a depth-first search without recursion (``its[i]`` iterates over the
    values position i may still take), so any number of positions fits.
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
