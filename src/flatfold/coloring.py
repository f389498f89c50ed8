"""Proper 3-colorings with a pre-colored root, and the two-way translation
between colorings and MV assignments through directed crossing edges.

Counting and enumerating colorings is a plan of ``search``: each vertex
reads its earlier neighbours and takes a color none of them has. A crossing
edge (u, v) over crease c takes the step s(v) - s(u) (mod 3): 1 reads as
mountain and 2 as valley, the oracle's values for c (``cp.MV_OF_STEP``).

A coloring is checked by one function (``_check``), whether it is
translated or read into a row. An assignment lifts back to its coloring in
one loop (``_Plan.lift``): from the root, a worklist propagates forced
colors, and a search on an explicit stack completes what it leaves,
never searching a dead state's key twice.
``verify_bijection`` certifies the map from colorings to assignments a
bijection onto M by counts (``_certificates``): a frontier DP counts the
colorings whose image is in M with a consistent round trip, and the
pairs of colorings with equal images are counted by one more where the
crossing edges do not already fix every color. Like the count of S, each
keeps one state per frontier and its images under the six color
permutations (``search.frontier_count``). When both equal |S| and
|M|, only the lifts of the first ``_LIFTS`` colorings are checked;
otherwise every coloring is streamed and checked, one at a time, its
image in M by each cone's crimp schedule walk, the rule of
``is_valid_single_vertex`` (``_exact_pass``); the oracle lists M only to
lift the assignments no coloring maps to.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice, repeat

from . import oracle
from .cp import MV_OF_STEP, STEP_OF_MV, CreasePattern, MVAssignment
from .errors import (
    AmbiguousCompletion,
    CapExceeded,
    DisconnectedSawGraph,
    ImproperColoring,
    NoCompletion,
    TilingError,
)
from .saw import SawGraph
from .search import checked, depth_first, frontier_count, reach

ThreeColoring = dict[int, int]  # SAW vertex id -> color in {0, 1, 2}


# colors left to a vertex, by the bit mask of its processed neighbours' colors
_ALLOWED = [tuple(c for c in range(3) if not banned >> c & 1) for banned in range(8)]


def _free_colors(vals: tuple[int, ...]) -> tuple[int, ...]:
    return _ALLOWED[sum({1 << c for c in vals})]


def _root_colors(vals: tuple[int, ...]) -> tuple[int, ...]:
    return () if 0 in vals else (0,)


def _no_colors(vals: tuple[int, ...]) -> tuple[int, ...]:
    return ()


def _plan(g: SawGraph, order: list[int]) -> list:
    """The coloring search as a plan of ``search``: each vertex of
    ``order`` reads its earlier neighbours and takes a color none of them
    has; the root takes only 0, and a vertex with a loop none."""
    if g.root not in g.vertices:
        raise TilingError(f"root {g.root} is not a vertex")
    if not g.is_connected():
        raise DisconnectedSawGraph("SAW graph is not connected")
    adj = g.adjacency()
    pos = {v: i for i, v in enumerate(order)}
    return [(sorted(pos[w] for w in adj[v] if pos[w] < i),
             _no_colors if v in adj[v] else _root_colors if v == g.root else _free_colors)
            for i, v in enumerate(order)]


def _min_frontier_order(g: SawGraph) -> list[int]:
    """Greedy min-frontier vertex order from the root: the next vertex grows
    the frontier (processed vertices with unprocessed neighbours) least,
    then has the most processed neighbours (the fewest colors left), then
    the lowest id.

    Each vertex's counts are kept up to date around each new vertex, so a
    candidate's growth is read off them, not recounted: a vertex enters
    the frontier if it has an unprocessed neighbour, and each processed
    neighbour whose one unprocessed neighbour it is leaves it."""
    adj = g.adjacency()
    left = {v: len(ws) for v, ws in adj.items()}   # unprocessed neighbours
    near = dict.fromkeys(adj, 0)    # processed neighbours
    ones = dict.fromkeys(adj, 0)    # processed neighbours it is the last of
    done: dict[int, None] = {}      # processed vertices, in order
    cand = {g.root} if g.root in adj else set()   # _plan refuses a missing root

    def growth(v: int) -> tuple[int, int, int]:
        return (left[v] > 0) - ones[v], -near[v], v

    def last_of(u: int) -> int:
        return next(w for w in adj[u] if w not in done)

    while cand:
        v = min(cand, key=growth)
        cand.discard(v)
        done[v] = None
        for u in adj[v]:
            left[u] -= 1
            if u not in done:
                near[u] += 1
                cand.add(u)
            elif u != v and left[u] == 1:
                ones[last_of(u)] += 1
        if left[v] == 1:
            ones[last_of(v)] += 1
    return list(done)


def count_colorings(g: SawGraph) -> int:
    """Exact number of proper 3-colorings with the root colored 0.

    The frontier DP of ``search.frontier_count`` over a greedy min-frontier
    vertex order, so the cost follows the frontier width, not the number of
    colorings. Every permutation of the three colors maps proper colorings
    onto proper colorings, and the order colors the root first, so the DP
    keeps one state for each frontier and its images under all six
    (``search.frontier_count``'s ``swap`` and ``rotate``): the root's 0,
    then once the root has left the frontier one live slot held at 0,
    picks one of each three rotations, and the swap of colors 1 and 2 one
    of each pair. Raises
    DisconnectedSawGraph for a disconnected graph and TilingError when the
    root is not a vertex.
    """
    return frontier_count(_plan(g, _min_frontier_order(g)), swap=True, rotate=True)


def _same_step(vals: tuple[int, ...], places: list[int]) -> bool:
    u, v, x, y = places
    return (vals[v] - vals[u]) % 3 == (vals[y] - vals[x]) % 3


# a pair of colorings (s, s') takes the value 4 d + s at a vertex, where
# d = s' - s (mod 3); the nine values, those that a neighbour's value x bans
# (the same s or the same s'), and those of another d than x's, as bit masks
_PAIRS = [4 * d + s for d in range(3) for s in range(3)]
_PAIR_BAN = [sum(1 << y for y in _PAIRS if y & 3 == x & 3 or (y + (y >> 2)) % 3 == (x + (x >> 2)) % 3)
             for x in range(11)]
_OFFSET_BAN = [sum(1 << y for y in _PAIRS if y >> 2 != x >> 2) for x in range(11)]


def _pair_values(same: list[int], banned: int, vals: tuple[int, ...]) -> list[int]:
    """The pair values left to a vertex by the mask ``banned`` and its
    neighbours' values ``vals``, those at the places ``same`` fixing d."""
    for x in vals:
        banned |= _PAIR_BAN[x]
    for k in same:
        banned |= _OFFSET_BAN[vals[k]]
    return [y for y in _PAIRS if not banned >> y & 1]


def _certificates(cp: CreasePattern, g: SawGraph, order: list[int], plan: list,
                  n_col: int, spans: bool) -> tuple[int, int]:
    """Two counts over the coloring plan ``plan`` of ``order``, which has
    ``n_col`` colorings. The first is a frontier DP that counts the
    colorings that cross every crease of the pattern (else it is 0) and
    pass, as ``search.checked`` checks, each crossing edge's
    ``_same_step`` with its crease's last crossing edge, in edge order,
    then each interior vertex's cone test (``oracle._crimp_checks``),
    which reads the steps of its creases' last crossing edges as color
    differences and judges them by the cone's crimp schedule walk: those
    whose image is in M(cp) and round trip is consistent. Swapping colors
    1 and 2 negates every step and keeps each table's verdict, since
    every crimp schedule is symmetric under the flip, and rotating the
    colors keeps every step, so this DP, like ``count_colorings``, keeps
    one state for each frontier and its images under the six color
    permutations.

    The second is the number of pairs of colorings with equal images:
    ``n_col`` exactly when no two share one. When the first count is
    ``n_col``, every crossing edge takes its crease's last crossing edge's
    step, so two colorings with equal images take equal steps on every
    crossing edge. Where the crossing edges reach every vertex from the
    root (``spans``, as ``_Plan.spans``) and cross only the pattern's
    creases, those steps fix every color from the root's 0, so no two
    colorings share an image and the pair count is ``n_col`` without a
    count. Otherwise a frontier DP counts the pairs in 4-bit pair values
    (``_PAIR_BAN``), the last crossing edge of each crease of the pattern
    keeping d equal at its ends, and the root taking the pair value 0
    alone (the mask 0x7FE bans the others). Swapping colors 1 and 2
    in both colorings swaps them in both fields, d and s, and rotating
    both colorings turns s and keeps d, so this DP too keeps one state
    for each frontier and its images under the six color permutations."""
    pos = {v: i for i, v in enumerate(order)}
    ends = [((pos[e.u], pos[e.v]), e.crease) for e in g.edges.values() if e.directed]
    last = {c: uv for uv, c in ends}
    into_m = 0
    if cp.creases.keys() <= last.keys():
        checks = [(uv + last[c], _same_step) for uv, c in ends if uv != last[c]]
        checks += oracle._crimp_checks(oracle._cones(cp), last.__getitem__)
        into_m = frontier_count(checked(plan, checks), swap=True, rotate=True)
    if into_m == n_col and spans and last.keys() <= cp.creases.keys():
        return into_m, n_col
    equal = {tuple(sorted(last[c])) for c in cp.creases.keys() & last.keys()}
    pairs_plan = [(nbrs, _no_colors if first is _no_colors else partial(
        _pair_values, [j for j, k in enumerate(nbrs) if (k, i) in equal],
        0x7FE if first is _root_colors else 0)) for i, (nbrs, first) in enumerate(plan)]
    return into_m, frontier_count(pairs_plan, bits=4, swap=True, rotate=True)


def _colorings(g: SawGraph) -> Iterator[ThreeColoring]:
    """S(g) in lexicographic vertex-id order (root fixed to 0), one
    coloring at a time: the depth-first search of ``search.depth_first``
    over the sorted vertex ids."""
    ids = sorted(g.vertices)
    return map(dict, map(zip, repeat(ids), depth_first(_plan(g, ids))))


def enumerate_colorings(g: SawGraph, cap: int = 100000) -> list[ThreeColoring]:
    """Materialize S(g) in lexicographic vertex-id order (root fixed to 0).

    The depth-first search of ``search.depth_first`` over the sorted vertex
    ids (``_colorings``), so any number of vertices fits. Raises
    CapExceeded at coloring cap + 1.
    """
    found = _colorings(g)
    out = list(islice(found, max(cap, 0)))
    if next(found, None) is not None:
        raise CapExceeded(f"more than {cap} colorings")
    return out


# the color a vertex is forced to, by the bit mask of two banned colors
_THIRD = (-1, -1, -1, 2, -1, 1, 0, -1)
# the most colorings that verify_bijection lists on a certified graph
_BLOCK = 256
# the first colorings, in sorted-id order, that a certified graph lifts
_LIFTS = 8


def _check(g: SawGraph, s: ThreeColoring) -> None:
    """Check a coloring of ``g``: it colors the vertices, the root 0, with
    colors 0, 1 and 2 only, and properly. Raises ImproperColoring for its
    first failed check in that order (the first vertex in sorted-id order
    with another color, and the first improper edge in edge order)."""
    if s.keys() != g.vertices.keys():
        raise ImproperColoring("coloring domain mismatch")
    if g.root not in g.vertices:
        raise ImproperColoring(f"root {g.root} is not a vertex")
    if s[g.root] != 0:
        raise ImproperColoring("root is not colored 0")
    try:
        ok = max(bytes(s.values())) <= 2
    except (TypeError, ValueError):     # a color is not a byte
        ok = False
    if not ok:
        v = next(v for v in sorted(s) if not (isinstance(s[v], int) and 0 <= s[v] <= 2))
        raise ImproperColoring(f"vertex {v} has color {s[v]!r}, not 0, 1 or 2")
    for e in g.edges.values():
        if s[e.u] == s[e.v]:
            raise ImproperColoring(f"edge {e.id} endpoints share color {int(s[e.u])}")


class _Plan:
    """Per-graph tables for checking, translating and lifting colorings.

    ``colors`` checks one coloring (``_check``) and gives its row, its
    colors by vertex index as ``bytes``; ``to_mv``, ``steps_of`` and
    ``lifts_back`` read a row, and ``lift`` takes one step per crossing
    edge.

    A vertex's index is its place in ``vertices``, the sorted ids (the
    order of ``enumerate_colorings``). ``arcs`` holds each crossing edge's
    endpoint indices; ``directed`` holds each crossing edge's crease and
    the place in ``arcs`` of that crease's last crossing edge, whose step
    the crease takes, and ``crossing`` that place for each crease. A
    crossing edge's step is (s(head) - s(tail)) mod 3: 1 for mountain, 2
    for valley. ``nbrs``, the neighbour lists that ``lift`` and ``spans``
    read, are filled in the same pass over the graph's edges as ``arcs``;
    ``spans`` is built on first use. There is no per-edge table: ``colors``
    is ``_check`` on the graph ``g`` plus the row.
    Building, checking, translating and lifting are each O(V + E) per
    coloring; only the completion search of a stalled lift can take longer.
    """

    def __init__(self, g: SawGraph):
        self.g = g
        self.vertices = sorted(g.vertices)
        index = dict(zip(self.vertices, range(len(self.vertices))))
        self.root = index.get(g.root)
        arcs: list[tuple[int, int]] = []
        creases: list[str] = []
        crossing: dict[str, int] = {}
        # the neighbours of each vertex i: cross[i] across crossing edges as
        # (index, k, sign), the neighbour's color being i's plus sign times
        # step k, and plain[i] across undirected edges
        cross: list[list[tuple[int, int, int]]] = [[] for _ in self.vertices]
        plain: list[list[int]] = [[] for _ in self.vertices]
        for e in g.edges.values():
            u, v = index[e.u], index[e.v]
            if e.directed:
                k = crossing[e.crease] = len(arcs)
                arcs.append((u, v))
                creases.append(e.crease)
                cross[u].append((v, k, 1))
                cross[v].append((u, k, -1))
            else:
                plain[u].append(v)
                plain[v].append(u)
        self.arcs, self.crossing = arcs, crossing
        self.directed = [(c, crossing[c]) for c in creases]
        self.nbrs = (cross, plain)

    def colors(self, s: ThreeColoring) -> bytes:
        """The row of a coloring, checked by ``_check``."""
        _check(self.g, s)
        return bytes(map(s.__getitem__, self.vertices))

    def steps_of(self, row: Sequence[int]) -> list[int]:
        """Each crossing edge's step in the coloring of ``row``."""
        return [(row[v] - row[u]) % 3 for u, v in self.arcs]

    def to_mv(self, row: Sequence[int]) -> MVAssignment:
        """The MV assignment of the coloring of ``row``."""
        steps = self.steps_of(row)
        return {c: MV_OF_STEP[steps[k]] for c, k in self.crossing.items()}

    def steps(self, mv: MVAssignment) -> bytes:
        """Each crossing edge's step in the coloring that encodes ``mv``."""
        steps = bytes(STEP_OF_MV.get(mv.get(c), 0) for c, _ in self.directed)
        if 0 in steps:
            c = self.directed[steps.index(0)][0]
            raise NoCompletion(f"crease {c} has value {mv.get(c)!r}, not 1 or -1")
        return steps

    def lift(self, steps: Sequence[int]) -> list[int]:
        """The colors of the coloring whose crossing edges take ``steps``,
        one per crossing edge: a worklist propagates forced colors from the
        root (``_propagate``), and a depth-first search on an explicit
        stack completes what it leaves. The search branches on an uncolored
        vertex next to a colored one, propagates each choice, and stops at
        the second completion. Raises NoCompletion or AmbiguousCompletion
        when no coloring or more than one takes the steps.

        The search remembers dead states. Once ``_propagate`` succeeds, no
        crossing edge joins a colored vertex to an uncolored one, so a
        state's key, the banned-color mask of each uncolored vertex and 8
        for each colored one, fixes every completion of the rest. A state
        whose branches found no completion is dead, and no state with its
        key is searched again: the entry ``(key, found)``, pushed below the
        state's branches, marks the key dead when it is popped with
        ``found`` unchanged. A state popped from an empty stack is all that
        is left to search, and its descendants color more vertices, so no
        later state meets its key: it is neither keyed nor checked."""
        if self.root is None:
            raise NoCompletion(f"root {self.g.root} is not a vertex")
        colors = [-1] * len(self.vertices)
        banned = [0] * len(self.vertices)
        colors[self.root] = 0
        err = self._propagate(colors, banned, self.root, steps)
        if err:
            raise NoCompletion(err)
        found = None
        dead: set[bytes] = set()
        stack = [(colors, banned)]
        while stack:
            colors, banned = stack.pop()
            if isinstance(colors, bytes):   # (key, found) below a key's branches
                if banned is found:         # they found no completion
                    dead.add(colors)
                continue
            if -1 not in colors:
                if found is not None:
                    raise AmbiguousCompletion("the assignment lifts to more than one coloring")
                found = colors
                continue
            if stack:   # alone on the stack, a state's key cannot recur
                key = bytes([8 if c >= 0 else b for c, b in zip(colors, banned)])
                if key in dead:
                    continue
                stack.append((key, found))
            v = next((i for i, b in enumerate(banned) if b and colors[i] < 0), None)
            if v is None:       # nothing colored borders the rest
                v = colors.index(-1)
            for c in _ALLOWED[banned[v]]:
                cs, bs = colors[:], banned[:]
                cs[v] = c
                if not self._propagate(cs, bs, v, steps):
                    stack.append((cs, bs))
        if found is None:
            raise NoCompletion("no coloring completes the assignment")
        return found

    def _propagate(self, colors: list[int], banned: list[int], start: int,
                   steps: Sequence[int]) -> str | None:
        """Color everything that the newly colored ``start`` forces, in place.

        A colored vertex forces the far end of each of its crossing edges,
        and bans its color at each undirected neighbour; a vertex with two
        banned colors takes the third. Every edge is checked once its second
        endpoint is colored. Returns the contradiction met, or None.
        """
        cross, plain = self.nbrs
        todo = [start]
        while todo:
            v = todo.pop()
            c = colors[v]
            for w, k, sign in cross[v]:
                want = (c + sign * steps[k]) % 3
                cw = colors[w]
                if cw < 0:
                    colors[w] = want
                    todo.append(w)
                elif cw != want:
                    return f"crease {self.directed[k][0]} translates inconsistently"
            for w in plain[v]:
                cw = colors[w]
                if cw < 0:
                    b = banned[w] = banned[w] | 1 << c
                    if (third := _THIRD[b]) >= 0:
                        colors[w] = third
                        todo.append(w)
                elif cw == c:
                    return (f"SAW vertices {self.vertices[v]} and "
                            f"{self.vertices[w]} share color {c}")
        return None

    def lifts_back(self, row: bytes) -> bool:
        """Whether the proper coloring of ``row`` (``colors``) lifts back to
        itself; where the crossing edges span the graph they fix every
        color, so exactly when each takes its crease's step (no lift)."""
        steps = self.steps_of(row)
        want = [steps[k] for _, k in self.directed]
        return steps == want if self.spans else bytes(self.lift(want)) == row

    def round_trip(self, mv: MVAssignment) -> MVAssignment:
        """The assignment of the coloring that ``mv`` lifts to."""
        return self.to_mv(self.lift(self.steps(mv)))

    @cached_property
    def spans(self) -> bool:
        """Whether the crossing edges reached from the root reach every
        vertex, so that the steps fix every color of a lift."""
        if self.root is None:
            return False
        cross = self.nbrs[0]
        found = reach(self.root, lambda v: [w for w, _, _ in cross[v]])
        return len(list(found)) == len(self.vertices)


def coloring_to_mv(g: SawGraph, s: ThreeColoring) -> MVAssignment:
    """Translate a proper coloring into the MV assignment it encodes: each
    crease takes its last crossing edge's step. A coloring that fails a
    check of ``_check`` (its domain, root, color range or an improper
    edge) raises its ImproperColoring."""
    _check(g, s)
    return {e.crease: MV_OF_STEP[(s[e.v] - s[e.u]) % 3] for e in g.edges.values() if e.directed}


def mv_to_coloring(g: SawGraph, mv: MVAssignment) -> ThreeColoring:
    """Invert the translation: the coloring that encodes ``mv``.

    One loop, ``_Plan.lift``: from the root (colored 0), a worklist
    propagates forced colors: a crossing edge forces its far endpoint, and
    a vertex with two colors banned by its undirected neighbours takes the
    third; if propagation stalls, a depth-first search on an explicit
    stack completes it, never searching a dead state twice, and stops at
    the second completion. Every edge is
    checked, so a returned coloring is proper and translates back to
    ``mv`` on every crease the graph crosses.

    ``mv`` must give every crease the graph crosses; values of other
    creases are ignored. Raises NoCompletion when no coloring encodes
    ``mv`` (a value other than 1 or -1 included), and AmbiguousCompletion
    when two or more do.
    """
    plan = _Plan(g)
    return dict(zip(plan.vertices, plan.lift(plan.steps(mv))))


@dataclass
class BijectionReport:
    count_mv: int
    count_colorings: int
    counts_match: bool
    translation_valid: bool     # every coloring maps into M(cp)
    injective: bool
    round_trip_ok: bool
    first_counterexample: object = None

    @property
    def ok(self) -> bool:
        return (self.counts_match and self.translation_valid
                and self.injective and self.round_trip_ok)


def verify_bijection(cp: CreasePattern, g: SawGraph,
                     cap: int = 200000) -> BijectionReport:
    """Cross-check a SAW graph against the oracle's crease search.

    Checks |S(g)| == |M(cp)|, that coloring_to_mv lands inside M(cp)
    injectively, and the round-trip identities both ways. The pattern must
    be oracle-tractable.

    When |M(cp)|, |S(g)| and both counts of ``_certificates`` agree, the
    map is a bijection whose round trips hold as far as the lift is right.
    |S(g)| and the certificates share one min-frontier order and coloring
    plan, and the pair count runs only where the crossing edges do not
    fix every color (``_certificates``). |M(cp)| is counted by the
    oracle's DP, not listed. The lift is checked on one sample, the first
    ``_LIFTS`` colorings in sorted-id order, each of which must lift back
    to itself, checked one at a time (``_Plan.colors``, then
    ``_Plan.lifts_back``); up to ``_BLOCK`` colorings, S(g) is
    listed (``enumerate_colorings``) and the sample is its head, past it
    the sample is all that is searched for. Anything else (a count that
    differs, a sample that fails or raises, a listing of other than
    |S(g)| colorings) goes to ``_exact_pass``, which streams S(g)
    (``_colorings``; nothing when |S(g)| is 0) and holds no list of it.

    Raises CapExceeded past ``cap`` colorings, counted before any is
    enumerated, so such a graph is refused without building a coloring,
    whether or not the oracle's search passes ``cap``.
    """
    plan = _Plan(g)
    count = oracle._count(cp)
    vertex_order = _min_frontier_order(g)
    search = _plan(g, vertex_order)
    n_col = frontier_count(search, swap=True, rotate=True)
    if n_col > cap:
        raise CapExceeded(f"more than {cap} colorings")
    if count == n_col and _certificates(cp, g, vertex_order, search, n_col,
                                        plan.spans) == (n_col, n_col):
        try:
            listed = enumerate_colorings(g, cap=cap) if n_col <= _BLOCK else None
            sample = islice(_colorings(g) if listed is None else listed, _LIFTS)
            certified = ((listed is None or len(listed) == n_col)
                         and all(plan.lifts_back(plan.colors(s)) for s in sample))
        except Exception:  # noqa: BLE001 - the exact pass reports it
            certified = False
        if certified:
            return BijectionReport(count_mv=count, count_colorings=n_col, counts_match=True,
                                   translation_valid=True, injective=True, round_trip_ok=True)
    return _exact_pass(cp, plan, _colorings(g) if n_col else (), count, cap)


def _exact_pass(cp: CreasePattern, plan: _Plan, colorings: Iterable[ThreeColoring],
                count: int, cap: int) -> BijectionReport:
    """``verify_bijection``'s report on ``colorings``, taken one at a time
    in order, and |M(cp)| = ``count``. Each coloring's row is checked
    (``_Plan.colors`` raises its ImproperColoring); its image must be in M
    and new, and it must lift back to itself. An image is in M when every
    pattern crease is crossed and every cone test of
    ``oracle._crimp_checks`` (the crimp schedule walks the listing plan
    reads) passes on the row; its key, a step per pattern crease in
    sorted-id order (0 where uncrossed), serves only injectivity and the
    witness skip. Where the crossing edges span the graph, a new image in
    M whose crossing edges take their creases' steps lifts back with no
    lift (``_Plan.lifts_back``). Once a round trip fails nothing more is
    lifted. While the round trips
    hold, some assignment is no image and no foreign crease is crossed, the
    first ``cap`` witnesses of ``oracle._witnesses`` that no coloring maps
    to must lift and map back."""
    order = sorted(cp.creases)
    key_at = [plan.crossing.get(c, -1) for c in order]
    crossed = -1 not in key_at
    checks = oracle._crimp_checks(oracle._cones(cp), lambda c: plan.arcs[plan.crossing[c]]) \
        if crossed else []
    hit: set[bytes] = set()         # the keys of images in M(cp)
    outside: set[bytes] = set()     # the keys of the other images
    translation_valid = injective = round_trip = True
    counterexample = None
    n_col = 0

    for n_col, s in enumerate(colorings, 1):
        row = plan.colors(s)
        steps = plan.steps_of(row)
        key = bytes([steps[k] if k >= 0 else 0 for k in key_at])
        inside = crossed and all(test(row, places) for places, test in checks)
        seen = hit if inside else outside
        if not inside:
            translation_valid = False
            counterexample = counterexample or ("coloring maps outside M", s)
        new = key not in seen
        if not new:
            injective = False
            counterexample = counterexample or ("two colorings share an assignment", s)
        seen.add(key)
        want = [steps[k] for _, k in plan.directed]
        if not round_trip or new and inside and plan.spans and steps == want:
            continue    # a round trip failed before, or the steps fix every color of s
        try:
            back = plan.lift(want)
        except Exception as exc:  # noqa: BLE001 - report, don't raise
            round_trip = False
            counterexample = counterexample or ("mv_to_coloring failed", str(exc))
            continue
        if bytes(back) != row:
            round_trip = False
            counterexample = counterexample or ("round trip mismatch", s)
    # both ways: every valid assignment lifts to a coloring that maps back.
    # A graph for a transformed pattern crosses creases the pattern lacks,
    # so its witnesses cannot be lifted and are not checked. A witness some
    # coloring produced had its round trip checked above.
    if round_trip and len(hit) < count and plan.crossing.keys() <= cp.creases.keys():
        for m in islice(oracle._witnesses(cp), cap):
            if bytes([STEP_OF_MV[m[c]] for c in order]) in hit:
                continue
            try:
                if plan.round_trip(m) == m:
                    continue
                failure = ("assignment round trip", m)
            except Exception as exc:  # noqa: BLE001
                failure = ("assignment does not lift", str(exc))
            round_trip = False
            counterexample = counterexample or failure
            break
    return BijectionReport(
        count_mv=count, count_colorings=n_col, counts_match=count == n_col,
        translation_valid=translation_valid, injective=injective,
        round_trip_ok=round_trip, first_counterexample=counterexample)
