"""Proper 3-colorings with a pre-colored root, and the two-way translation
between colorings and MV assignments through directed crossing edges.

A crossing edge (u, v) over crease c translates as mountain when
s(v) - s(u) = 1 (mod 3) and valley when the difference is 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cp import CreasePattern, MVAssignment
from .errors import (
    AmbiguousCompletion,
    CapExceeded,
    DisconnectedSawGraph,
    ImproperColoring,
    NoCompletion,
)
from .saw import SawGraph

ThreeColoring = dict[int, int]  # SAW vertex id -> color in {0, 1, 2}


# colors left to a vertex, by the bit mask of its processed neighbours' colors
_ALLOWED = [tuple(c for c in range(3) if not banned >> c & 1) for banned in range(8)]


def count_colorings(g: SawGraph) -> int:
    """Exact number of proper 3-colorings with the root colored 0.

    Transfer-matrix DP: the state packs the colors of the frontier
    (processed vertices with unprocessed neighbours) into an int, two bits
    per slot, and maps to the number of colorings of the processed vertices
    that leave the frontier so. A vertex's slot is freed once its last
    neighbour is processed, so the cost follows the frontier width, not the
    number of colorings. Vertices are processed in a greedy min-frontier
    order from the root: the next one grows the frontier least, then has
    the most processed neighbours (the fewest colors left), then the
    lowest id.
    """
    if not g.is_connected():
        raise DisconnectedSawGraph("SAW graph is not connected")
    adj = g.adjacency()
    left = {v: len(ws) for v, ws in adj.items()}   # unprocessed neighbours
    slot: dict[int, int] = {}   # frontier vertex -> bit shift of its color
    free: list[int] = []
    done: set[int] = set()
    cand = {g.root} if g.vertices else set()
    states = {0: 1}

    def growth(v: int) -> tuple[int, int, int]:
        # a processed neighbour of an unprocessed vertex is on the frontier
        nbrs = [u for u in adj[v] if u in slot]
        return (left[v] > 0) - sum(left[u] == 1 for u in nbrs), -len(nbrs), v

    while cand:
        v = min(cand, key=growth)
        cand.discard(v)
        done.add(v)
        shifts = [slot[u] for u in adj[v] if u in slot]
        keep = -1
        for u in adj[v]:
            left[u] -= 1
            if u in slot and left[u] == 0:
                keep &= ~(3 << slot[u])
                free.append(slot.pop(u))
            elif u not in done:
                cand.add(u)
        if left[v]:
            sh = slot[v] = free.pop() if free else 2 * len(slot)
            marks = [tuple(c << sh for c in cs) for cs in _ALLOWED]
        else:
            marks = [(0,) * len(cs) for cs in _ALLOWED]
        if v == g.root:
            marks = [(0,)] * 8      # pre-colored 0, an all-zero slot
        new: dict[int, int] = {}
        for s, n in states.items():
            banned = 0
            for t in shifts:
                banned |= 1 << (s >> t & 3)
            base = s & keep
            for c in marks[banned]:
                new[base | c] = new.get(base | c, 0) + n
        states = new
    return sum(states.values())


def enumerate_colorings(g: SawGraph, cap: int = 100000) -> list[ThreeColoring]:
    """Materialize S(g) in lexicographic vertex-id order (root fixed to 0).

    A depth-first search on an explicit stack, so any number of vertices
    fits: ``stack[i]`` iterates, in increasing order, over the colors the
    i-th vertex may still take given its earlier neighbours. Raises
    CapExceeded at coloring cap + 1.
    """
    if not g.is_connected():
        raise DisconnectedSawGraph("SAW graph is not connected")
    if not g.vertices:
        return [{}]
    ids = sorted(g.vertices)
    adj = g.adjacency()
    pos = {v: i for i, v in enumerate(ids)}
    earlier = [[pos[w] for w in adj[v] if pos[w] < pos[v]] for v in ids]
    root_pos = pos[g.root]
    n = len(ids)
    colors = [0] * n
    out: list[ThreeColoring] = []

    def free_colors(i: int):
        used = {colors[p] for p in earlier[i]}
        return iter([c for c in ((0,) if i == root_pos else (0, 1, 2))
                     if c not in used])

    stack = [free_colors(0)]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            continue
        i = len(stack) - 1
        colors[i] = c
        if i + 1 < n:
            stack.append(free_colors(i + 1))
            continue
        if len(out) >= cap:
            raise CapExceeded(f"more than {cap} colorings")
        out.append(dict(zip(ids, colors)))
    return out


# the color a vertex is forced to, by the bit mask of two banned colors
_THIRD = (-1, -1, -1, 2, -1, 1, 0, -1)
# color step from the tail to the head of a crossing edge, by MV value
_STEP = {1: 1, -1: 2}


class _Plan:
    """Per-graph tables for checking, translating and lifting colorings.

    ``vertices`` fixes an index for every SAW vertex; ``edges`` holds each
    edge's id and endpoint ids, ``directed`` each crossing edge's crease,
    tail and head ids, and ``nbrs[i]`` the neighbours of vertex i as
    ``(index, k, is_tail)``, where k is the position of the crossing edge in
    ``directed`` (-1 for an undirected edge) and is_tail says whether
    vertex i is its tail. Building the tables, checking, translating and
    propagating are each O(V + E); only the completion search of a stalled
    lift can take longer.
    """

    def __init__(self, g: SawGraph):
        self.vertices = list(g.vertices)
        self.vset = set(self.vertices)
        self.root_id = g.root
        index = {v: i for i, v in enumerate(self.vertices)}
        self.root = index.get(g.root)
        self.edges = [(e.id, e.u, e.v) for e in g.edges.values()]
        self.directed: list[tuple[str, int, int]] = []
        self.nbrs: list[list[tuple[int, int, bool]]] = [[] for _ in self.vertices]
        for e in g.edges.values():
            k = -1
            if e.directed:
                k = len(self.directed)
                self.directed.append((e.crease, e.u, e.v))
            self.nbrs[index[e.u]].append((index[e.v], k, True))
            self.nbrs[index[e.v]].append((index[e.u], k, False))

    def check(self, s: ThreeColoring) -> None:
        if s.keys() != self.vset:
            raise ImproperColoring("coloring domain mismatch")
        if s[self.root_id] != 0:
            raise ImproperColoring("root is not colored 0")
        for eid, u, v in self.edges:
            if s[u] == s[v]:
                raise ImproperColoring(f"edge {eid} endpoints share color {s[u]}")

    def to_mv(self, s: ThreeColoring) -> MVAssignment:
        self.check(s)
        return {c: 1 if (s[h] - s[t]) % 3 == 1 else -1 for c, t, h in self.directed}

    def lift(self, mv: MVAssignment) -> ThreeColoring:
        steps = [_STEP.get(mv[c], 0) for c, _, _ in self.directed]
        if 0 in steps:
            c = self.directed[steps.index(0)][0]
            raise NoCompletion(f"crease {c} has value {mv[c]!r}, not 1 or -1")
        if self.root is None:
            raise NoCompletion(f"root {self.root_id} is not a vertex")
        colors = [-1] * len(self.vertices)
        banned = [0] * len(self.vertices)
        colors[self.root] = 0
        err = self._propagate(colors, banned, self.root, steps)
        if err:
            raise NoCompletion(err)
        if -1 in colors:
            colors = self._search(colors, banned, steps)
        return dict(zip(self.vertices, colors))

    def _propagate(self, colors: list[int], banned: list[int], start: int,
                   steps: list[int]) -> str | None:
        """Color everything that the newly colored ``start`` forces, in place.

        A colored vertex forces the far end of each of its crossing edges,
        and bans its color at each undirected neighbour; a vertex with two
        banned colors takes the third. Every edge is checked once its second
        endpoint is colored. Returns the contradiction met, or None.
        """
        nbrs = self.nbrs
        todo = [start]
        while todo:
            v = todo.pop()
            c = colors[v]
            for w, k, is_tail in nbrs[v]:
                cw = colors[w]
                if k < 0:
                    if cw < 0:
                        b = banned[w] = banned[w] | 1 << c
                        if _THIRD[b] >= 0:
                            colors[w] = _THIRD[b]
                            todo.append(w)
                    elif cw == c:
                        return (f"SAW vertices {self.vertices[v]} and "
                                f"{self.vertices[w]} share color {c}")
                else:
                    want = (c + steps[k] if is_tail else c - steps[k]) % 3
                    if cw < 0:
                        colors[w] = want
                        todo.append(w)
                    elif cw != want:
                        return f"crease {self.directed[k][0]} translates inconsistently"
        return None

    def _search(self, colors: list[int], banned: list[int],
                steps: list[int]) -> list[int]:
        """Finish a stalled propagation by depth-first search on an explicit
        stack: branch on an uncolored vertex next to a colored one, propagate
        each choice, and stop at the second completion."""
        found = None
        stack = [(colors, banned)]
        while stack:
            colors, banned = stack.pop()
            v = next((i for i, b in enumerate(banned) if b and colors[i] < 0), None)
            if v is None:       # nothing colored borders the rest
                v = colors.index(-1)
            for c in _ALLOWED[banned[v]]:
                cs, bs = colors[:], banned[:]
                cs[v] = c
                if self._propagate(cs, bs, v, steps):
                    continue
                if -1 in cs:
                    stack.append((cs, bs))
                elif found is None:
                    found = cs
                else:
                    raise AmbiguousCompletion("the assignment lifts to more than one coloring")
        if found is None:
            raise NoCompletion("no coloring completes the assignment")
        return found


def check_coloring(g: SawGraph, s: ThreeColoring) -> None:
    """Raise ImproperColoring unless s is proper, total and root-0."""
    _Plan(g).check(s)


def coloring_to_mv(g: SawGraph, s: ThreeColoring) -> MVAssignment:
    """Translate a proper coloring into the MV assignment it encodes."""
    return _Plan(g).to_mv(s)


def mv_to_coloring(g: SawGraph, mv: MVAssignment) -> ThreeColoring:
    """Invert the translation: the coloring that encodes ``mv``.

    From the root (colored 0), a worklist propagates forced colors: a
    crossing edge forces its far endpoint, and a vertex with two colors
    banned by its undirected neighbours takes the third. Each edge is
    checked when its second endpoint is colored, so a returned coloring is
    proper and translates back to ``mv`` on every crease the graph crosses.
    If propagation stalls, a depth-first search on an explicit stack
    completes it and stops at the second completion.

    ``mv`` must give every crease the graph crosses; values of other
    creases are ignored. Raises NoCompletion when no coloring encodes
    ``mv`` (a value other than 1 or -1 included), and AmbiguousCompletion
    when two or more do.
    """
    return _Plan(g).lift(mv)


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
    """Cross-check a SAW graph against the brute-force oracle.

    Checks |S(g)| == |M(cp)|, that coloring_to_mv lands inside M(cp)
    injectively, and the round-trip identities both ways. The pattern must
    be oracle-tractable.
    """
    from .oracle import enumerate_locally_valid
    plan = _Plan(g)
    report = enumerate_locally_valid(cp, cap=cap)
    # assignment keys list values in one fixed crease order (None if absent)
    order = sorted(cp.creases)
    keys = [tuple(map(m.get, order)) for m in report.witnesses]
    mset = set(keys)
    colorings = enumerate_colorings(g, cap=cap)
    n_col = len(colorings)

    counts_match = report.count == n_col
    translation_valid = True
    injective = True
    round_trip = True
    counterexample = None

    seen = set()
    for s in colorings:
        mv = plan.to_mv(s)
        key = tuple(map(mv.get, order))
        if key not in mset:
            translation_valid = False
            counterexample = counterexample or ("coloring maps outside M", s)
        if key in seen:
            injective = False
            counterexample = counterexample or ("two colorings share an assignment", s)
        seen.add(key)
        try:
            back = plan.lift(mv)
        except Exception as exc:  # noqa: BLE001 - report, don't raise
            round_trip = False
            counterexample = counterexample or ("mv_to_coloring failed", str(exc))
            continue
        if back != s:
            round_trip = False
            counterexample = counterexample or ("round trip mismatch", s)
    # both ways: every valid assignment lifts to a coloring that maps back.
    # A graph for a transformed pattern crosses creases the pattern lacks,
    # so its witnesses cannot be lifted and are not checked. A witness some
    # coloring produced was lifted above by the same deterministic lift.
    if not {c for c, _, _ in plan.directed} - set(cp.creases):
        for m, key in zip(report.witnesses, keys):
            if key in seen:
                continue
            try:
                if plan.to_mv(plan.lift(m)) != m:
                    round_trip = False
                    counterexample = counterexample or ("assignment round trip", m)
            except Exception as exc:  # noqa: BLE001
                round_trip = False
                counterexample = counterexample or ("assignment does not lift", str(exc))
    return BijectionReport(
        count_mv=report.count,
        count_colorings=n_col,
        counts_match=counts_match,
        translation_valid=translation_valid,
        injective=injective,
        round_trip_ok=round_trip,
        first_counterexample=counterexample,
    )
