"""Proper 3-colorings with a pre-colored root, and the two-way translation
between colorings and MV assignments through directed crossing edges.

Counting and enumerating colorings is a plan of ``search``: each vertex
reads its earlier neighbours and takes a color none of them has. A crossing
edge (u, v) over crease c takes the step s(v) - s(u) (mod 3): 1 reads as
mountain and 2 as valley, the oracle's values for c (``cp.MV_OF_STEP``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat

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
from .search import _reader, depth_first, frontier_count

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
    the lowest id."""
    adj = g.adjacency()
    left = {v: len(ws) for v, ws in adj.items()}   # unprocessed neighbours
    done: dict[int, None] = {}      # processed vertices, in order
    cand = {g.root} if g.root in adj else set()   # _plan refuses a missing root

    def growth(v: int) -> tuple[int, int, int]:
        # every processed neighbour of an unprocessed vertex is on the frontier
        nbrs = [u for u in adj[v] if u in done]
        return (left[v] > 0) - sum(left[u] == 1 for u in nbrs), -len(nbrs), v

    while cand:
        v = min(cand, key=growth)
        cand.discard(v)
        done[v] = None
        for u in adj[v]:
            left[u] -= 1
            if u not in done:
                cand.add(u)
    return list(done)


def count_colorings(g: SawGraph) -> int:
    """Exact number of proper 3-colorings with the root colored 0.

    The frontier DP of ``search.frontier_count`` over a greedy min-frontier
    vertex order, so the cost follows the frontier width, not the number of
    colorings. Raises DisconnectedSawGraph for a disconnected graph and
    TilingError when the root is not a vertex.
    """
    return frontier_count(_plan(g, _min_frontier_order(g)))


def enumerate_colorings(g: SawGraph, cap: int = 100000) -> list[ThreeColoring]:
    """Materialize S(g) in lexicographic vertex-id order (root fixed to 0).

    The depth-first search of ``search.depth_first`` over the sorted vertex
    ids, so any number of vertices fits. Raises CapExceeded at coloring
    cap + 1.
    """
    ids = sorted(g.vertices)
    found = depth_first(_plan(g, ids))
    out = list(map(dict, map(zip, repeat(ids), islice(found, max(cap, 0)))))
    if next(found, None) is not None:
        raise CapExceeded(f"more than {cap} colorings")
    return out


# the color a vertex is forced to, by the bit mask of two banned colors
_THIRD = (-1, -1, -1, 2, -1, 1, 0, -1)
_COLORS = frozenset((0, 1, 2))
# the step (v - u) mod 3 of an edge whose end colors u and v make byte 4u + v
_STEP_OF_PAIR = bytes((b % 4 - b // 4) % 3 for b in range(256))


class _Plan:
    """Per-graph tables for checking, translating and lifting colorings.

    A vertex's index is its place in ``vertices``, the sorted ids (the
    order of ``enumerate_colorings``). ``edges`` holds each edge's id,
    endpoint indices and k, the edge's position in ``directed`` (-1 for an
    undirected edge); ``directed`` holds each crossing edge's crease, tail
    and head, and ``crossing`` each crease's last crossing edge (whose step
    the crease takes, as in ``to_mv``). A crossing edge's step is
    (s(head) - s(tail)) mod 3: 1 for mountain, 2 for valley. The tables of
    ``colors`` (its readers) and of ``lift`` (``nbrs`` and ``_tree``) are
    built on their first call, so ``coloring_to_mv`` and
    ``mv_to_coloring`` build only what they use. Building, checking,
    translating and lifting are each O(V + E); only the completion search
    of a stalled lift can take longer.
    """

    def __init__(self, g: SawGraph):
        self.vertices = sorted(g.vertices)
        self.vset = set(self.vertices)
        self.root_id = g.root
        index = dict(zip(self.vertices, range(len(self.vertices))))
        self.root = index.get(g.root)
        self.edges: list[tuple[int, int, int, int]] = []
        self.directed: list[tuple[str, int, int]] = []
        for e in g.edges.values():
            u, v = index[e.u], index[e.v]
            k = -1
            if e.directed:
                k = len(self.directed)
                self.directed.append((e.crease, u, v))
            self.edges.append((e.id, u, v, k))
        self.crossing = {c: k for k, (c, _, _) in enumerate(self.directed)}

    def colors(self, s: ThreeColoring) -> tuple[list[int], bytes]:
        """The color list of s, checked: colors 0, 1 and 2 only, proper,
        with the root colored 0; and its steps as ``bytes``: a 0, then each
        edge's (s(v) - s(u)) mod 3 in edge order."""
        if s.keys() != self.vset:
            raise ImproperColoring("coloring domain mismatch")
        if self.root is None:
            raise ImproperColoring(f"root {self.root_id} is not a vertex")
        if s[self.root_id] != 0:
            raise ImproperColoring("root is not colored 0")
        read, us, vs = self._readers
        colors = list(read(s))
        if not _COLORS.issuperset(colors):
            v = next(v for v, c in zip(self.vertices, colors) if c not in _COLORS)
            raise ImproperColoring(f"vertex {v} has color {s[v]!r}, not 0, 1 or 2")
        # both ends' colors packed into ints, a byte per edge: one to_bytes
        # gives each edge's 4u + v (after a 0), one translate its step
        packed = int.from_bytes(bytes(us(colors)), "big") << 2 | \
            int.from_bytes(bytes(vs(colors)), "big")
        steps = packed.to_bytes(len(self.edges) + 1, "big").translate(_STEP_OF_PAIR)
        bad = steps.find(0, 1)
        if bad > 0:
            eid, u, _, _ = self.edges[bad - 1]
            raise ImproperColoring(f"edge {eid} endpoints share color {colors[u]}")
        return colors, steps

    @cached_property
    def _readers(self):
        """``colors``' readers: of a coloring's colors in vertex order, and
        of the colors at each edge's two ends."""
        return (_reader(self.vertices), _reader([u for _, u, _, _ in self.edges]),
                _reader([v for _, _, v, _ in self.edges]))

    def to_mv(self, colors: list[int]) -> MVAssignment:
        return {c: MV_OF_STEP[(colors[h] - colors[t]) % 3] for c, t, h in self.directed}

    def steps(self, mv: MVAssignment) -> list[int]:
        """Each crossing edge's step in the coloring that encodes ``mv``."""
        steps = [STEP_OF_MV.get(mv.get(c), 0) for c, _, _ in self.directed]
        if 0 in steps:
            c = self.directed[steps.index(0)][0]
            raise NoCompletion(f"crease {c} has value {mv.get(c)!r}, not 1 or -1")
        return steps

    def lift(self, steps: Sequence[int]) -> list[int]:
        """The one color list whose crossing edges take ``steps``.

        When the crossing edges reached from the root span the graph, the
        colors follow from the root along a breadth-first tree of them, and
        the result stands if every other crossing edge takes its step and
        no undirected edge joins two equal colors; no other coloring can
        take the steps. Otherwise a worklist propagates forced colors from
        the root (``_propagate``) and a search completes what it leaves
        (``_search``). Raises NoCompletion or AmbiguousCompletion.
        """
        if self.root is None:
            raise NoCompletion(f"root {self.root_id} is not a vertex")
        tree = self._tree
        if tree is None:
            colors = [-1] * len(self.vertices)
            banned = [0] * len(self.vertices)
            colors[self.root] = 0
            err = self._propagate(colors, banned, self.root, steps)
            if err:
                raise NoCompletion(err)
            if -1 in colors:
                colors = self._search(colors, banned, steps)
            return colors
        order, closing, undirected = tree
        colors = [0] * len(self.vertices)
        for v, p, k, sign in order:
            colors[v] = (colors[p] + sign * steps[k]) % 3
        for t, h, k in closing:
            if (colors[h] - colors[t]) % 3 != steps[k]:
                raise NoCompletion(f"crease {self.directed[k][0]} translates inconsistently")
        for u, v in undirected:
            if colors[u] == colors[v]:
                raise NoCompletion(f"SAW vertices {self.vertices[u]} and "
                                   f"{self.vertices[v]} share color {colors[u]}")
        return colors

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

    def _search(self, colors: list[int], banned: list[int],
                steps: Sequence[int]) -> list[int]:
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

    @cached_property
    def nbrs(self) -> tuple[list[list[tuple[int, int, int]]], list[list[int]]]:
        """The neighbours of each vertex i: ``cross[i]`` across crossing
        edges as ``(index, k, sign)``, the neighbour's color being i's plus
        ``sign`` times step k, and ``plain[i]`` across undirected edges."""
        cross: list[list[tuple[int, int, int]]] = [[] for _ in self.vertices]
        plain: list[list[int]] = [[] for _ in self.vertices]
        for _, u, v, k in self.edges:
            if k < 0:
                plain[u].append(v)
                plain[v].append(u)
            else:
                cross[u].append((v, k, 1))
                cross[v].append((u, k, -1))
        return cross, plain

    @cached_property
    def _tree(self):
        """The tree lift's tables, or None when the crossing edges reached
        from the root miss a vertex: the tree's vertices in breadth-first
        order as ``(vertex, parent, k, sign)``, the vertex's color being
        the parent's plus ``sign`` times step k; the other crossing edges
        as ``(tail, head, k)``; and the undirected edges' endpoints."""
        reached = [False] * len(self.vertices)
        reached[self.root] = True
        queue = [self.root]
        order = []
        cross = self.nbrs[0]
        for p in queue:             # the queue grows as the search reaches
            for w, k, sign in cross[p]:
                if not reached[w]:
                    reached[w] = True
                    queue.append(w)
                    order.append((w, p, k, sign))
        if len(queue) < len(self.vertices):
            return None
        in_tree = {k for _, _, k, _ in order}
        return (order,
                [(t, h, k) for k, (_, t, h) in enumerate(self.directed) if k not in in_tree],
                [(u, v) for _, u, v, k in self.edges if k < 0])


def coloring_to_mv(g: SawGraph, s: ThreeColoring) -> MVAssignment:
    """Translate a proper coloring into the MV assignment it encodes."""
    plan = _Plan(g)
    return plan.to_mv(plan.colors(s)[0])


def mv_to_coloring(g: SawGraph, mv: MVAssignment) -> ThreeColoring:
    """Invert the translation: the coloring that encodes ``mv``.

    The colors follow from the root (colored 0) along a spanning tree of
    crossing edges where there is one. Otherwise a worklist propagates
    forced colors: a crossing edge forces its far endpoint, and a vertex
    with two colors banned by its undirected neighbours takes the third;
    if propagation stalls, a depth-first search on an explicit stack
    completes it and stops at the second completion. Every edge is
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

    Assignments are keyed as the oracle's search gives them, streamed up to
    ``cap`` (past it the count comes from its DP): ``bytes`` with one step
    per crease in search order, 1 for mountain and 2 for valley. A coloring
    is keyed by its crossing-edge steps as they are, read in the same
    order; a crease no edge crosses reads 0, a value no assignment has.
    One dict records, for each assignment key, whether a coloring mapped
    to it, and a set keeps the keys of colorings that map outside M(cp);
    only assignment keys no coloring produced become MV dicts.

    Each coloring is checked, keyed and lifted on ``_Plan``'s tables, built
    once per graph: ``colors`` gives its color list and every edge's step,
    and one ``itemgetter`` each reads its key and its lift's steps.

    Raises CapExceeded past ``cap`` colorings. ``count_colorings`` runs
    before any coloring is enumerated, so a graph with more than ``cap``
    colorings is refused without building one, whether or not the
    oracle's search passes ``cap``.
    """
    from .oracle import _first_assignments
    plan = _Plan(g)
    order, found, count = _first_assignments(cp, cap)
    if count_colorings(g) > cap:
        raise CapExceeded(f"more than {cap} colorings")
    hit = dict.fromkeys(found, False)   # assignment key -> a coloring maps to it
    del found
    outside: set[bytes] = set()
    colorings = enumerate_colorings(g, cap=cap)
    n_col = len(colorings)
    # each crossing edge's place in the steps of plan.colors; a key reads
    # each crease's step in search order (the crease's last crossing
    # edge's), and a crease no edge crosses reads the leading 0
    at = [j + 1 for j, (_, _, _, k) in enumerate(plan.edges) if k >= 0]
    key_at = _reader([at[plan.crossing[c]] if c in plan.crossing else 0 for c in order])
    # the lift's steps: a crease crossed twice takes its last edge's step
    lift_at = _reader([at[plan.crossing[c]] for c, _, _ in plan.directed])

    translation_valid = injective = round_trip = True
    counterexample = None

    for s in colorings:
        colors, steps = plan.colors(s)
        key = bytes(key_at(steps))
        mapped = hit.get(key)
        if mapped is None:
            translation_valid = False
            counterexample = counterexample or ("coloring maps outside M", s)
            mapped = key in outside
            outside.add(key)
        else:
            hit[key] = True
        if mapped:
            injective = False
            counterexample = counterexample or ("two colorings share an assignment", s)
        try:
            back = plan.lift(lift_at(steps))
        except Exception as exc:  # noqa: BLE001 - report, don't raise
            round_trip = False
            counterexample = counterexample or ("mv_to_coloring failed", str(exc))
            continue
        if back != colors:
            round_trip = False
            counterexample = counterexample or ("round trip mismatch", s)
    # both ways: every valid assignment lifts to a coloring that maps back.
    # A graph for a transformed pattern crosses creases the pattern lacks,
    # so its witnesses cannot be lifted and are not checked. A witness some
    # coloring produced was lifted above by the same deterministic lift.
    if not plan.crossing.keys() - set(cp.creases):
        for key, mapped in hit.items():
            if mapped:
                continue
            m = {c: MV_OF_STEP[v] for c, v in zip(order, key)}
            try:
                if plan.to_mv(plan.lift(plan.steps(m))) != m:
                    round_trip = False
                    counterexample = counterexample or ("assignment round trip", m)
            except Exception as exc:  # noqa: BLE001
                round_trip = False
                counterexample = counterexample or ("assignment does not lift", str(exc))
    return BijectionReport(
        count_mv=count, count_colorings=n_col, counts_match=count == n_col,
        translation_valid=translation_valid, injective=injective,
        round_trip_ok=round_trip, first_counterexample=counterexample)
