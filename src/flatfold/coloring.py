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
        raise ValueError("graph is not connected")
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
    """Materialize S(g) in lexicographic vertex-id order (root fixed to 0)."""
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

    def rec(i: int):
        if i == n:
            if len(out) >= cap:
                raise CapExceeded(f"more than {cap} colorings")
            out.append(dict(zip(ids, colors)))
            return
        choices = (0,) if i == root_pos else (0, 1, 2)
        for c in choices:
            if any(colors[p] == c for p in earlier[i]):
                continue
            colors[i] = c
            rec(i + 1)

    rec(0)
    return out


def check_coloring(g: SawGraph, s: ThreeColoring) -> None:
    """Raise ImproperColoring unless s is proper, total and root-0."""
    if set(s) != set(g.vertices):
        raise ImproperColoring("coloring domain mismatch")
    if s[g.root] != 0:
        raise ImproperColoring("root is not colored 0")
    for e in g.edges.values():
        if s[e.u] == s[e.v]:
            raise ImproperColoring(f"edge {e.id} endpoints share color {s[e.u]}")


def coloring_to_mv(g: SawGraph, s: ThreeColoring) -> MVAssignment:
    """Translate a proper coloring into the MV assignment it encodes."""
    check_coloring(g, s)
    mv: MVAssignment = {}
    for e in g.edges.values():
        if not e.directed:
            continue
        d = (s[e.v] - s[e.u]) % 3
        mv[e.crease] = 1 if d == 1 else -1
    return mv


def mv_to_coloring(g: SawGraph, mv: MVAssignment) -> ThreeColoring:
    """Invert the translation: propagate colors from the root.

    Crossing edges force their far endpoint directly; interior vertices are
    completed by constraint propagation (a vertex is forced once two
    distinct neighbour colors are known). Failure to complete uniquely
    signals a SAW-graph construction bug.
    """
    colors: dict[int, int] = {g.root: 0}
    adj: dict[int, list] = {v: [] for v in g.vertices}
    for e in g.edges.values():
        adj[e.u].append(e)
        adj[e.v].append(e)

    changed = True
    while changed:
        changed = False
        for e in g.edges.values():
            if e.directed:
                known_u = e.u in colors
                known_v = e.v in colors
                if known_u == known_v:
                    continue
                step = mv[e.crease]
                if known_u:
                    colors[e.v] = (colors[e.u] + step) % 3
                else:
                    colors[e.u] = (colors[e.v] - step) % 3
                changed = True
        for v in g.vertices:
            if v in colors:
                continue
            seen = {colors[e.other(v)] for e in adj[v] if e.other(v) in colors}
            if len(seen) >= 3:
                raise NoCompletion(f"no color left for vertex {v}")
            if len(seen) == 2:
                colors[v] = ({0, 1, 2} - seen).pop()
                changed = True
    if len(colors) != len(g.vertices):
        raise AmbiguousCompletion("propagation stalled; completion not unique")
    try:
        check_coloring(g, colors)
    except ImproperColoring as exc:
        raise NoCompletion(str(exc)) from exc
    # the translation must reproduce the given values on every crease
    got = coloring_to_mv(g, colors)
    for c, v in got.items():
        if c in mv and mv[c] != v:
            raise NoCompletion(f"crease {c} translates inconsistently")
    return colors


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
    report = enumerate_locally_valid(cp, cap=cap)
    mset = {tuple(sorted(m.items())) for m in report.witnesses}
    colorings = enumerate_colorings(g, cap=cap)
    n_col = len(colorings)

    counts_match = report.count == n_col
    translation_valid = True
    injective = True
    round_trip = True
    counterexample = None

    seen = set()
    crease_ids = set(cp.creases)
    for s in colorings:
        mv = coloring_to_mv(g, s)
        key = tuple(sorted((c, v) for c, v in mv.items() if c in crease_ids))
        if key not in mset:
            translation_valid = False
            counterexample = counterexample or ("coloring maps outside M", s)
        if key in seen:
            injective = False
            counterexample = counterexample or ("two colorings share an assignment", s)
        seen.add(key)
        try:
            back = mv_to_coloring(g, mv)
        except Exception as exc:  # noqa: BLE001 - report, don't raise
            round_trip = False
            counterexample = counterexample or ("mv_to_coloring failed", str(exc))
            continue
        if back != s:
            round_trip = False
            counterexample = counterexample or ("round trip mismatch", s)
    # both ways: every valid assignment lifts to a coloring that maps back
    saw_creases = {e.crease for e in g.edges.values() if e.directed}
    extra = saw_creases - crease_ids
    for m in report.witnesses:
        try:
            full = dict(m)
            if extra:
                # graph for a transformed pattern: only check liftability of
                # the shared creases
                continue
            s = mv_to_coloring(g, full)
            if tuple(sorted(coloring_to_mv(g, s).items())) != tuple(sorted(full.items())):
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
