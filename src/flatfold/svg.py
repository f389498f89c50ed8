"""Deterministic SVG rendering: mountains solid, valleys dashed, SAW
overlay with colored dots (0/1/2 -> yellow/green/red) and arrows on the
crossing edges.
"""

from __future__ import annotations

from fractions import Fraction

from .cp import CreasePattern, MVAssignment
from .saw import SawGraph

_COLORS = {0: "#e6c000", 1: "#2e8b57", 2: "#c0392b"}  # yellow, green, red
_SCALE = 60.0   # drawing width and height per unit of the pattern


def _fmt(x) -> str:
    return f"{float(x):.4f}"


def render_svg(cp: CreasePattern, mv: MVAssignment | None = None,
               saw: SawGraph | None = None,
               coloring: dict[int, int] | None = None) -> str:
    xs = [p[0] for p in cp.region]
    ys = [p[1] for p in cp.region]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    pad = Fraction(1, 2)

    def pt(p):
        # y flipped so the pattern reads the usual way up
        return (float(p[0] - xlo + pad), float(yhi + pad - p[1]))

    w, h = float(xhi - xlo + 2 * pad), float(yhi - ylo + 2 * pad)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w * _SCALE:.0f}" '
        f'height="{h * _SCALE:.0f}" viewBox="0 0 {w:.4f} {h:.4f}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="5" markerHeight="5" orient="auto-start-reverse">'
        '<path d="M 0 1 L 9 5 L 0 9 z" fill="#1f77b4"/></marker></defs>',
    ]
    # region
    poly = " ".join(f"{_fmt(pt(p)[0])},{_fmt(pt(p)[1])}" for p in cp.region)
    lines.append(f'<polygon points="{poly}" fill="none" stroke="#888" stroke-width="0.03"/>')

    def line(p, q, style):
        lines.append(f'<line x1="{_fmt(p[0])}" y1="{_fmt(p[1])}" '
                     f'x2="{_fmt(q[0])}" y2="{_fmt(q[1])}" {style}/>')

    # creases: mountains solid, other values dashed, unassigned thin grey
    for cid, (a, b) in sorted(cp.creases.items()):
        style = 'stroke="#333" stroke-width="0.04"'
        if mv and cid in mv:
            style = 'stroke="#111" stroke-width="0.045"'
            if mv[cid] != 1:
                style += ' stroke-dasharray="0.12,0.08"'
        line(pt(cp.point_of(a)), pt(cp.point_of(b)), style)
    # SAW overlay
    if saw is not None:
        pos = _saw_positions(cp, saw, pt, (xlo, yhi))
        for e in sorted(saw.edges.values(), key=lambda e: e.id):
            line(pos[e.u], pos[e.v],
                 'stroke="#1f77b4" stroke-width="0.03" marker-end="url(#arrow)"' if e.directed
                 else 'stroke="#1f77b4" stroke-width="0.02" stroke-dasharray="0.05,0.05"')
        for sv in sorted(saw.vertices.values(), key=lambda s: s.id):
            p = pos[sv.id]
            fill = "#1f77b4"
            if coloring is not None and sv.id in coloring:
                fill = _COLORS[coloring[sv.id]]
            lines.append(f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="0.09" '
                         f'fill="{fill}" stroke="#000" stroke-width="0.01"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _saw_positions(cp: CreasePattern, saw: SawGraph, pt, corner):
    """Schematic placement: face centroid plus a small deterministic offset,
    mapped to the drawing by pt; a vertex of a face with no centroid sits
    off to the region's corner."""
    centroids = {}
    for f in cp.faces:
        if f.is_outer:
            continue
        pts = [cp.point_of(n) for n in f.nodes
               if n in cp.vertices or n in cp.boundary_points]
        if not pts:
            continue
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        centroids[f.id] = (cx, cy)
    by_face: dict[object, list[int]] = {}
    for sv in sorted(saw.vertices.values(), key=lambda s: s.id):
        by_face.setdefault(sv.face, []).append(sv.id)
    pos = {}
    for face, members in by_face.items():
        c = centroids.get(face, corner)
        for k, vid in enumerate(members):
            pos[vid] = pt((c[0] + Fraction(k, max(8, 4 * len(members))), c[1]))
    return pos
