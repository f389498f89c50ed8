"""JSON pattern files: load/emit crease patterns, optional MV assignments
and embedded SAW graphs. Coordinates are rational strings ("p/q" or "p");
floats are rejected so exact angle tests stay exact.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cp import CreasePattern, MVAssignment, build_crease_pattern
from .errors import ParseError
from .saw import SawEdge, SawGraph, SawVertex

FORMAT_VERSION = 1


def _rat(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise ParseError(f"{where}: float coordinates are not allowed; "
                         "use rational strings like \"3/4\"")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {value!r}") from exc
    raise ParseError(f"{where}: expected a rational string")


def _rat_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def pattern_to_dict(cp: CreasePattern, mv: MVAssignment | None = None,
                    saw: SawGraph | None = None) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "vertices": [{"id": vid, "x": _rat_str(p[0]), "y": _rat_str(p[1])}
                     for vid, p in sorted(cp.vertices.items())],
        "boundary_points": [{"id": bid, "x": _rat_str(p[0]), "y": _rat_str(p[1])}
                            for bid, p in sorted(cp.boundary_points.items())],
        "creases": [{"id": cid, "from": a, "to": b}
                    for cid, (a, b) in sorted(cp.creases.items())],
        "region": [[_rat_str(x), _rat_str(y)] for x, y in cp.region],
    }
    if cp.declared_angles:
        doc["angles"] = {v: [_rat_str(a) for a in angs]
                         for v, angs in sorted(cp.declared_angles.items())}
    if mv is not None:
        doc["mv"] = {c: int(v) for c, v in sorted(mv.items())}
    if saw is not None:
        doc["saw"] = saw_to_dict(saw)
    return doc


def saw_to_dict(g: SawGraph) -> dict:
    return {
        "vertices": [{"id": sv.id, "face": list(sv.face) if isinstance(sv.face, tuple)
                      else sv.face}
                     for sv in sorted(g.vertices.values(), key=lambda s: s.id)],
        "edges": [{"id": e.id, "u": e.u, "v": e.v, "directed": e.directed,
                   "crease": e.crease}
                  for e in sorted(g.edges.values(), key=lambda e: e.id)],
        "root": g.root,
        "boundary": [[v, e] for v, e in g.walk],
    }


def saw_from_dict(doc: dict) -> SawGraph:
    g = SawGraph()
    try:
        for row in doc["vertices"]:
            face = row.get("face")
            if isinstance(face, list):
                face = tuple(face)
            g.vertices[int(row["id"])] = SawVertex(int(row["id"]), face)
        for row in doc["edges"]:
            g.edges[int(row["id"])] = SawEdge(
                int(row["id"]), int(row["u"]), int(row["v"]),
                bool(row.get("directed", False)), row.get("crease"))
        g.root = int(doc["root"])
        g.walk = [(int(v), int(e)) for v, e in doc.get("boundary", [])]
        g._next_v = max(g.vertices, default=-1) + 1
        g._next_e = max(g.edges, default=-1) + 1
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad SAW graph: {exc}") from exc
    for e in g.edges.values():
        for end in (e.u, e.v):
            if end not in g.vertices:
                raise ParseError(f"bad SAW graph: edge {e.id} ends at unlisted vertex {end}")
    if g.vertices and g.root not in g.vertices:
        raise ParseError(f"bad SAW graph: root {g.root} is not a listed vertex")
    for i, (v, e) in enumerate(g.walk):
        if v not in g.vertices or e not in g.edges:
            raise ParseError(f"bad SAW graph: boundary step {i} ({v}, {e}) "
                             "names an unlisted vertex or edge")
    return g


def pattern_from_dict(doc: dict):
    """Returns (pattern, mv or None, saw or None)."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise ParseError(f"unsupported version {doc.get('version')!r}")
    try:
        vertices = {row["id"]: (_rat(row["x"], row["id"]), _rat(row["y"], row["id"]))
                    for row in doc.get("vertices", [])}
        bpoints = {row["id"]: (_rat(row["x"], row["id"]), _rat(row["y"], row["id"]))
                   for row in doc.get("boundary_points", [])}
        creases = {}
        known = set(vertices) | set(bpoints)
        for row in doc.get("creases", []):
            a, b = row["from"], row["to"]
            if a not in known or b not in known:
                raise ParseError(f"crease {row.get('id')} references unknown endpoint")
            creases[row["id"]] = (a, b)
        region = [(_rat(x, "region"), _rat(y, "region")) for x, y in doc["region"]]
        angles = {v: tuple(_rat(a, v) for a in angs)
                  for v, angs in doc.get("angles", {}).items()}
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"malformed pattern: {exc}") from exc
    cp = build_crease_pattern(vertices, creases, region,
                              declared_angles=angles, boundary_points=bpoints)
    mv = None
    if "mv" in doc:
        if not isinstance(doc["mv"], dict):
            raise ParseError("bad MV block: not an object")
        mv = {}
        for c, val in doc["mv"].items():
            if c not in cp.creases or val not in (1, -1) or isinstance(val, bool):
                raise ParseError(f"bad MV entry {c}: {val}")
            mv[c] = int(val)
    saw = saw_from_dict(doc["saw"]) if "saw" in doc else None
    return cp, mv, saw


def emit(cp: CreasePattern, mv=None, saw=None) -> str:
    return json.dumps(pattern_to_dict(cp, mv, saw), indent=2, sort_keys=True) + "\n"


def load_text(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return pattern_from_dict(doc)


def load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_text(fh.read())


def to_fold(cp: CreasePattern, mv: MVAssignment | None = None) -> dict:
    """Interoperability shim: a FOLD-style dict with float coordinates.

    Lossy by design (floats); the native JSON format keeps exact rationals.
    """
    ids = sorted(cp.vertices) + sorted(cp.boundary_points)
    index = {nid: i for i, nid in enumerate(ids)}
    coords = [[float(cp.point_of(n)[0]), float(cp.point_of(n)[1])] for n in ids]
    edges = []
    assignment = []
    for cid, (a, b) in sorted(cp.creases.items()):
        edges.append([index[a], index[b]])
        if mv and cid in mv:
            assignment.append("M" if mv[cid] == 1 else "V")
        else:
            assignment.append("U")
    return {
        "file_spec": 1.1,
        "file_classes": ["singleModel"],
        "frame_classes": ["creasePattern"],
        "vertices_coords": coords,
        "edges_vertices": edges,
        "edges_assignment": assignment,
    }
