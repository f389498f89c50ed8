"""JSON pattern files: load/emit crease patterns, optional MV assignments
and embedded SAW graphs. Coordinates are integers or rational strings
("p/q" or "p"); floats and booleans are rejected so exact angle tests stay
exact. A string in the schema's grammar, ``-?[0-9]+(/[0-9]+)?``, is read
with ``int()``; any other string goes to ``Fraction`` as it is. Every id
is a string and no id repeats.

``emit`` writes the bytes ``json.dumps(doc, indent=2, sort_keys=True)``
would write, with a one-pass writer (``_write_json``): json.dumps uses its
C encoder only without an indent.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .cp import CreasePattern, MVAssignment, build_crease_pattern
from .errors import ParseError
from .saw import SawEdge, SawGraph, SawVertex

FORMAT_VERSION = 1
_encode_str = json.encoder.encode_basestring_ascii


# the schema's rational grammar; such a string is read with int()
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rat(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise ParseError(f"{where}: float coordinates are not allowed; "
                         "use rational strings like \"3/4\"")
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, not {json.dumps(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            m = _RATIONAL.fullmatch(value)
            if m is not None:
                return Fraction(int(m[1]), int(m[2] or 1))
            # anything else reads as Fraction reads it, or fails as it does
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {value!r}") from exc
    raise ParseError(f"{where}: expected a rational string")


def _rat_str(x: Fraction) -> str:
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


def _int(value, where: str, among: dict | None = None, taken: dict | tuple = ()) -> int:
    """value, if it is a JSON integer (not a boolean) in ``among``, not in ``taken``."""
    if type(value) is not int:
        raise ParseError(f"bad SAW graph: {where} {value!r} is not an integer")
    if among is not None and value not in among:
        raise ParseError(f"bad SAW graph: {where} {value} is not listed")
    if value in taken:
        raise ParseError(f"bad SAW graph: {where} {value} is used by an earlier row")
    return value


def saw_from_dict(doc: dict) -> SawGraph:
    """The SAW graph of a ``saw`` block. Ids, edge ends, the root and the
    boundary steps are JSON integers, and all but ids name listed rows; no
    vertex id or edge id repeats. ``directed`` is a boolean, a face a
    string or a list of strings, and a crease a string or null."""
    g = SawGraph()
    try:
        for row in doc["vertices"]:
            vid, face = _int(row["id"], "vertex id", taken=g.vertices), row["face"]
            if type(face) is list and all(type(f) is str for f in face):
                face = tuple(face)
            elif type(face) is not str:
                raise ParseError(f"bad SAW graph: vertex {vid} has face {face!r}")
            g.vertices[vid] = SawVertex(vid, face)
        for row in doc["edges"]:
            eid = _int(row["id"], "edge id", taken=g.edges)
            u, v = (_int(row[k], f"edge {eid} end", g.vertices) for k in "uv")
            directed, crease = row.get("directed", False), row.get("crease")
            if type(directed) is not bool or not (crease is None or type(crease) is str):
                raise ParseError(f"bad SAW graph: edge {eid} has directed {directed!r} "
                                 f"and crease {crease!r}")
            g.edges[eid] = SawEdge(eid, u, v, directed, crease)
        g.root = _int(doc["root"], "root", g.vertices or None)
        boundary = doc.get("boundary", [])
        if not (type(boundary) is list
                and all(type(step) is list and len(step) == 2 for step in boundary)):
            raise ParseError("bad SAW graph: boundary is not a list of [vertex, edge] pairs")
        g.walk = [(_int(v, "boundary vertex", g.vertices), _int(e, "boundary edge", g.edges))
                  for v, e in boundary]
        g._next_v = max(g.vertices, default=-1) + 1
        g._next_e = max(g.edges, default=-1) + 1
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad SAW graph: {exc}") from exc
    return g


def _new_id(row: dict, kind: str, *taken: dict) -> str:
    """row's id: a string that no dict in ``taken`` holds yet."""
    rid = row["id"]
    if not isinstance(rid, str):
        raise ParseError(f"{kind} id {rid!r} is not a string")
    for t in taken:
        if rid in t:
            raise ParseError(f"{kind} id {rid!r} is used by an earlier row")
    return rid


def pattern_from_dict(doc: dict):
    """Returns (pattern, mv or None, saw or None).

    Every id is a string, and no id repeats: vertices and boundary points
    share one namespace (a crease names its endpoints by id), creases have
    their own."""
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    version = doc.get("version")
    if version != FORMAT_VERSION or isinstance(version, bool):
        raise ParseError(f"unsupported version {version!r}")
    try:
        vertices: dict = {}
        bpoints: dict = {}
        for rows, points, kind in ((doc.get("vertices", []), vertices, "vertex"),
                                   (doc.get("boundary_points", []), bpoints,
                                    "boundary point")):
            for row in rows:
                rid = _new_id(row, kind, vertices, bpoints)
                points[rid] = (_rat(row["x"], rid), _rat(row["y"], rid))
        creases = {}
        for row in doc.get("creases", []):
            cid = _new_id(row, "crease", creases)
            a, b = row["from"], row["to"]
            if not all(end in vertices or end in bpoints for end in (a, b)):
                raise ParseError(f"crease {cid} references unknown endpoint")
            creases[cid] = (a, b)
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
    """The pattern file: the bytes ``json.dumps(pattern_to_dict(cp, mv,
    saw), indent=2, sort_keys=True)`` writes, and a newline."""
    out: list[str] = []
    _write_json(pattern_to_dict(cp, mv, saw), "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(o, nl: str, out: list[str]) -> None:
    """Append o to out as ``json.dumps(o, indent=2, sort_keys=True)`` writes
    it, nl being a newline and the indent o sits at. Handles exactly the
    types a pattern document holds: dict (string keys), list, str, int,
    bool and None. json.dumps uses its C encoder only without an indent;
    this writer encodes strings with the same C function."""
    t = type(o)
    if t is str:
        out.append(_encode_str(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            out.append(sep + _encode_str(k) + ": ")
            _write_json(o[k], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _write_json(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


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
