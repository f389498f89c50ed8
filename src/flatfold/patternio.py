"""JSON pattern files: load/emit crease patterns, optional MV assignments
and embedded SAW graphs. Coordinates are integers or rational strings
("p/q" or "p"); floats and booleans are rejected so exact angle tests stay
exact. A string in the schema's grammar, ``-?[0-9]+(/[0-9]+)?``, is read
with ``int()``; any other string goes to ``Fraction`` as it is. A load
parses each distinct rational string once, and every copy of it reads as
that one ``Fraction``: a grid pattern repeats a few dozen strings hundreds
of times. Every id is a string and no id repeats.

``emit`` writes the bytes ``json.dumps(pattern_to_dict(...), indent=2,
sort_keys=True)`` would write from one f-string template per row kind,
rows joined by their indent's separator and keys as literal sorted text.
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
    string, a list of strings or null, and a crease a string or null."""
    vertices: dict[int, SawVertex] = {}
    edges: dict[int, SawEdge] = {}
    try:
        for row in doc["vertices"]:
            vid, face = _int(row["id"], "vertex id", taken=vertices), row["face"]
            if type(face) is list and all(type(f) is str for f in face):
                face = tuple(face)
            elif face is not None and type(face) is not str:
                raise ParseError(f"bad SAW graph: vertex {vid} has face {face!r}")
            vertices[vid] = SawVertex(vid, face)
        for row in doc["edges"]:
            eid = _int(row["id"], "edge id", taken=edges)
            u, v = (_int(row[k], f"edge {eid} end", vertices) for k in "uv")
            directed, crease = row.get("directed", False), row.get("crease")
            if type(directed) is not bool or not (crease is None or type(crease) is str):
                raise ParseError(f"bad SAW graph: edge {eid} has directed {directed!r} "
                                 f"and crease {crease!r}")
            edges[eid] = SawEdge(eid, u, v, directed, crease)
        root = _int(doc["root"], "root", vertices or None)
        boundary = doc.get("boundary", [])
        if not (type(boundary) is list
                and all(type(step) is list and len(step) == 2 for step in boundary)):
            raise ParseError("bad SAW graph: boundary is not a list of [vertex, edge] pairs")
        walk = [(_int(v, "boundary vertex", vertices), _int(e, "boundary edge", edges))
                for v, e in boundary]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad SAW graph: {exc}") from exc
    return SawGraph(vertices, edges, root, walk)


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
    their own. A rational string that parses is kept with its Fraction
    (``parsed``), so each distinct one is parsed once; a JSON number or
    boolean goes through ``_rat`` every time, as a memo keyed by value
    would read ``true`` as ``1``."""
    parsed: dict[str, Fraction] = {}

    def rat(value, where: str) -> Fraction:
        if type(value) is not str:
            return _rat(value, where)
        x = parsed.get(value)
        if x is None:
            x = parsed[value] = _rat(value, where)
        return x

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
                points[rid] = (rat(row["x"], rid), rat(row["y"], rid))
        creases = {}
        for row in doc.get("creases", []):
            cid = _new_id(row, "crease", creases)
            a, b = row["from"], row["to"]
            if not all(end in vertices or end in bpoints for end in (a, b)):
                raise ParseError(f"crease {cid} references unknown endpoint")
            creases[cid] = (a, b)
        region = [(rat(x, "region"), rat(y, "region")) for x, y in doc["region"]]
        angles = {v: tuple([rat(a, v) for a in angs])
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
    saw), indent=2, sort_keys=True)`` writes, and a newline. A non-string
    id raises ``TypeError``, as it does in the string encoder json.dumps
    uses; a rational's digits, ``-`` and ``/`` need no escaping."""
    q, r = _encode_str, _rat_str

    def points(pts: dict) -> str:
        return _rows([f'{{\n      "id": {q(pid)},\n      "x": "{r(x)}",\n      "y": "{r(y)}"\n    }}'
                      for pid, (x, y) in sorted(pts.items())], "\n  ")

    keys = ['"angles": ' + _rows([f"{q(v)}: " + _rows([f'"{r(a)}"' for a in angs], "\n    ")
                                  for v, angs in sorted(cp.declared_angles.items())], "\n  ", "{}")
            ] if cp.declared_angles else []
    keys += ['"boundary_points": ' + points(cp.boundary_points),
             '"creases": ' + _rows([f'{{\n      "from": {q(a)},\n      "id": {q(cid)},\n'
                                    f'      "to": {q(b)}\n    }}'
                                    for cid, (a, b) in sorted(cp.creases.items())], "\n  ")]
    if mv is not None:
        keys.append('"mv": ' + _rows([f"{q(c)}: {int(v)}" for c, v in sorted(mv.items())],
                                     "\n  ", "{}"))
    keys.append('"region": ' + _rows([f'[\n      "{r(x)}",\n      "{r(y)}"\n    ]'
                                      for x, y in cp.region], "\n  "))
    if saw is not None:
        keys.append('"saw": ' + _rows([
            '"boundary": ' + _rows([f"[\n        {v},\n        {e}\n      ]" for v, e in saw.walk],
                                   "\n    "),
            '"edges": ' + _rows([
                f'{{\n        "crease": {"null" if e.crease is None else q(e.crease)},\n'
                f'        "directed": {"true" if e.directed else "false"},\n'
                f'        "id": {e.id},\n        "u": {e.u},\n        "v": {e.v}\n      }}'
                for e in sorted(saw.edges.values(), key=lambda e: e.id)], "\n    "),
            f'"root": {saw.root}',
            '"vertices": ' + _rows([f'{{\n        "face": {_face(sv.face)},\n        "id": {sv.id}\n      }}'
                                    for sv in sorted(saw.vertices.values(), key=lambda s: s.id)],
                                   "\n    ")], "\n  ", "{}"))
    keys += [f'"version": {FORMAT_VERSION}', '"vertices": ' + points(cp.vertices)]
    return _rows(keys, "\n", "{}") + "\n"


def _rows(rows: list[str], nl: str, brackets: str = "[]") -> str:
    """The list (or, with brackets "{}", object) of rows that json.dumps
    writes at newline-and-indent nl, each row already written at nl + "  "."""
    if not rows:
        return brackets
    inner = nl + "  "
    return brackets[0] + inner + ("," + inner).join(rows) + nl + brackets[1]


def _face(face) -> str:
    if isinstance(face, str):
        return _encode_str(face)
    return "null" if face is None else _rows([_encode_str(f) for f in face], "\n        ")


def load_text(text: str):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:    # a JSONDecodeError, or too deep or long
        raise ParseError(f"invalid JSON: {exc}") from exc
    return pattern_from_dict(doc)


def load(file):
    """The pattern in ``file``, a path or a binary stream, read as UTF-8."""
    if not hasattr(file, "read"):
        with open(file, "rb") as fh:
            return load(fh)
    try:
        text = file.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{getattr(file, 'name', 'input')} is not UTF-8: {exc}") from exc
    return load_text(text)


def to_fold(cp: CreasePattern, mv: MVAssignment | None = None) -> dict:
    """Interoperability shim: a FOLD-style dict with float coordinates.

    Lossy by design (floats); the native JSON format keeps exact rationals.
    """
    ids = sorted(cp.vertices) + sorted(cp.boundary_points)
    index = {nid: i for i, nid in enumerate(ids)}
    creases = sorted(cp.creases.items())
    return {
        "file_spec": 1.1,
        "file_classes": ["singleModel"],
        "frame_classes": ["creasePattern"],
        "vertices_coords": [[float(x) for x in cp.point_of(n)] for n in ids],
        "edges_vertices": [[index[a], index[b]] for _, (a, b) in creases],
        "edges_assignment": [("M" if mv[c] == 1 else "V") if mv and c in mv else "U"
                             for c, _ in creases],
    }
