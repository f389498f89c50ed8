"""Fuzzing the pattern loader and every CLI subcommand that reads a pattern.

A generated pattern's JSON document is broken in one place: a required
field is dropped, a value the schema types is given another JSON type, or
a vertex, boundary-point, crease, SAW vertex or SAW edge row is repeated.
Each mutant is one the loader must refuse, so ``load_text`` raises a
``FlatfoldError`` (a ``ParseError`` unless a field was dropped) and each
subcommand exits 1 or 2 with no traceback. Where ``jsonschema`` is
installed, the shipped schema must refuse the mutant too, except for a
repeated row (JSON Schema cannot say that ids are unique).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile
from functools import cache
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatfold.cli import main
from flatfold.errors import FlatfoldError, ParseError
from flatfold.generators import crane, miura, modified_miura, triangle_twist
from flatfold.patternio import load_text, pattern_to_dict
from flatfold.tiling import tile

try:
    import jsonschema
except ImportError:  # the schema cross-check is optional
    jsonschema = None

SUBCOMMANDS = ["check", "count-mv", "build-saw", "count-colorings", "verify", "render"]
BASES = {
    "miura 2x3": lambda: miura(2, 3),
    "modified-miura 3x3": lambda: modified_miura(3, 3, [True, False]),
    "twist 1": lambda: triangle_twist(1),
    "crane": crane,
}
# one value of each JSON type
VALUES = [True, False, None, 0.5, 7, "s", [], {}]
RATIONAL, ID, INT, LIST = (int, str), (str,), (int,), (list,)


@cache
def base_doc(name: str, with_mv: bool, with_saw: bool) -> str:
    cp = BASES[name]()
    mv = {c: 1 for c in cp.creases} if with_mv else None
    return json.dumps(pattern_to_dict(cp, mv=mv, saw=tile(cp) if with_saw else None))


def sites(doc: dict) -> list[tuple]:
    """Every mutation of doc the loader must refuse: ("drop", path),
    ("retype", path, the JSON types the schema allows there) or
    ("repeat", path of a row)."""
    out = [("drop", (k,)) for k in ("version", "creases", "region")]
    out.append(("retype", ("version",), INT))
    for key in ("vertices", "boundary_points", "creases"):
        fields = ("from", "to") if key == "creases" else ("x", "y")
        for i in range(len(doc[key])):
            out.append(("repeat", (key, i)))
            out += [("drop", (key, i, f)) for f in ("id",) + fields]
            out.append(("retype", (key, i, "id"), ID))
            out += [("retype", (key, i, f), ID if key == "creases" else RATIONAL)
                    for f in fields]
    for i in range(len(doc["region"])):
        out += [("retype", ("region", i, j), RATIONAL) for j in (0, 1)]
    for v, angles in doc.get("angles", {}).items():
        out += [("retype", ("angles", v, j), RATIONAL) for j in range(len(angles))]
    out += [("retype", ("mv", c), INT) for c in doc.get("mv", {})]
    if "saw" in doc:
        saw = doc["saw"]
        out += [("drop", ("saw", k)) for k in ("vertices", "edges", "root")]
        out += [("retype", ("saw", "root"), INT), ("retype", ("saw", "boundary"), LIST)]
        for i in range(len(saw["vertices"])):
            out.append(("repeat", ("saw", "vertices", i)))
            out += [("drop", ("saw", "vertices", i, f)) for f in ("id", "face")]
            out += [("retype", ("saw", "vertices", i, "id"), INT),
                    ("retype", ("saw", "vertices", i, "face"), (str, list, type(None)))]
        for i in range(len(saw["edges"])):
            out.append(("repeat", ("saw", "edges", i)))
            out += [("drop", ("saw", "edges", i, f)) for f in ("id", "u", "v")]
            out += [("retype", ("saw", "edges", i, f), INT) for f in ("id", "u", "v")]
            out += [("retype", ("saw", "edges", i, "directed"), (bool,)),
                    ("retype", ("saw", "edges", i, "crease"), (str, type(None)))]
        for i in range(len(saw["boundary"])):
            out.append(("retype", ("saw", "boundary", i), LIST))
            out += [("retype", ("saw", "boundary", i, j), INT) for j in (0, 1)]
    return out


@st.composite
def mutants(draw) -> tuple[str, tuple, str]:
    """(the kind of mutation, its path, the mutant's JSON text)."""
    doc = json.loads(base_doc(draw(st.sampled_from(sorted(BASES))),
                              draw(st.booleans()), draw(st.booleans())))
    kind, path, *allowed = draw(st.sampled_from(sites(doc)))
    *parents, last = path
    holder = doc
    for step in parents:
        holder = holder[step]
    if kind == "drop":
        del holder[last]
    elif kind == "repeat":
        holder.insert(last + 1, copy.deepcopy(holder[last]))
    else:
        holder[last] = draw(st.sampled_from([x for x in VALUES if type(x) not in allowed[0]]))
    return kind, path, json.dumps(doc)


@cache
def schema():
    return json.loads(resources.files("flatfold").joinpath("schema/pattern.schema.json")
                      .read_text())


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(mutants())
def test_mutated_patterns_fail_cleanly(mutant):
    kind, path, text = mutant
    if jsonschema is not None and kind != "repeat":
        assert not jsonschema.Draft7Validator(schema()).is_valid(json.loads(text))
    # a retyped value or a repeated row is refused while parsing, so it
    # cannot pass as a different, merely invalid, pattern
    with pytest.raises(FlatfoldError if kind == "drop" else ParseError):
        load_text(text)
    with tempfile.TemporaryDirectory() as tmp:
        file = os.path.join(tmp, "mutant.json")
        with open(file, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in SUBCOMMANDS:
            code, err = run_cli([command, file])
            assert code in (1, 2), (command, code)
            assert "Traceback" not in err and err.startswith("error: "), (command, err)


@pytest.mark.skipif(jsonschema is None, reason="the schema cross-check needs jsonschema")
def test_every_retype_of_a_saw_document_fails_the_schema():
    # the sampled test above draws one value at one site; here, on a
    # document with a SAW graph, every value each retype site may draw is
    # tried, so a site whose allowed types lag the schema (a SAW vertex's
    # face may be null) fails every run, not one seed in several
    doc = json.loads(base_doc("twist 1", True, True))
    validator = jsonschema.Draft7Validator(schema())
    assert validator.is_valid(doc)
    retypes = [(path, allowed) for kind, path, *allowed in sites(doc) if kind == "retype"]
    assert any(path[:2] == ("saw", "vertices") for path, _ in retypes)
    for path, (allowed,) in retypes:
        *parents, last = path
        holder = doc
        for step in parents:
            holder = holder[step]
        kept = holder[last]
        for value in [x for x in VALUES if type(x) not in allowed]:
            holder[last] = value
            assert not validator.is_valid(doc), (path, value)
        holder[last] = kept
