import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatfold.errors import ParseError
from flatfold.generators import crane, miura, triangle_twist
from flatfold.patternio import _rat, _write_json, emit, load_text, pattern_to_dict, to_fold
from flatfold.svg import render_svg
from flatfold.tiling import tile

from .helpers import small_pattern, star_pattern


def test_round_trip_miura():
    cp = miura(2, 2)
    cp2, mv, saw = load_text(emit(cp))
    assert mv is None and saw is None
    assert cp2.creases == cp.creases
    assert cp2.vertices == cp.vertices
    assert cp2.boundary_points == cp.boundary_points
    assert cp2.declared_angles == cp.declared_angles
    assert cp2.region == cp.region
    # semantic stability: emitting again gives identical text
    assert emit(cp2) == emit(cp)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_load_emit_round_trips_every_field(kind, m, n, seed):
    cp = small_pattern(kind, m, n, seed)
    cp2 = load_text(emit(cp))[0]
    # the derived fields (faces, sides, corners, crease orders, boundary
    # tour) are rebuilt from the file and must come out the same
    for f in dataclasses.fields(cp):
        assert getattr(cp2, f.name) == getattr(cp, f.name), f.name


def test_round_trip_with_mv_and_saw():
    cp = miura(2, 2)
    g = tile(cp)
    from flatfold.coloring import count_colorings, enumerate_colorings, coloring_to_mv
    mv = coloring_to_mv(g, enumerate_colorings(g)[0])
    cp2, mv2, g2 = load_text(emit(cp, mv=mv, saw=g))
    assert mv2 == mv
    assert count_colorings(g2) == count_colorings(g)
    assert g2.root == g.root
    assert g2.walk == g.walk


def test_unknown_vertex_reference_rejected():
    cp = miura(2, 2)
    doc = pattern_to_dict(cp)
    doc["creases"][0]["from"] = "ghost"
    with pytest.raises(ParseError):
        load_text(json.dumps(doc))


def test_float_coordinates_rejected():
    cp = miura(2, 2)
    doc = pattern_to_dict(cp)
    doc["vertices"][0]["x"] = 0.5
    with pytest.raises(ParseError) as err:
        load_text(json.dumps(doc))
    assert "rational" in str(err.value)


def test_boolean_mv_value_rejected():
    # the schema allows only 1 and -1; true must not read as a mountain
    cp = miura(2, 2)
    doc = pattern_to_dict(cp, mv={c: 1 for c in cp.creases})
    doc["mv"][sorted(cp.creases)[0]] = True
    with pytest.raises(ParseError, match="bad MV entry"):
        load_text(json.dumps(doc))


@pytest.mark.parametrize("where", ["coordinate", "angle"])
@pytest.mark.parametrize("value", [True, False])
def test_boolean_rationals_rejected(where, value):
    # the schema allows integers and rational strings; a bool is neither,
    # though Python's bool is an int
    doc = pattern_to_dict(star_pattern([90, 90, 90, 90]))
    if where == "coordinate":
        doc["vertices"][0]["x"] = value
    else:
        doc["angles"]["v0"][0] = value
    with pytest.raises(ParseError, match="expected a rational"):
        load_text(json.dumps(doc))


@pytest.mark.parametrize("rows", ["vertices", "boundary_points", "creases"])
def test_ids_must_be_strings(rows):
    doc = pattern_to_dict(miura(2, 2))
    doc[rows][-1]["id"] = 7
    with pytest.raises(ParseError, match="is not a string"):
        load_text(json.dumps(doc))


@pytest.mark.parametrize("rows", ["vertices", "boundary_points", "creases"])
def test_repeated_ids_rejected(rows):
    # a second row with an earlier id would silently replace the first
    doc = pattern_to_dict(miura(2, 2))
    doc[rows].append(dict(doc[rows][0]))
    with pytest.raises(ParseError, match="used by an earlier row"):
        load_text(json.dumps(doc))


def test_vertex_and_boundary_point_ids_are_one_namespace():
    doc = pattern_to_dict(miura(2, 2))
    doc["boundary_points"][0]["id"] = doc["vertices"][0]["id"]
    with pytest.raises(ParseError, match="used by an earlier row"):
        load_text(json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True))
def test_rat_reads_the_schema_grammar_as_fraction_does(value):
    try:
        expected = Fraction(value)
    except ZeroDivisionError:
        with pytest.raises(ParseError):
            _rat(value, "x")
        return
    got = _rat(value, "x")
    assert type(got) is Fraction and got == expected


@pytest.mark.parametrize("value", [" 1", "1_0", "+2", "1.5", "\u0663", "1e2",
                                   "1/0", "3/-4", "", "-", "1/", "0x10"])
def test_rat_falls_back_to_fraction(value):
    # strings outside the schema's grammar read as Fraction reads them, or
    # fail as it fails
    try:
        expected = Fraction(value)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError, match="bad rational"):
            _rat(value, "x")
    else:
        got = _rat(value, "x")
        assert type(got) is Fraction and got == expected


json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 80, 2 ** 80)
    | st.text() | st.sampled_from(["", "\x00\x1f\\\"", "\u00e9\u2603\U0001f600", "\ud800"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(json_docs)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[]], "\u00e9": None})
def test_writer_matches_json_dumps(doc):
    out: list[str] = []
    _write_json(doc, "\n", out)
    assert "".join(out) == json.dumps(doc, indent=2, sort_keys=True)


def test_writer_refuses_other_types():
    with pytest.raises(TypeError):
        _write_json({"x": 0.5}, "\n", [])


def test_bad_json_rejected():
    with pytest.raises(ParseError):
        load_text("{not json")


def test_emitted_json_validates_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources
    schema = json.loads(
        resources.files("flatfold").joinpath("schema/pattern.schema.json").read_text())
    for cp in (miura(2, 3), triangle_twist(1), crane()):
        doc = pattern_to_dict(cp, saw=tile(cp))
        jsonschema.validate(doc, schema)


def test_fold_export_shim():
    cp = miura(2, 2)
    from flatfold.coloring import coloring_to_mv, enumerate_colorings
    g = tile(cp)
    mv = coloring_to_mv(g, enumerate_colorings(g)[0])
    fold = to_fold(cp, mv)
    assert fold["frame_classes"] == ["creasePattern"]
    assert len(fold["vertices_coords"]) == len(cp.vertices) + len(cp.boundary_points)
    assert len(fold["edges_vertices"]) == len(cp.creases)
    assert set(fold["edges_assignment"]) <= {"M", "V", "U"}


def test_render_svg_deterministic_and_valid():
    import xml.etree.ElementTree as ET
    cp = miura(2, 2)
    g = tile(cp)
    from flatfold.coloring import coloring_to_mv, enumerate_colorings
    s = enumerate_colorings(g)[0]
    mv = coloring_to_mv(g, s)
    out1 = render_svg(cp, mv=mv, saw=g, coloring=s)
    out2 = render_svg(cp, mv=mv, saw=g, coloring=s)
    assert out1 == out2
    ET.fromstring(out1)
    assert "stroke-dasharray" in out1  # valleys dashed
    assert "marker-end" in out1        # crossing edges drawn as arrows


def test_render_mv_styles_match_translation():
    from .helpers import first_coloring
    cp = crane()
    g = tile(cp)
    from flatfold.coloring import coloring_to_mv
    s = first_coloring(g)
    mv = coloring_to_mv(g, s)
    out = render_svg(cp, mv=mv, saw=g, coloring=s)
    solid = out.count('stroke="#111" stroke-width="0.045"/>')
    dashed = out.count('stroke-dasharray="0.12,0.08"')
    assert solid == sum(1 for v in mv.values() if v == 1)
    assert dashed == sum(1 for v in mv.values() if v == -1)
