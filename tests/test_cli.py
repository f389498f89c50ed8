import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from flatfold.cli import main
from flatfold.patternio import emit
from flatfold.generators import miura
from flatfold.tiling import tile

from .helpers import star_pattern


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io, sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_then_count_mv(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, ["generate", "miura", "2", "2", "-o", str(path)])
    assert code == 0
    code, out, _ = run(capsys, ["count-mv", str(path)])
    assert code == 0
    assert out.strip() == "6"


def test_pipe_stdin(capsys, monkeypatch):
    code, out, _ = run(capsys, ["count-mv", "-"], stdin=emit(miura(2, 2)),
                       monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "6"


def test_joined_twists_count(capsys, tmp_path):
    path = tmp_path / "t.json"
    run(capsys, ["generate", "joined-twists", "2", "-o", str(path)])
    code, out, _ = run(capsys, ["count-mv", str(path), "--json"])
    assert code == 0
    assert json.loads(out) == {"count_mv": 170}


def test_crane_build_saw_count_colorings(capsys, tmp_path):
    p1 = tmp_path / "crane.json"
    p2 = tmp_path / "crane-saw.json"
    run(capsys, ["generate", "crane", "-o", str(p1)])
    code, _, _ = run(capsys, ["build-saw", str(p1), "-o", str(p2)])
    assert code == 0
    code, out, _ = run(capsys, ["count-colorings", str(p2)])
    assert code == 0
    assert out.strip() == "93312"


def test_check_reports(capsys, tmp_path):
    path = tmp_path / "m.json"
    run(capsys, ["generate", "miura", "2", "2", "-o", str(path)])
    code, out, _ = run(capsys, ["check", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"]
    assert doc["vertices"][0]["kawasaki"]


def test_verify_subcommand(capsys, tmp_path):
    path = tmp_path / "m.json"
    run(capsys, ["generate", "miura", "2", "2", "-o", str(path)])
    code, out, _ = run(capsys, ["verify", str(path), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["count_mv"] == doc["count_colorings"] == 6


def test_verify_refuses_past_the_cap(capsys, tmp_path):
    # 33,865,632 colorings: refused by count, not after 200,001 of them
    path = tmp_path / "m.json"
    run(capsys, ["generate", "miura", "6", "6", "-o", str(path)])
    code, out, err = run(capsys, ["verify", str(path)])
    assert (code, out, err) == (1, "", "error: more than 200000 colorings\n")


def test_render_subcommand(capsys, tmp_path):
    src = tmp_path / "m.json"
    dst = tmp_path / "m.svg"
    run(capsys, ["generate", "miura", "2", "2", "-o", str(src)])
    code, _, _ = run(capsys, ["render", str(src), "-o", str(dst)])
    assert code == 0
    assert dst.read_text().startswith("<svg")


def test_validation_failure_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]],'
                   ' "creases": [{"id": "c0", "from": "x", "to": "y"}]}')
    code, _, err = run(capsys, ["count-mv", str(bad)])
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", ["count-colorings", "verify"])
@pytest.mark.parametrize("doc, message", [
    ('{"version": 1, "region": "x", "creases": []}', "malformed pattern"),
    ('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]], "creases": [],'
     ' "saw": {"vertices": [1, 2], "edges": [], "root": 0}}', "bad SAW graph"),
    ('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]], "creases": [],'
     ' "saw": {"vertices": [{"id": 0, "face": "f0"}, {"id": 1, "face": "f0"}],'
     ' "edges": [], "root": 0}}',
     "SAW graph is not connected"),
    ('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]], "creases": [],'
     ' "mv": []}', "bad MV block"),
    ('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]], "creases": [],'
     ' "saw": {"vertices": [{"id": 0, "face": "f0"}, {"id": 0, "face": "f1"}],'
     ' "edges": [], "root": 0}}', "vertex id 0 is used by an earlier row"),
    ('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]], "creases": [],'
     ' "saw": {"vertices": [{"id": 0, "face": "f0"}, {"id": 1, "face": "f0"}],'
     ' "edges": [{"id": 0, "u": 0, "v": 1}, {"id": 0, "u": 1, "v": 0}], "root": 0}}',
     "edge id 0 is used by an earlier row"),
])
def test_malformed_file_exits_1(capsys, monkeypatch, doc, message, command):
    code, out, err = run(capsys, [command, "-"], stdin=doc,
                         monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["count-colorings", "check"])
def test_repeated_region_corner_exits_1(capsys, monkeypatch, command):
    doc = ('{"version": 1, "region": [["0","0"],["1","0"],["1","0"],["1","1"],'
           '["0","1"]], "creases": []}')
    code, out, err = run(capsys, [command, "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: region polygon is degenerate")


def test_non_integer_brute_limit_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("FLATFOLD_BRUTE_LIMIT", "abc")
    code, out, err = run(capsys, ["count-mv", "-"], stdin=emit(miura(2, 2)),
                         monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: FLATFOLD_BRUTE_LIMIT must be an integer, not 'abc'\n"


def test_build_saw_unsupported_vertex_exits_1(capsys, tmp_path):
    path = tmp_path / "kawasaki.json"
    path.write_text(emit(star_pattern((80, 100, 90, 90))))
    code, out, err = run(capsys, ["build-saw", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: unsupported vertex v0: ")


def _saw_doc(**saw_changes):
    """Miura 2x2 with its tiled SAW graph embedded, the saw block edited."""
    cp = miura(2, 2)
    doc = json.loads(emit(cp, saw=tile(cp)))
    for key, edit in saw_changes.items():
        doc["saw"][key] = edit(doc["saw"][key])
    return json.dumps(doc)


UNLISTED_SAW_REFERENCES = {
    "edge endpoint": dict(edges=lambda es: es + [{"id": 99, "u": 0, "v": 5}]),
    "root": dict(root=lambda _: 7),
    "boundary vertex": dict(boundary=lambda b: [[77, b[0][1]]] + b[1:]),
    "boundary edge": dict(boundary=lambda b: [[b[0][0], 77]] + b[1:]),
}


@pytest.mark.parametrize("command", ["count-colorings", "verify"])
@pytest.mark.parametrize("case", sorted(UNLISTED_SAW_REFERENCES))
def test_unlisted_saw_reference_exits_1(capsys, monkeypatch, case, command):
    doc = _saw_doc(**UNLISTED_SAW_REFERENCES[case])
    code, out, err = run(capsys, [command, "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "bad SAW graph" in err
    assert "Traceback" not in err


def test_repeated_saw_edge_id_exits_1(capsys, monkeypatch):
    # Miura 3x3 with its tiled graph: renumbering one edge to an earlier
    # edge's id would drop that earlier edge and count 100, not 82
    cp = miura(3, 3)
    doc = json.loads(emit(cp, saw=tile(cp)))
    code, out, _ = run(capsys, ["count-colorings", "-"], stdin=json.dumps(doc),
                       monkeypatch=monkeypatch)
    assert (code, out) == (0, "82\n")
    doc["saw"]["edges"][7]["id"] = 1
    code, out, err = run(capsys, ["count-colorings", "-"], stdin=json.dumps(doc),
                         monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: bad SAW graph: edge id 1 is used by an earlier row\n"


def test_a_looped_saw_vertex_counts_and_verifies_as_uncolorable(capsys, monkeypatch):
    # an undirected edge 0-0 leaves no coloring: count-colorings prints 0
    # and verify prints a failed report, not an error
    doc = _saw_doc(edges=lambda es: es + [{"id": 99, "u": 0, "v": 0}])
    code, out, _ = run(capsys, ["count-colorings", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert (code, out) == (0, "0\n")
    code, out, err = run(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1 and err == ""
    assert out.startswith("count_mv: 6\ncount_colorings: 0\ncounts_match: False\n")
    assert "ok: False\n" in out


def test_verify_refuses_a_missing_root(capsys, monkeypatch):
    # a SAW block with no vertices may name any root; its empty coloring
    # cannot color that root 0
    doc = ('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]], "creases": [],'
           ' "saw": {"vertices": [], "edges": [], "root": 3}}')
    code, out, err = run(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: root 3 is not a vertex\n"


def test_count_colorings_refuses_a_missing_root(capsys, monkeypatch):
    # count-colorings refuses the root verify refuses, in the same words
    doc = ('{"version": 1, "region": [["0","0"],["1","0"],["1","1"]], "creases": [],'
           ' "saw": {"vertices": [], "edges": [], "root": 3}}')
    code, out, err = run(capsys, ["count-colorings", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: root 3 is not a vertex\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_count_mv_limit_flag(capsys, tmp_path):
    path = tmp_path / "m.json"
    run(capsys, ["generate", "miura", "3", "3", "-o", str(path)])
    code, _, err = run(capsys, ["count-mv", str(path), "--limit", "5"])
    assert code == 1
    assert "limit" in err or "exceed" in err


def test_verify_prints_first_counterexample(capsys, tmp_path):
    from .helpers import invalid_joined_twist_saw
    cp, bad = invalid_joined_twist_saw()
    path = tmp_path / "bad.json"
    path.write_text(emit(cp, saw=bad))
    code, out, _ = run(capsys, ["verify", str(path), "--json"])
    assert code == 1
    doc = json.loads(out)
    assert not doc["ok"]
    reason, detail = doc["first_counterexample"]
    assert isinstance(reason, str) and reason
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 1
    line = out.splitlines()[-1]
    assert line.startswith("first_counterexample: ")
    assert json.loads(line.split(": ", 1)[1]) == [reason, detail]


def test_verify_output_unchanged_when_ok(capsys, tmp_path):
    path = tmp_path / "m.json"
    run(capsys, ["generate", "miura", "2", "2", "-o", str(path)])
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert out == ("count_mv: 6\ncount_colorings: 6\ncounts_match: True\n"
                   "translation_valid: True\ninjective: True\n"
                   "round_trip_ok: True\nok: True\n")


@pytest.mark.parametrize("argv", [
    ["generate", "miura"],
    ["generate", "snake", "3"],
    ["generate", "crane", "2"],
    ["generate", "modified-miura", "2", "3", "--mask", "x1"],
    ["generate", "miura", "0", "2"],
    ["generate", "joined-twists", "5"],
    ["generate", "modified-miura", "3", "3", "--mask", "1"],
])
def test_generate_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: flatfold generate") and "error:" in err


def readme_cli_commands() -> list[str]:
    """Command lines of the README's CLI example block, comments stripped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines() if line.strip()]


def run_pipeline(capsys, monkeypatch, line: str) -> tuple[int, str]:
    """Run a shell pipeline of flatfold commands through main; returns the
    last exit code and the last stage's stdout."""
    out = ""
    for stage in line.split("|"):
        argv = shlex.split(stage)
        assert argv[0] == "flatfold"
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code = main(argv[1:])
        out = capsys.readouterr().out
        if code:
            break
    return code, out


def test_readme_cli_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    expected = [
        "6\n",
        "170\n",
        "93312\n",
        "",
        "v0: degree 4 kawasaki ok niceness 2\n"
        "v1: degree 6 kawasaki ok niceness 2\n"
        "v2: degree 4 kawasaki ok niceness 2\n"
        "pattern valid\n",
        '{"count_mv": 82, "count_colorings": 82, "counts_match": true, '
        '"translation_valid": true, "injective": true, "round_trip_ok": true, '
        '"ok": true}\n',
        "",
    ]
    commands = readme_cli_commands()
    assert len(commands) == len(expected)
    for line, want in zip(commands, expected):
        assert run_pipeline(capsys, monkeypatch, line) == (0, want), line
    assert (tmp_path / "snake.json").is_file()
    assert (tmp_path / "snake.svg").read_text().startswith("<svg")
