"""Command-line surface: exit codes, JSON round-trips, rendering."""

import json
import random
import types

import pytest

from hdasculpt import corpus, hda, hda_from_json, hda_to_json, make_bulk
from hdasculpt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(hda_to_json(corpus.fixture(name).build())))
    return str(path)


def test_check_broken_box(tmp_path, capsys):
    path = write_fixture(tmp_path, "broken_box")
    code, out = run_cli(capsys, "check", path)
    assert code == 1
    data = json.loads(out)
    assert data["sculptable"] is False
    assert data["witness"]["kind"] == "label_clash"


def test_check_empty_square_and_oracle_agree(tmp_path, capsys):
    path = write_fixture(tmp_path, "empty_square")
    code, out = run_cli(capsys, "check", path)
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 2
    assert data["partition"] == [["q1", "q3"], ["q2", "q4"]]
    code2, out2 = run_cli(capsys, "oracle", path)
    assert code2 == 0
    assert json.loads(out2)["sculptable"] is True


def test_check_invalid_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"cells": {"0": ["v"]}, "s": {}, "t": {}, "initial": "w"}')
    code, out = run_cli(capsys, "check", str(path))
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("text, where", [
    ("[]", "top level"),
    ('{"cells": 5, "initial": "a"}', "cells"),
    ('{"cells": {"0": [["v"]]}, "initial": "v"}', 'cells["0"][0]'),
    ('{"cells": {"0": ["v"]}, "initial": ["v"]}', "initial"),
], ids=["top_level_list", "cells_not_an_object", "list_cell_id", "list_initial"])
def test_check_malformed_hda_json_exits_2(tmp_path, capsys, text, where):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run_cli(capsys, "check", str(path))
    assert code == 2
    error = json.loads(out)
    assert error["error"] == "InvalidStructureError"
    assert where in error["message"]


def test_bulk_zero(capsys):
    code, out = run_cli(capsys, "bulk", "0")
    assert code == 0
    data = json.loads(out)
    assert data["cells"] == {"0": [""]}
    assert data["initial"] == ""


def test_bulk_roundtrips(capsys):
    code, out = run_cli(capsys, "bulk", "2")
    assert code == 0
    h = hda_from_json(json.loads(out))
    assert hda_to_json(h) == hda_to_json(make_bulk(2))


def test_grid_command(capsys):
    code, out = run_cli(capsys, "grid", "2", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["cells"]["2"]) == 2


def test_cover_command(tmp_path, capsys):
    path = write_fixture(tmp_path, "empty_square")
    code, out = run_cli(capsys, "cover", path)
    assert code == 0
    data = json.loads(out)
    assert len(data["configs"]) == 9


@pytest.mark.parametrize("table, cell, faces, kind", [
    ("s", "q", ["l"], "face_count"),
    ("t", "r", ["zz"], "dangling_face"),
    ("s", "l", [], "face_count"),
    ("t", "ghost", ["00"], "undeclared_cell"),
], ids=["one_s_face", "dangling_t_face", "edge_without_s_face",
        "undeclared_face_table"])
@pytest.mark.parametrize("command", [
    ("check",), ("cover",), ("export",), ("export", "--format", "dot"),
    ("export", "--format", "tikz"),
], ids=["check", "cover", "export", "export_dot", "export_tikz"])
def test_invalid_hda_exits_2(tmp_path, capsys, command, table, cell, faces, kind):
    # each command validates before it writes anything: no traceback from
    # the renderers and no drawing of an invalid automaton
    data = hda_to_json(corpus.filled_square())
    data[table][cell] = faces
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, *command, str(path))
    assert code == 2
    error = json.loads(out)
    assert error["error"] == "InvalidStructureError"
    assert kind in error["message"]


@pytest.mark.parametrize("key", ["01", "00", "-1", " 0", "\u0660"])
@pytest.mark.parametrize("command", ["check", "cover", "export"])
def test_non_decimal_dimension_key_exits_2(tmp_path, capsys, command, key):
    data = hda_to_json(corpus.filled_square())
    data["cells"][key] = ["extra"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, command, str(path))
    assert code == 2
    error = json.loads(out)
    assert error["error"] == "InvalidStructureError"
    assert f"cells key {key!r}" in error["message"]


def test_check_disconnected_hda_exits_2(tmp_path, capsys):
    path = tmp_path / "apart.json"
    path.write_text(json.dumps(hda_to_json(hda({0: ["a", "b"]}, {}, {}, "a"))))
    code, out = run_cli(capsys, "check", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "NotConnectedError"


def test_convert_chain(tmp_path, capsys):
    from hdasculpt import st_to_json
    st_path = tmp_path / "st.json"
    st_path.write_text(json.dumps(st_to_json(corpus.asym_conflict_st())))
    code, chu_out = run_cli(capsys, "convert", "--from", "st", "--to", "chu",
                            str(st_path))
    assert code == 0
    chu_path = tmp_path / "chu.json"
    chu_path.write_text(chu_out)
    code, st_out = run_cli(capsys, "convert", "--from", "chu", "--to", "st",
                           str(chu_path))
    assert code == 0
    assert json.loads(st_out) == json.loads(st_path.read_text())
    code, sc_out = run_cli(capsys, "convert", "--from", "st",
                           "--to", "sculpture", str(st_path))
    assert code == 0
    sc_path = tmp_path / "sc.json"
    sc_path.write_text(sc_out)
    code, back = run_cli(capsys, "convert", "--from", "sculpture", "--to", "st",
                         str(sc_path))
    assert code == 0
    from hdasculpt import st_from_json, st_isomorphic
    assert st_isomorphic(st_from_json(json.loads(back)),
                         st_from_json(json.loads(st_path.read_text())))


def test_pv_build(tmp_path, capsys):
    pv_path = tmp_path / "two.pv"
    pv_path.write_text("P(a) P(b) V(b) V(a)\nP(b) P(a) V(a) V(b)\n")
    code, out = run_cli(capsys, "pv", "build", str(pv_path))
    assert code == 0
    data = json.loads(out)
    assert "complex" in data and "hda" in data
    assert data["hda"]["initial"] == "0,0"


def test_pv_build_over_the_grid_limit_exits_2(tmp_path, capsys):
    pv_path = tmp_path / "big.pv"
    pv_path.write_text("P(a) V(a) " * 15 + "\n" + ("P(a) V(a) " * 15 + "\n") * 2)
    code, out = run_cli(capsys, "pv", "build", str(pv_path))
    assert code == 2
    assert json.loads(out) == {
        "error": "ResourceLimitError",
        "message": "grid (30, 30, 30) has 226981 cells, over 200000"}


def test_corpus_run(capsys):
    code, out = run_cli(capsys, "corpus", "run")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == len(corpus.fixtures())
    assert all(ln.split()[1] == "ok" for ln in lines)


def test_corpus_export(tmp_path, capsys):
    code, out = run_cli(capsys, "corpus", "export", str(tmp_path))
    assert code == 0
    assert len(out.strip().splitlines()) == len(corpus.fixtures())


def test_export_formats(tmp_path, capsys):
    path = write_fixture(tmp_path, "empty_square")
    code, out = run_cli(capsys, "export", path, "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out = run_cli(capsys, "export", path, "--format", "tikz")
    assert code == 0 and "tikzpicture" in out
    code, out = run_cli(capsys, "export", path)
    assert code == 0
    assert json.loads(out) == json.loads(open(path).read())


def test_random_command_is_seeded(capsys):
    code, out1 = run_cli(capsys, "random", "--seed", "3", "--count", "2")
    code2, out2 = run_cli(capsys, "random", "--seed", "3", "--count", "2")
    assert code == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)) == 2


class _NoDraws(random.Random):
    """A generator that fails the test at its first draw, so that a
    negative bound is seen to raise before any candidate is drawn."""

    def random(self):
        raise AssertionError("a candidate was drawn")


def test_random_rejects_a_negative_bound_before_drawing(monkeypatch):
    from hdasculpt import randgen
    with pytest.raises(ValueError, match="max_events"):
        randgen.random_hda(_NoDraws(), max_events=-1)
    monkeypatch.setattr(randgen, "random", types.SimpleNamespace(Random=_NoDraws))
    with pytest.raises(ValueError, match="count"):
        randgen.random_hda_batch(0, -3)
    with pytest.raises(ValueError, match="max_events"):
        randgen.random_hda_batch(0, 0, max_events=-1)
    assert randgen.random_hda_batch(0, 0) == []


@pytest.mark.parametrize("flags", [("--max-events", "-1"), ("--count", "-3")],
                         ids=["max_events", "count"])
def test_random_command_with_a_negative_bound_exits_2(monkeypatch, capsys, flags):
    from hdasculpt import randgen
    monkeypatch.setattr(randgen, "random", types.SimpleNamespace(Random=_NoDraws))
    code, out = run_cli(capsys, "random", *flags)
    assert code == 2
    assert json.loads(out)["error"] == "ValueError"


def test_pv_build_of_a_resource_declared_twice_exits_2(tmp_path, capsys):
    pv_path = tmp_path / "twice.pv"
    pv_path.write_text("resource a capacity 2\nresource a capacity 3\nP(a) V(a)\n")
    code, out = run_cli(capsys, "pv", "build", str(pv_path))
    assert code == 2
    assert json.loads(out) == {
        "error": "PvSyntaxError",
        "message": "line 2, column 10: resource 'a' declared twice"}


def test_exported_corpus_files_decide_as_expected(tmp_path, capsys):
    code, out = run_cli(capsys, "corpus", "export", str(tmp_path))
    assert code == 0
    for f in corpus.fixtures():
        data = json.loads((tmp_path / f"{f.name}.json").read_text())
        hda_path = tmp_path / f"only_{f.name}.json"
        hda_path.write_text(json.dumps(data["hda"]))
        code, out = run_cli(capsys, "check", str(hda_path))
        assert code == (0 if f.sculptable else 1), f.name


def test_check_oracle_flag(tmp_path, capsys):
    path = write_fixture(tmp_path, "empty_square")
    code, out = run_cli(capsys, "check", path, "--oracle")
    assert code == 0
    assert json.loads(out)["d"] == 2


def test_check_prints_the_partition_of_a_sculptable_file(tmp_path, capsys):
    code, out = run_cli(capsys, "check", write_fixture(tmp_path, "backtracker"))
    data = json.loads(out)
    assert code == 0 and data["d"] == 4
    assert len(data["partition"]) == 4
    code, out = run_cli(capsys, "oracle", write_fixture(tmp_path, "matchbox"))
    data = json.loads(out)
    assert code == 0 and len(data["partition"]) == data["d"]


def test_convert_chu_to_text(tmp_path, capsys):
    from hdasculpt import st_to_chu, chu_to_json, st_to_json
    chu_path = tmp_path / "chu.json"
    chu_path.write_text(json.dumps(chu_to_json(
        st_to_chu(corpus.asym_conflict_st()))))
    code, out = run_cli(capsys, "convert", "--from", "chu", "--to", "text",
                        str(chu_path))
    assert code == 0
    assert out.splitlines()[1].startswith("a ")


@pytest.mark.parametrize("source, target", [
    ("st", "chu"), ("chu", "st"), ("sculpture", "st"), ("st", "sculpture"),
    ("chu", "text")])
@pytest.mark.parametrize("kind", ["top_level_list", "wrong_field"])
def test_convert_malformed_json_exits_2(tmp_path, capsys, source, target, kind):
    wrong_field = {
        "st": ('{"events": 3, "configs": []}', "events"),
        "chu": ('{"events": ["a"], "states": ["0", 1]}', "states[1]"),
        "sculpture": ('{"hda": {"cells": {"0": ["v"]}, "initial": "v"},'
                      ' "d": 0, "em": {"v": []}}', 'em["v"]'),
    }[source]
    text, where = ("[]", "top level") if kind == "top_level_list" else wrong_field
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out = run_cli(capsys, "convert", "--from", source, "--to", target,
                        str(path))
    assert code == 2
    error = json.loads(out)
    assert error["error"] == "InvalidStructureError"
    assert where in error["message"]


SCULPTURE_HDA = {"cells": {"0": ["v", "w"], "1": ["e"]},
                 "s": {"e": ["v"]}, "t": {"e": ["w"]}, "initial": "v"}


@pytest.mark.parametrize("change", [
    {"em": {"v": "0", "e": "xx", "w": "1"}},
    {"em": {"v": "0", "e": "q", "w": "1"}},
    {"d": -1},
    {"hda": {**SCULPTURE_HDA, "s": {"e": ["u"]}}},
    {"hda": {**SCULPTURE_HDA, "s": {"e": []}}},
], ids=["image_too_long", "bad_character", "negative_d", "unknown_face",
        "empty_face_list"])
def test_convert_invalid_sculpture_exits_2(tmp_path, capsys, change):
    sculpture = {"hda": SCULPTURE_HDA, "d": 1, "em": {"v": "0", "e": "x", "w": "1"}}
    path = tmp_path / "sculpture.json"
    path.write_text(json.dumps(sculpture))
    assert run_cli(capsys, "convert", "--from", "sculpture", "--to", "st",
                   str(path))[0] == 0
    path.write_text(json.dumps({**sculpture, **change}))
    code, out = run_cli(capsys, "convert", "--from", "sculpture", "--to", "st",
                        str(path))
    assert code == 2
    assert json.loads(out)["error"] == "InvalidStructureError"


@pytest.mark.parametrize("source, target, text", [
    ("st", "chu", '{"events": ["a", "a"], "configs": [[[], []]]}'),
    ("chu", "text", '{"events": ["a", "a"], "states": ["00"]}'),
    ("chu", "st", '{"events": ["a", "a"], "states": ["00"]}'),
], ids=["st-chu", "chu-text", "chu-st"])
def test_convert_repeated_event_names_exits_2(tmp_path, capsys, source, target, text):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    code, out = run_cli(capsys, "convert", "--from", source, "--to", target, str(path))
    assert code == 2
    assert json.loads(out) == {"error": "ValueError", "message": "repeated event names"}


def test_check_too_deep_input_exits_2(tmp_path, capsys):
    # a cell table nested deeper than the JSON reader's recursion limit;
    # that is an error, not a negative verdict
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"cells": ' + "[" * depth + "]" * depth + ', "initial": "0"}')
    code, out = run_cli(capsys, "check", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "RecursionError"


def test_check_a_long_chain(tmp_path, capsys):
    # 1,500 states in a row: neither the decision nor the walks over the
    # sequential arcs nest a call per state
    from hdasculpt import has_non_repeating_events, is_acyclic, make_grid
    chain = make_grid(1500)
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(hda_to_json(chain)))
    code, out = run_cli(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["d"] == 1500
    assert has_non_repeating_events(chain) == (True, None)
    assert is_acyclic(chain) == (True, None)


@pytest.mark.parametrize("command", ["check", "cover"])
def test_check_and_cover_read_pv_build_output(tmp_path, capsys, command):
    pv_path = tmp_path / "three_res.pv"
    pv_path.write_text("P(a) P(b) P(c) V(c) V(b) V(a)\n"
                       "P(c) P(b) P(a) V(a) V(b) V(c)\n")
    code, built = run_cli(capsys, "pv", "build", str(pv_path))
    assert code == 0
    path = tmp_path / "three_res.json"
    path.write_text(built)
    code, out = run_cli(capsys, command, str(path))
    assert code == 0
    hda_path = tmp_path / "hda.json"
    hda_path.write_text(json.dumps(json.loads(built)["hda"]))
    assert run_cli(capsys, command, str(hda_path)) == (0, out)


@pytest.mark.parametrize("fmt", ["json", "dot", "tikz"])
def test_export_reads_pv_build_output(tmp_path, capsys, fmt):
    pv_path = tmp_path / "mutex3.pv"
    pv_path.write_text("P(a) V(a)\n" * 3)
    code, built = run_cli(capsys, "pv", "build", str(pv_path))
    assert code == 0
    path = tmp_path / "mutex3.json"
    path.write_text(built)
    hda_path = tmp_path / "hda.json"
    hda_path.write_text(json.dumps(json.loads(built)["hda"]))
    code, out = run_cli(capsys, "export", str(path), "--format", fmt)
    assert code == 0 and out
    assert run_cli(capsys, "export", str(hda_path), "--format", fmt) == (0, out)


def test_check_into_a_closed_pipe_exits_2_quietly(tmp_path):
    # a reader that has gone, as with `check g.json | head -1`: the verdict
    # never reaches it, which is an error, not "not sculptable"
    import os
    import subprocess
    import sys

    import hdasculpt
    from hdasculpt import make_grid
    path = tmp_path / "g.json"
    path.write_text(json.dumps(hda_to_json(make_grid(6, 6))))
    src = os.path.dirname(os.path.dirname(hdasculpt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hdasculpt.cli", "check", str(path)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""
