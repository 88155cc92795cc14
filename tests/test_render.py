"""DOT and TikZ renderings."""

import json
import re

import pytest

from hdasculpt import corpus, hda_from_json, make_grid
from hdasculpt.cli import main
from hdasculpt.render import to_dot, to_tikz

NODE = re.compile(r"\\node\[[^\]]*\] \(([^)]*)\) at ")
DRAW = re.compile(r"\\draw\[->\] \(([^)]*)\) -- node\[[^\]]*\] \{[^}]*\} \(([^)]*)\);")


def test_dot_links_a_square_to_two_corners():
    out = to_dot(corpus.filled_square())
    assert '"q" [shape=box, style=filled, fillcolor=gray85];' in out
    assert '"q" -> "00" [style=dotted, arrowhead=none];' in out
    assert '"q" -> "11" [style=dotted, arrowhead=none];' in out
    assert out.count("style=dotted") == 2


def test_tikz_draws_each_edge_between_declared_nodes():
    out = to_tikz(corpus.filled_square())
    assert out.count("\\fill") == 1
    assert out.count("\\draw") == 4
    names = NODE.findall(out)
    assert len(names) == len(set(names)) == 4
    draws = DRAW.findall(out)
    assert len(draws) == 4
    assert all(a in names and b in names for a, b in draws)


def test_tikz_names_grid_nodes_without_commas():
    # a name like "(0,1)" would be read by TikZ as the point (0 cm, 1 cm)
    out = to_tikz(make_grid(2, 2))
    names = NODE.findall(out)
    assert len(names) == 9
    assert not any("," in n for n in names)
    assert {x for pair in DRAW.findall(out) for x in pair} <= set(names)


def test_tikz_export_of_a_cube_is_an_error(tmp_path, capsys):
    path = tmp_path / "b3.json"
    assert main(["bulk", "3"]) == 0
    path.write_text(capsys.readouterr().out)
    assert main(["export", str(path), "--format", "tikz"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "ValueError"


def _named_square(vertex: str, edge: str):
    """A filled square whose vertices' names end in ``vertex`` and whose
    edges' and square's end in ``edge``."""
    v00, v10, v01, v11 = (c + vertex for c in ("00", "10", "01", "11"))
    l, r, b, t, q = (c + edge for c in "lrbtq")
    return hda_from_json({
        "cells": {"0": [v00, v10, v01, v11], "1": [l, r, b, t], "2": [q]},
        "s": {l: [v00], b: [v00], r: [v10], t: [v01], q: [l, b]},
        "t": {l: [v01], b: [v10], r: [v11], t: [v11], q: [r, t]},
        "initial": v00})


QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
TEX_ESCAPES = {r"\textbackslash{}": "\\", r"\textasciicircum{}": "^",
               r"\textasciitilde{}": "~", **{"\\" + c: c for c in "#$%&_{}"}}
TEX_LABEL = re.compile("|".join(map(re.escape, TEX_ESCAPES)) + r"|[^\\{}$&#^_%~]")


@pytest.mark.parametrize("vertex, edge", [
    ('x"y', "e}\\"), ("\\", "e_1"), ('\\"', "#$%&~^{"), ("", "\\textbf{b}"),
])
def test_exports_escape_cell_names(vertex, edge):
    h = _named_square(vertex, edge)
    names = set(h.all_cells())
    # DOT: every quoted string is well formed, and unescaping each gives
    # back a cell name, so distinct names keep distinct IDs
    for line in to_dot(h).splitlines()[2:-1]:
        assert QUOTED.sub("", line).count('"') == 0, line
        found = [re.sub(r"\\(.)", r"\1", x) for x in QUOTED.findall(line)]
        assert found and set(found) <= names, line
    # TikZ: each edge label is TeX's escapes and plain characters only, and
    # spells the edge's name
    labels = re.findall(r"node\[above,font=\\tiny\] \{(.*)\} \(v\d\);",
                        to_tikz(h))
    assert len(labels) == 4
    for label in labels:
        parts = TEX_LABEL.findall(label)
        assert "".join(parts) == label
        assert "".join(TEX_ESCAPES.get(p, p) for p in parts) in names
