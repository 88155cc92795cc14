"""DOT and TikZ renderings."""

import json
import re

from hdasculpt import corpus, make_grid
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
